import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxgamma.quotient as quotient
from boxgamma.box import alpha_key, normalize_beta, stabilize
from boxgamma.errors import (
    DimensionOvershoot,
    NoStabilizationWindow,
    ShadowNotSubmodule,
    UnboundedDegree,
)
from boxgamma.fan import StackyFan, _tangent_test, triangulate_from_heights, validate
from boxgamma.gkz import build_gkz
from boxgamma.kring import spectrum
from boxgamma.linalg import GaussianRational
from boxgamma.quotient import ModuleSpec, _Summand, build_quotient, graded_piece
from exact_oracles import (
    TaggedPoint,
    module_product,
    scanned_graded_piece,
    verify_def2_isomorphism,
)

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)), deg=(1, 0))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
HEX5_POINTS = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
HEX5 = triangulate_from_heights(
    [(1,) + p for p in HEX5_POINTS],
    [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(HEX5_POINTS)],
)


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[r][m] * b[m][c] for m in range(n)) for c in range(n)]
        for r in range(n)
    ]


def is_zero(mat):
    return all(all(x == 0 for x in row) for row in mat)


def test_graded_piece_f1():
    spec = ModuleSpec(F1, (Fraction(0), Fraction(0)))
    assert graded_piece(spec, 0).points == ((0, 0),)
    assert graded_piece(spec, 1).points == ((1, 0), (1, 1), (1, 2))
    assert graded_piece(spec, -1).points == ()
    shifted = ModuleSpec(F1, (Fraction(1, 4), Fraction(0)))
    assert graded_piece(shifted, 0).points == ((0, 0),)


def test_graded_piece_requires_degree():
    with pytest.raises(UnboundedDegree, match="^quotient: fan carries no degree functional$"):
        graded_piece(ModuleSpec(F2, (Fraction(0), Fraction(0))), 0)
    negative = StackyFan(rank=2, rays=F1.rays, max_cones=F1.max_cones, deg=(-1, 0))
    with pytest.raises(UnboundedDegree, match="^quotient: degree functional is not positive"):
        graded_piece(ModuleSpec(negative, (Fraction(0), Fraction(0))), 0)


def test_graded_piece_reads_an_integral_degree():
    """m = 1.0 and m = 1 share one piece with an int offset in either order,
    and an m that equals no integer is named."""
    spec = ModuleSpec(dataclasses.replace(F1), (Fraction(0), Fraction(0)))
    first = graded_piece(spec, 1.0)
    assert graded_piece(spec, 1) is first
    assert type(first.offset) is int and first.points == ((1, 0), (1, 1), (1, 2))
    for m in (1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"^quotient: the degree m is {m!r}, not an integer$"):
            graded_piece(spec, m)


TRI2_POINTS = tuple((i, j) for i in range(3) for j in range(3 - i))
TRI2 = triangulate_from_heights(
    [(1,) + p for p in TRI2_POINTS],
    [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(TRI2_POINTS)],
)
# fans with a degree functional: the ladder's cones over polygons, and
# ray degrees other than 1 (F1 with 1, 2, 3; SQUARE with 1, 2, 2, 3; two
# overlapping cones, which validate rejects, with 2, 1, 3, 1)
GRADED = {
    "F1": F1,
    "SQUARE": SQUARE,
    "HEX5": HEX5,
    "tri2": TRI2,
    "F1 deg (1, 1)": dataclasses.replace(F1, deg=(1, 1)),
    "SQUARE deg (1, 1, 1)": dataclasses.replace(SQUARE, deg=(1, 1, 1)),
    "overlap": StackyFan(
        rank=2, rays=((1, 0), (0, 1), (1, 1), (1, -1)), max_cones=((0, 1), (2, 3)), deg=(2, 1)
    ),
}


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(GRADED)), data=st.data())
def test_graded_piece_matches_the_scan(name, data):
    """graded_piece, read from the box elements at chi and their face
    blocks, equals the bounding-box scan on a fresh copy of the fan, for a
    rational chi, with and without a shadow direction xi (which needs a
    fan, so not on the overlapping cones), at degrees -1 to 3."""
    fan = GRADED[name]
    q = st.fractions(-2, 2, max_denominator=6)
    chi = tuple(data.draw(q) for _ in range(fan.rank))
    xi = None
    if name != "overlap" and data.draw(st.booleans()):
        xi = tuple(data.draw(q) for _ in range(fan.rank))
    m = data.draw(st.integers(-1, 3))
    got = graded_piece(ModuleSpec(fan, chi, xi), m)
    assert got == scanned_graded_piece(ModuleSpec(dataclasses.replace(fan), chi, xi), m)


def test_graded_pieces_build_the_box_set_once_per_shift(monkeypatch):
    """Degrees 0-3 at one chi, with and without a shadow direction, read the
    collision classes at chi from the graded memo: one build, not one per
    degree."""
    builds = []
    real = quotient._collisions
    monkeypatch.setattr(quotient, "_collisions", lambda *args: builds.append(args) or real(*args))
    fan = dataclasses.replace(TRI2)
    chi = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    for m in range(4):
        graded_piece(ModuleSpec(fan, chi), m)
    graded_piece(ModuleSpec(fan, chi, (Fraction(1), Fraction(0), Fraction(0))), 2)
    assert len(builds) == 1


def test_module_product_examples():
    alpha = (Fraction(1, 4), Fraction(0), Fraction(0))
    elem = TaggedPoint((Fraction(1, 4), Fraction(0)), alpha)

    out = module_product(F1, (0, 0), elem)
    assert out == elem

    out = module_product(F1, (1, 0), elem)
    assert out is not None
    assert out.point == (Fraction(5, 4), Fraction(0))
    assert out.alpha == alpha

    assert module_product(F1, (1, 2), elem) is None


def test_quotient_f1_chi_zero():
    q = build_quotient(ModuleSpec(F1, (Fraction(0), Fraction(0))))
    assert q.dim == 2
    assert [b.lattice_point for b in q.basis] == [(0, 0), (1, 2)]
    assert [b.offset for b in q.basis] == [0, 1]
    zero_key = alpha_key((Fraction(0),) * 3)
    assert q.summand_dims == {zero_key: 2}
    assert q.bases == (0,)


def test_quotient_f1_shadow():
    chi = (Fraction(1, 4), Fraction(0))
    q = build_quotient(ModuleSpec(F1, chi, xi=chi))
    assert q.dim == 2
    assert sorted(q.summand_dims.values()) == [1, 1]
    assert sorted(b.offset for b in q.basis) == [0, 1]


@pytest.mark.parametrize(
    "chi,xi,name,got",
    [
        ((Fraction(1, 4),), None, "chi", 1),
        ((Fraction(1, 4), 0, 0), None, "chi", 3),
        ((Fraction(1, 4), 0), (1,), "xi", 1),
        ((Fraction(1, 4), 0), (1, 0, 0), "xi", 3),
    ],
)
def test_module_spec_rejects_a_wrong_length_point(chi, xi, name, got):
    """Through zip's truncation a wrong-length chi or xi would build a quotient."""
    message = rf"^quotient: {name} must have 2 coordinates, got {got}$"
    with pytest.raises(ValueError, match=message):
        build_quotient(ModuleSpec(F1, chi, xi=xi))


@pytest.mark.parametrize(
    "chi,xi,name,pos,bad",
    [
        ((0.1, 0), None, "chi", 1, 0.1),
        ((0, GaussianRational(0, 1)), None, "chi", 2, GaussianRational(0, 1)),
        ((0, 0), (1, 0.5), "xi", 2, 0.5),
        ((0, 0), ("1/0", 0), "xi", 1, "1/0"),
    ],
)
def test_module_spec_rejects_an_inexact_or_complex_entry(chi, xi, name, pos, bad):
    """A float entry would build the quotient at its binary expansion."""
    message = f"quotient: entry {pos} of {name} is {bad!r}, not a rational"
    with pytest.raises(ValueError) as info:
        ModuleSpec(F1, chi, xi=xi)
    assert str(info.value) == message


def test_module_spec_reads_ints_fractions_and_rational_strings():
    spec = ModuleSpec(F1, (1, "1/4"), xi=(Fraction(1, 3), " -2 "))
    assert spec.chi == (Fraction(1), Fraction(1, 4))
    assert spec.xi == (Fraction(1, 3), Fraction(-2))
    assert all(type(c) is Fraction for c in spec.chi + spec.xi)


def test_quotient_unimodular_cone():
    fan = StackyFan(rank=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),), deg=None)
    q = build_quotient(ModuleSpec(fan, (Fraction(0), Fraction(0))))
    assert q.dim == 1
    assert all(mat == ((Fraction(0),),) for mat in q.dmats)


def test_quotient_f2_summands():
    q = build_quotient(ModuleSpec(F2, (Fraction(0), Fraction(0))))
    assert q.dim == 4
    dims = {k: v for k, v in q.summand_dims.items()}
    zero_key = alpha_key((Fraction(0),) * 3)
    half_key = alpha_key((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    assert dims == {zero_key: 3, half_key: 1}

    generic = build_quotient(ModuleSpec(F2, (Fraction(1, 3), Fraction(1, 5))))
    assert generic.dim == 4
    assert sorted(generic.summand_dims.values()) == [1, 1, 1, 1]


def quotient_invariants(q, fan):
    assert sum(q.summand_dims.values()) == q.dim
    # Euler vanishing: sum_i g_j(v_i) D_i = 0 for the standard dual basis
    for j in range(fan.rank):
        total = [[Fraction(0)] * q.dim for _ in range(q.dim)]
        for i in sorted(fan.fan_indices()):
            coeff = fan.rays[i][j]
            if coeff == 0:
                continue
            for r in range(q.dim):
                for c in range(q.dim):
                    total[r][c] += coeff * q.dmats[i][r][c]
        assert is_zero(total)
    # nilpotency and commutativity
    for i in range(fan.k):
        power = [list(row) for row in q.dmats[i]]
        for _ in range(q.dim - 1):
            power = mat_mul(power, q.dmats[i])
        assert is_zero(power)
    for i in range(fan.k):
        for j in range(i + 1, fan.k):
            ab = mat_mul(q.dmats[i], q.dmats[j])
            ba = mat_mul(q.dmats[j], q.dmats[i])
            assert ab == ba


def test_quotient_invariants_f1_f2():
    for fan, chi in (
        (F1, (Fraction(0), Fraction(0))),
        (F1, (Fraction(1, 4), Fraction(0))),
        (F2, (Fraction(0), Fraction(0))),
        (F2, (Fraction(1, 3), Fraction(1, 5))),
    ):
        quotient_invariants(build_quotient(ModuleSpec(fan, chi)), fan)


def test_def2_isomorphism_real_beta():
    corr = stabilize(F1, (Fraction(1, 4), 0))
    assert verify_def2_isomorphism(F1, (Fraction(1, 4), 0), corr, 2)


def test_def2_isomorphism_imaginary_beta():
    beta = (GaussianRational(0, 1), Fraction(0))
    corr = stabilize(F1, beta)
    assert verify_def2_isomorphism(F1, beta, corr, 3)


def test_def2_isomorphism_f2_complex():
    beta = (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))
    corr = stabilize(F2, beta)
    assert verify_def2_isomorphism(F2, beta, corr, 2)


def beta_coord():
    rational = st.fractions(-3, 3, max_denominator=12)
    return st.one_of(rational, st.builds(GaussianRational, rational, rational))


@st.composite
def fan_and_beta(draw):
    fan = draw(st.sampled_from([F1, F2, SQUARE, HEX5]))
    return fan, tuple(draw(beta_coord()) for _ in range(fan.rank))


@settings(max_examples=60, deadline=None)
@given(case=fan_and_beta(), shadow=st.booleans())
# the shadow filters out degree 0 and the quotient starts in degree 1
@example(case=(F1, (Fraction(-3), Fraction(0))), shadow=True)
def test_quotient_ends_at_its_last_degree(case, shadow):
    fan, beta = case
    beta = normalize_beta(fan, beta)
    xi = tuple(b.real for b in beta) if shadow else None
    spec = ModuleSpec(fan, stabilize(fan, beta).beta_delta, xi=xi)
    q = build_quotient(spec)
    last = max(b.degree for b in q.basis)
    top = last + fan.rank + 3
    counts = [0] * (top + 1)
    tangent = None if xi is None else _tangent_test(fan, xi)
    for alpha in q.alphas:
        summand = _Summand(spec, alpha, tangent)
        for t in range(top + 1):
            counts[t] += summand.extend(t)
    assert not any(counts[last + 1:])
    assert counts == [sum(b.degree == t for b in q.basis) for t in range(top + 1)]


def extended_degrees(monkeypatch, build):
    """Degrees passed to _Summand.extend while build() runs, in call order."""
    calls = []
    extend = _Summand.extend

    def counting(self, t):
        calls.append(t)
        return extend(self, t)

    monkeypatch.setattr(_Summand, "extend", counting)
    build()
    return calls


def test_quotient_stops_at_first_empty_degree(monkeypatch):
    # fresh copies: a quotient in a fan's parameter memo runs no extend
    f1 = ModuleSpec(dataclasses.replace(F1), (Fraction(1, 4), Fraction(0)))
    assert extended_degrees(monkeypatch, lambda: build_quotient(f1)) == [0, 0, 1, 1]
    chi = (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))
    square = ModuleSpec(dataclasses.replace(SQUARE), chi)
    assert extended_degrees(monkeypatch, lambda: build_quotient(square)) == [0, 0, 1, 1]


def test_shadow_quotient_stops_at_rank(monkeypatch):
    fan = dataclasses.replace(F1)
    calls = extended_degrees(monkeypatch, lambda: build_gkz(fan, (Fraction(1, 4), 0)))
    assert calls == [0, 0, 1, 1, 2, 2]


def test_dimension_overshoot():
    fan = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2), (1, 3)), max_cones=((0, 1), (2, 3)))
    message = "^quotient: cumulative dimension 3 exceeds the normalized volume 2$"
    with pytest.raises(DimensionOvershoot, match=message):
        build_quotient(ModuleSpec(fan, (Fraction(0), Fraction(0))))


# valid fans whose face rings are not Cohen-Macaulay, where which monomials
# are admissible decides the dimension: the bowtie's two cones meet in one
# ray, and the rank-2 fan's cones form two disconnected arcs
BOWTIE = StackyFan(
    rank=3, rays=((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, -1, 0), (1, 0, -1)), max_cones=((0, 1, 2), (0, 3, 4))
)
ARCS = StackyFan(
    rank=2,
    rays=((3, 2), (1, 1), (0, 1), (-1, 2), (-2, 1), (-1, 0)),
    max_cones=((0, 1), (1, 2), (2, 3), (4, 5)),
)


@pytest.mark.parametrize(
    "fan, beta, dim, volume",
    [
        (BOWTIE, (0, 0, 0), 3, 2),
        (BOWTIE, (Fraction(1, 2), 0, 0), 3, 2),
        (ARCS, (-4, 3), 5, 4),
    ],
)
def test_scope_cases_overshoot_the_volume(fan, beta, dim, volume):
    """The quotient at the stabilized parameter, and so the spectrum,
    exceeds the normalized volume on these fans."""
    fan = dataclasses.replace(fan)
    assert validate(fan).valid
    message = f"^quotient: cumulative dimension {dim} exceeds the normalized volume {volume}$"
    with pytest.raises(DimensionOvershoot, match=message):
        build_quotient(ModuleSpec(fan, stabilize(fan, beta).beta_delta))
    with pytest.raises(DimensionOvershoot, match=message):
        spectrum(dataclasses.replace(fan), beta)


def test_shadow_not_submodule():
    # three quadrants: the shadow direction (1, 0) leaves the support at (0, -1)
    fan = StackyFan(
        rank=2, rays=((1, 0), (0, 1), (-1, 0), (0, -1)), max_cones=((0, 1), (1, 2), (2, 3))
    )
    spec = ModuleSpec(fan, (Fraction(0), Fraction(0)), xi=(Fraction(1), Fraction(0)))
    with pytest.raises(ShadowNotSubmodule, match=r"monomial \(0, 0, 0, 0\) .* ray 4"):
        build_quotient(spec)


def test_shadow_not_submodule_names_the_callers_xi():
    """xi = (1, 0) and (2, 0) pass the same faces, so their builds share
    the face block of alpha = 0, kept under the empty face and its one star;
    each error names its own xi, and the degree that raised stays unbuilt."""
    fan = StackyFan(
        rank=2, rays=((1, 0), (0, 1), (-1, 0), (0, -1)), max_cones=((0, 1), (1, 2), (2, 3))
    )
    for xi in (1, 2, 1):
        spec = ModuleSpec(fan, (Fraction(0), Fraction(0)), xi=(Fraction(xi), Fraction(0)))
        message = rf"^quotient: the shadow direction xi=\({xi}, 0\) does not give a submodule"
        with pytest.raises(ShadowNotSubmodule, match=message):
            build_quotient(spec)
    assert list(fan._table.blocks) == [0]
    (stars,) = fan._table.blocks.values()
    (block,) = (entry["block"] for entry in stars.values())
    assert list(block.quot) == list(block.pieces) == [0]


def test_quotient_ending_below_the_volume(monkeypatch):
    # a volume above the true one: the quotient ends at dimension 2 below it
    monkeypatch.setattr(quotient, "normalized_volume", lambda fan: 3)
    message = (
        r"^quotient: the quotient ends at degree \d+ with dimension 2, "
        r"below the normalized volume 3$"
    )
    # a fresh copy, whose parameter memo holds no quotient built with the
    # true volume
    fan = dataclasses.replace(F1)
    with pytest.raises(NoStabilizationWindow, match=message):
        build_quotient(ModuleSpec(fan, (Fraction(1, 4), Fraction(0))))
