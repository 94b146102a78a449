"""The exact checks can fail: a perturbed ray operator fails the Euler check,
a window missing one offset fails the term-shift check, and malformed series
indices are rejected instead of being truncated or wrapped."""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgamma.gkz as gkz
from boxgamma.box import stabilize
from boxgamma.errors import NoBaseElement, NoParticularSolution
from boxgamma.fan import StackyFan, _marker_lattice, triangulate_from_heights, validate
from boxgamma.gkz import (
    build_gkz,
    enumerate_L,
    gamma_series,
    gamma_series_derivative,
    solution_system,
    verify_euler,
    verify_term_shift,
)
from boxgamma.kring import spectrum
from boxgamma.linalg import GaussianRational, hermite_normal_form
from boxgamma.quotient import ModuleSpec, build_quotient
from exact_oracles import FACE_FANS, draw_beta

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def cone_over(points):
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


HEX5 = cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)))
TRI2 = cone_over([(a, b) for a in range(3) for b in range(3 - a)])
X_F1 = (1.0, 10.0, 1.0)
# F1's markers on the one cone (0, 2): marker 1 lies in it but is no ray
F1_EXTENDED = StackyFan(rank=2, rays=F1.rays, max_cones=((0, 2),))
# three markers with 2 v_0 + v_2 = 3 v_1, on cones of volume 1 and 2
LINE3 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 3)), max_cones=((0, 1), (1, 2)))

CASES = {
    "F1 zero": (F1, (0, 0)),
    "F1 gaussian": (F1, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))),
    "SQUARE zero": (SQUARE, (0, 0, 0)),
    "HEX5 zero": (HEX5, (0, 0, 0)),
    "HEX5": (HEX5, (Fraction(2, 7), Fraction(3, 11), Fraction(5, 13))),
    "TRI2 zero": (TRI2, (0, 0, 0)),
}
# at beta = 0 every ray operator has a nonzero entry; at a generic beta all are zero
RESONANT = ("F1 zero", "SQUARE zero", "HEX5 zero", "TRI2 zero")


@functools.cache
def instance(name):
    return build_gkz(*CASES[name])


def dense_euler(instance):
    """The Euler check summing every entry of every ray operator."""
    q = instance.quotient
    fan = instance.fan
    dim = q.dim
    for r in range(fan.rank):
        acc = [[Fraction(0)] * dim for _ in range(dim)]
        for i in fan.fan_indices():
            coef = fan.rays[i][r]
            if coef == 0:
                continue
            mat = q.dmats[i]
            for a in range(dim):
                for b in range(dim):
                    acc[a][b] += coef * mat[a][b]
        if any(any(x != 0 for x in row) for row in acc):
            return False
    return True


def with_dmats(instance, dmats):
    """The instance whose quotient stores the nonzero entries of dmats, the
    dense matrices given, as its ray operators."""
    entries = tuple(
        tuple((a, b, x) for a, row in enumerate(mat) for b, x in enumerate(row) if x) for mat in dmats
    )
    quotient = dataclasses.replace(instance.quotient, entries=entries)
    return dataclasses.replace(instance, quotient=quotient)


def with_entries(instance, changes):
    """The instance with D_i[a][b] += delta for each (i, a, b, delta)."""
    dmats = [list(map(list, mat)) for mat in instance.quotient.dmats]
    for i, a, b, delta in changes:
        dmats[i][a][b] += delta
    return with_dmats(instance, (tuple(map(tuple, mat)) for mat in dmats))


@pytest.mark.parametrize("name", RESONANT)
def test_euler_fails_on_one_perturbed_entry(name):
    inst = instance(name)
    assert verify_euler(inst)
    for i in sorted(inst.fan.fan_indices()):
        mat = inst.quotient.dmats[i]
        nonzero = [(a, b) for a, row in enumerate(mat) for b, x in enumerate(row) if x]
        assert nonzero
        for a, b in nonzero[:1] + nonzero[-1:]:
            assert not verify_euler(with_entries(inst, [(i, a, b, Fraction(1, 3))]))


def test_euler_fails_on_a_perturbed_non_ray_marker():
    """The Euler operators sum over every marker, so D_1 of F1_EXTENDED,
    whose marker 1 is no ray, must vanish too."""
    inst = build_gkz(F1_EXTENDED, (Fraction(1, 3), Fraction(1, 5)))
    assert 1 not in inst.fan.fan_indices() and verify_euler(inst)
    assert not verify_euler(with_entries(inst, [(1, 0, 0, Fraction(1, 3))]))


def test_euler_sums_cancel_across_denominators():
    """(1/3) v_0 + (1/6) v_2 - (1/2) v_1 = 0 on LINE3's markers, so those
    entries at one (a, b) cancel in both functionals, but only as rationals
    over three denominators; -1/3 in place of -1/2 is a near miss."""
    inst = build_gkz(LINE3, (Fraction(1, 3), Fraction(1, 5)))
    assert verify_euler(inst)
    for a, b in ((0, 0), (0, inst.quotient.dim - 1)):
        for miss, want in ((Fraction(-1, 2), True), (Fraction(-1, 3), False)):
            changes = [(0, a, b, Fraction(1, 3)), (2, a, b, Fraction(1, 6)), (1, a, b, miss)]
            assert verify_euler(with_entries(inst, changes)) is want


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), data=st.data())
def test_sparse_euler_agrees_with_dense(name, data):
    """Unchanged, scaled, and with one or two entries moved; two opposite
    moves cancel in the sums of some functionals but not of others."""
    inst = instance(name)
    kind = data.draw(st.sampled_from(("none", "scale", "one", "two")))
    value = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 4)))
    entry = st.tuples(
        st.sampled_from(sorted(inst.fan.fan_indices())),
        st.integers(0, inst.quotient.dim - 1),
        st.integers(0, inst.quotient.dim - 1),
    )
    if kind == "scale":
        dmats = inst.quotient.dmats
        scaled = (tuple(tuple(value * x for x in row) for row in mat) for mat in dmats)
        inst = with_dmats(inst, scaled)
    elif kind == "one":
        inst = with_entries(inst, [data.draw(entry) + (value,)])
    elif kind == "two":
        inst = with_entries(inst, [data.draw(entry) + (value,), data.draw(entry) + (-value,)])
    assert verify_euler(inst) == dense_euler(inst)


@pytest.mark.parametrize("name", sorted(FACE_FANS))
@settings(max_examples=9, deadline=None)
@given(kind=st.sampled_from(("zero", "rational", "gaussian")), data=st.data())
def test_the_dense_view_shows_the_entries_and_no_library_path_builds_it(name, kind, data):
    """On the ladder and the P(w), the nonzeros of the dense view dmats are
    exactly the stored entries, each (row, column) once and in order.  The
    library reads the entries alone: build_gkz, verify_euler,
    solution_system and gamma_series_derivative on an eligible fan, and
    spectrum on the others, leave the view unbuilt."""
    fan = dataclasses.replace(FACE_FANS[name])  # a fresh table: no earlier read built a view
    beta = draw_beta(data, fan.rank, kind)
    if validate(fan).gkz_eligible:
        inst = build_gkz(fan, beta)
        q = inst.quotient
        assert verify_euler(inst)
        x = tuple(1 + i / 10 for i in range(fan.k))
        try:
            solution_system(inst, x, 2, 1)
            gamma_series_derivative(inst, (0,) * fan.rank, x, 2, min(fan.fan_indices()))
        except NoBaseElement:
            pass
    else:
        spectrum(fan, beta)
        q = build_quotient(ModuleSpec(fan, stabilize(fan, beta).beta_delta))
    assert "dmats" not in vars(q)
    assert len(q.entries) == fan.k
    assert all(list(entries) == sorted({e[:2]: e for e in entries}.values()) for entries in q.entries)
    stored = {(i, a, b, x) for i, entries in enumerate(q.entries) for a, b, x in entries}
    assert stored == {
        (i, a, b, x) for i, mat in enumerate(q.dmats) for a, row in enumerate(mat) for b, x in enumerate(row) if x
    }
    assert {type(x) for mat in q.dmats for row in mat for x in row} == {Fraction}


def test_term_shift_fails_when_a_window_drops_an_offset(monkeypatch):
    v, j, B = (0, 0), 2, 8
    assert verify_term_shift(build_gkz(F1, (0, 0)), v, j, B)
    # a copy of F1 has an empty window table, so the mutant scan is what is read
    inst = build_gkz(dataclasses.replace(F1), (0, 0))
    ((src, _, _),) = inst.correspondence.triples
    # the right-hand window, at v + v_j, loses one offset of its core
    v2 = tuple(a + b for a, b in zip(v, F1.rays[j]))
    target = tuple(-a - n for a, n in zip(v2, src.lattice_point))
    h, u, _ = _marker_lattice(F1)
    part = tuple(gkz.solve_with_hnf(h, u, target))
    real = gkz._window_offsets

    def dropping(p, plan, bound):
        offsets, norms = real(p, plan, bound)
        if tuple(p) != part:
            return offsets, norms
        drop = next(i for i, n in enumerate(norms) if n < bound)
        return offsets[:drop] + offsets[drop + 1 :], norms[:drop] + norms[drop + 1 :]

    monkeypatch.setattr(gkz, "_window_offsets", dropping)
    assert verify_term_shift(inst, v, j, B).ok is False


def test_non_integral_index_rejected():
    inst = instance("F1 zero")
    calls = (
        lambda v: gamma_series(inst, v, X_F1, 4),
        lambda v: gamma_series_derivative(inst, v, X_F1, 4, 1),
        lambda v: enumerate_L(inst, inst.correspondence.triples[0][0], v, 4),
        lambda v: verify_term_shift(inst, v, 1, 4),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^series: entry 1 of v is 0\.5, not an integer$"):
            call((0.5, 0))
        with pytest.raises(ValueError, match="series: entry 2 of v"):
            call((0, Fraction(1, 3)))
        for x, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
            with pytest.raises(ValueError, match=rf"^series: entry 2 of v is {shown}, not an integer$"):
                call((0, x))
        with pytest.raises(ValueError, match="^series: v must have 2 coordinates, got 3$"):
            call((0, 0, 0))
    # integral values of any numeric type index as the integers they equal
    assert gamma_series(inst, (0.0, Fraction(1)), X_F1, 4) == gamma_series(inst, (0, 1), X_F1, 4)
    assert verify_term_shift(inst, (Fraction(0), 0.0), 1, 4) == verify_term_shift(inst, (0, 0), 1, 4)


@pytest.mark.parametrize("j", [-1, 3, 7])
def test_ray_index_outside_the_fan_rejected(j):
    inst = instance("F1 zero")
    message = rf"^series: j={j} is not a ray index of the fan; expected one of \[0, 1, 2\]$"
    with pytest.raises(ValueError, match=message):
        verify_term_shift(inst, (0, 0), j, 4)
    with pytest.raises(ValueError, match=message):
        gamma_series_derivative(inst, (0, 0), X_F1, 4, j)


def test_ray_index_is_read_as_the_integer_it_equals():
    """j = 1.0 indexes ray 1, as B and v are read; a j that equals no
    integer, a bool included, is named, not used as a tuple index."""
    inst = instance("F1 zero")
    assert verify_term_shift(inst, (0, 0), 1.0, 4) == verify_term_shift(inst, (0, 0), 1, 4)
    got = gamma_series_derivative(inst, (0, 0), X_F1, 4, 1.0)
    assert repr(got) == repr(gamma_series_derivative(inst, (0, 0), X_F1, 4, 1))
    for j in (1.5, True):
        message = rf"^series: j is {j!r}, not an integer$"
        with pytest.raises(ValueError, match=message):
            verify_term_shift(inst, (0, 0), j, 4)
        with pytest.raises(ValueError, match=message):
            gamma_series_derivative(inst, (0, 0), X_F1, 4, j)


def faulty_lattice(**parts):
    """build_gkz on a fresh F1, its table's marker lattice then replaced in
    the given parts (h, u, relations); validate has read the true one."""
    fan = dataclasses.replace(F1)
    inst = build_gkz(fan, (0, 0))
    lattice = dict(zip(("h", "u", "relations"), _marker_lattice(fan)), **parts)
    fan._table.lattice = tuple(lattice.values())
    return inst


def test_unreachable_target_names_the_window_stage():
    # markers spanning only 2N: odd targets have no particular solution
    h, u = hermite_normal_form([tuple(2 * x for x in ray) for ray in F1.rays])
    degenerate = faulty_lattice(h=h, u=u)
    ((src, _, _),) = degenerate.correspondence.triples
    with pytest.raises(NoParticularSolution) as err:
        verify_term_shift(degenerate, (1, 0), 0, 4)
    assert str(err.value) == (
        f"window: markers do not reach the target (-1, 0) of v=(1, 0), "
        f"n={src.lattice_point}; the marker lattice is degenerate"
    )


def test_window_bound_is_validated_before_any_cache():
    """An integral bound of any type means the integer it equals, whichever
    type reaches a fresh instance first; anything else names the window."""
    want = repr(gamma_series(build_gkz(F1, (0, 0)), (0, 0), X_F1, 4))
    for first, second in ((4.0, 4), (4, 4.0), (Fraction(8, 2), 4.0)):
        inst = build_gkz(F1, (0, 0))
        assert repr(gamma_series(inst, (0, 0), X_F1, first)) == want
        assert repr(gamma_series(inst, (0, 0), X_F1, second)) == want
    inst = instance("F1 zero")
    src = inst.correspondence.triples[0][0]
    assert enumerate_L(inst, src, (0, 0), 4.0) == enumerate_L(inst, src, (0, 0), 4)
    shift = verify_term_shift(inst, (0, 0), 1, 4)
    assert verify_term_shift(inst, (0, 0), 1, Fraction(4)) == shift
    calls = (
        lambda B: gamma_series(inst, (0, 0), X_F1, B),
        lambda B: gamma_series_derivative(inst, (0, 0), X_F1, B, 1),
        lambda B: enumerate_L(inst, src, (0, 0), B),
        lambda B: verify_term_shift(inst, (0, 0), 1, B),
    )
    for call in calls:
        for B, shown in (
            (4.5, r"4\.5"),
            (-1, "-1"),
            (Fraction(7, 2), r"Fraction\(7, 2\)"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
        ):
            with pytest.raises(ValueError, match=rf"^window: the bound B is {shown}, not a "):
                call(B)


def test_solution_system_rejects_a_bad_degree_cap():
    """A negative or non-integral cap would leave no index point, an empty
    system that reads as a result."""
    inst = instance("F1 zero")
    for cap, shown in ((-1, "-1"), (1.5, r"1\.5"), (math.inf, "inf"), (math.nan, "nan")):
        message = rf"^solution_system: v_degree_cap is {shown}, not a nonnegative integer$"
        with pytest.raises(ValueError, match=message):
            solution_system(inst, X_F1, 4, cap)
    assert solution_system(inst, X_F1, 4, 1.0) == solution_system(inst, X_F1, 4, 1)


def test_window_scan_rejects_a_relation_of_nonzero_degree():
    # the degree bound reads sum(m) = sum(part) off relations summing to 0
    with pytest.raises(ValueError, match=r"^window: relation row \(1, 1, -1\) sums to 1, not 0"):
        gkz._window_plan(((1, 1, -1),), 3)
    skewed = faulty_lattice(relations=((1, -2, 2),))
    with pytest.raises(ValueError, match=r"^window: relation row \(1, -2, 2\) sums to 1"):
        verify_term_shift(skewed, (0, 0), 1, 4)
