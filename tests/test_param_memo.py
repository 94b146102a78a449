"""The fan's parameter memo: collisions, stabilize, build_quotient and
graded_piece read through it equal the same calls on a fresh copy of the
fan; the memo keeps two parameters, and stabilize leaves
beta_delta's classes in it; one algebra_sweep-style sequence builds the box
set at beta and the quotient once, and none at beta_delta; solution_system reuses
the graded pieces already built; the shared quotient's maps are
read-only; each face block is kept per face under its star, the
passing faces that hold the face, two stars per face, and shared by
directions that agree there; and the memo's key, beta's form (linalg.Param),
is read once per public call, the same from every spelling of beta."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgamma.box as box
import boxgamma.cli as cli
import boxgamma.gkz as gkz
import boxgamma.kring as kring
import boxgamma.quotient as quotient
from boxgamma.box import box_of_fan, collisions, stabilize
from boxgamma.errors import DomainError
from boxgamma.fan import StackyFan, _tangent_test, triangulate_from_heights
from boxgamma.gkz import build_gkz, solution_system
from boxgamma.kring import spectrum, wall_report
from boxgamma.linalg import GaussianRational, Param, format_gaussian, parse_gaussian, read_param
from boxgamma.quotient import ModuleSpec, build_quotient, graded_piece

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
# every fan without its degree functional; F2 has none
FANS = {
    name: StackyFan(rank=f.rank, rays=f.rays, max_cones=f.max_cones)
    for name, f in (("F1", F1), ("F2", F2), ("SQUARE", SQUARE))
}

rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
beta_coord = st.one_of(rational, st.builds(GaussianRational, rational, rational))


def outcome(call):
    """call()'s result, or the type and text of the DomainError it raises."""
    try:
        return call()
    except DomainError as exc:
        return type(exc), str(exc)


def quotient_outcome(fan, chi, xi):
    def build():
        q = build_quotient(ModuleSpec(fan, chi, xi=xi))
        return q.alphas, repr(q), dict(q.summand_dims), q.bases

    return outcome(build)


def stages(fan, beta, chi, xi, m, order):
    calls = {
        "collisions": lambda: outcome(lambda: collisions(fan, beta)),
        "stabilize": lambda: outcome(lambda: stabilize(fan, beta)),
        "quotient": lambda: quotient_outcome(fan, chi, xi),
        "graded": lambda: outcome(lambda: graded_piece(ModuleSpec(fan, chi, xi), m)),
    }
    return {name: calls[name]() for name in order}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(FANS)), data=st.data())
def test_memo_matches_a_fresh_fan(name, data):
    fan = dataclasses.replace(FANS[name])  # an empty memo for each example
    drawn = []
    for _ in range(data.draw(st.integers(1, 4))):
        if drawn and data.draw(st.booleans()):
            beta = data.draw(st.sampled_from(drawn))
        else:
            beta = read_param([data.draw(beta_coord) for _ in range(fan.rank)], "box", "beta", fan.rank).values
            drawn.append(beta)
        xi = tuple(b.real for b in beta) if data.draw(st.booleans()) else None
        m = data.draw(st.integers(-1, 2))
        order = data.draw(st.permutations(["collisions", "stabilize", "quotient", "graded"]))
        fresh = dataclasses.replace(fan)
        chi = stabilize(fresh, beta).beta_delta
        assert stages(fan, beta, chi, xi, m, order) == stages(fresh, beta, chi, xi, m, order)


def test_memo_keeps_two_parameters():
    fan = dataclasses.replace(F1)
    params = fan._table.params
    for k in range(1, 7):
        beta = (GaussianRational(Fraction(1, k + 2), Fraction(1, 3)), Fraction(k, 5))
        # the memo is keyed by each parameter's form
        b = read_param(beta, "box", "beta", fan.rank)
        corr = stabilize(fan, beta)
        bd = Param.of(corr.beta_delta)
        # stabilize builds the box set at beta and writes the classes at
        # beta_delta, which the quotient reads
        assert list(params) == [b, bd]
        assert "collisions" in params[bd]
        build_quotient(ModuleSpec(fan, corr.beta_delta))
        spectrum(fan, beta)
        assert list(params) == [bd, b]
        # a third parameter drops the least recently used one
        box_of_fan(fan, (Fraction(k, 7), Fraction(0)))
        assert list(params) == [b, Param(7, (k, 0), (0, 0))]


@pytest.mark.parametrize(
    "fan,beta",
    [
        (SQUARE, (Fraction(1, 3), GaussianRational(Fraction(1, 5), Fraction(-1, 3)), Fraction(1, 2))),
        (F2, (Fraction(1, 3), Fraction(1, 5))),
    ],
)
def test_each_stage_built_once(monkeypatch, fan, beta):
    """box_of_fan, stabilize, build_quotient, spectrum and wall_report on one
    (fan, beta), as one algebra_sweep op runs them."""
    fan = dataclasses.replace(fan)
    branches = []
    quotients = []
    real_branches = box._cone_branches
    real_quotient = quotient._build_quotient

    def counting_branches(fan, cone, beta, common):
        branches.append((cone, beta))
        return real_branches(fan, cone, beta, common)

    def counting_quotient(spec):
        quotients.append(spec)
        return real_quotient(spec)

    monkeypatch.setattr(box, "_cone_branches", counting_branches)
    monkeypatch.setattr(quotient, "_build_quotient", counting_quotient)
    box_of_fan(fan, beta)
    corr = stabilize(fan, beta)
    q = build_quotient(ModuleSpec(fan, corr.beta_delta))
    points = spectrum(fan, beta)
    wall_report(fan, beta)
    # the box set at beta only: stabilize writes the classes at beta_delta
    b = read_param(beta, "box", "beta", fan.rank)
    assert branches == [(cone, b) for cone in fan.max_cones]
    assert quotients == [q.spec]
    assert sum(p.multiplicity for p in points) == q.dim


def test_solution_system_reuses_graded_pieces(monkeypatch):
    """Each graded piece is built once, in a memo of its own: the pieces at
    chi = 0 leave a parameter and its beta_delta in the parameter memo."""
    fan = dataclasses.replace(F1)
    instance = build_gkz(fan, (GaussianRational(Fraction(1, 4), Fraction(1, 3)), Fraction(0)))
    params = list(fan._table.params)
    beta_delta = instance.correspondence.beta_delta
    assert params == [Param.of(instance.beta), Param.of(beta_delta)]
    spec0 = ModuleSpec(instance.fan, (Fraction(0), Fraction(0)))
    built = []
    real_graded = quotient._graded_piece

    def counting_graded(spec, m):
        built.append(m)
        return real_graded(spec, m)

    monkeypatch.setattr(quotient, "_graded_piece", counting_graded)
    points = [p for m in range(2) for p in graded_piece(spec0, m).points]
    system = solution_system(instance, (1.0, 10.0, 1.0), 12, v_degree_cap=1)
    assert built == [0, 1]
    assert system.vs == tuple(points)
    assert list(fan._table.params) == params
    # the instance's fan is the fan itself, so its pieces are the fan's own
    assert instance.fan is fan
    assert graded_piece(ModuleSpec(fan, spec0.chi), 1) is graded_piece(spec0, 1)
    assert built == [0, 1]


def test_shared_quotient_maps_are_read_only():
    fan = dataclasses.replace(F1)
    q = build_quotient(ModuleSpec(fan, (Fraction(0), Fraction(0))))
    zero_key = ((Fraction(0), Fraction(0)),) * fan.k
    assert q.summand_dims == {zero_key: 2}
    assert q.bases == (0,)
    with pytest.raises(TypeError):
        q.summand_dims[zero_key] = 1
    assert build_quotient(ModuleSpec(fan, (Fraction(0), Fraction(0)))) is q


HEX5_POINTS = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
HEX5 = triangulate_from_heights(
    [(1,) + p for p in HEX5_POINTS],
    [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(HEX5_POINTS)],
)
LADDER = {**FANS, "HEX5": HEX5}


def quotient_fields(fan, chi, xi):
    """Every field of build_quotient's result and its read-only map as a
    dict, or the DomainError it raises."""

    def build():
        q = build_quotient(ModuleSpec(fan, chi, xi=xi))
        fields = {f.name: getattr(q, f.name) for f in dataclasses.fields(q)}
        return {**fields, "summand_dims": dict(q.summand_dims)}

    return outcome(build)


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(LADDER)), data=st.data())
def test_quotient_does_not_depend_on_memo_order(name, data):
    """The face blocks are shared by every parameter and every shadow
    direction with one star, the passing faces holding the block's face:
    whatever one fan's table built before, each quotient equals the one
    built on a fresh copy."""
    fan = dataclasses.replace(LADDER[name])
    kinds = st.sampled_from(["rational", "gaussian", "shadow"])
    # lattice points and halves put alpha on faces below the maximal cones,
    # where the shadow filter, and so the star of alpha's face, decides the block
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    coords = {"rational": st.one_of(small, rational), "gaussian": beta_coord, "shadow": small}
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=5)):
        beta = read_param([data.draw(coords[kind]) for _ in range(fan.rank)], "box", "beta", fan.rank).values
        chi = stabilize(dataclasses.replace(fan), beta).beta_delta
        xi = None
        if kind == "shadow":
            xi = tuple(Fraction(data.draw(st.integers(-2, 2))) for _ in range(fan.rank))
        assert quotient_fields(fan, chi, xi) == quotient_fields(dataclasses.replace(fan), chi, xi)


def test_face_blocks_keep_two_shadow_signatures():
    """Each face keeps its blocks under their last two shadow signatures,
    the stars T_S.  At chi = 0 the one box element is alpha = 0 on the empty
    face, whose star is every face the shadow filter passes: three
    directions with three passing sets leave the last two stars, and a
    block on another face evicts none of them."""
    fan = dataclasses.replace(F1)
    xis = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)))
    stars = [_tangent_test(fan, xi) for xi in xis]
    assert len(set(stars)) == 3
    for xi in xis:
        build_quotient(ModuleSpec(fan, (Fraction(0), Fraction(0)), xi=xi))
    assert list(fan._table.blocks) == [0]
    assert list(fan._table.blocks[0]) == stars[1:]
    # alpha = (0, 1/2, 0) lies on ray 2, the face 0b010
    build_quotient(ModuleSpec(fan, (Fraction(1, 2), Fraction(1, 2)), xi=xis[0]))
    assert list(fan._table.blocks) == [0, 0b010]
    assert list(fan._table.blocks[0]) == stars[1:]
    assert list(fan._table.blocks[0b010]) == [frozenset({0b010, 0b011, 0b110})]


def count_monomials(monkeypatch):
    """The degrees passed to _Summand._monomials from now on, in call order."""
    built = []
    real_monomials = quotient._Summand._monomials

    def counting_monomials(self, t):
        built.append(t)
        return real_monomials(self, t)

    monkeypatch.setattr(quotient._Summand, "_monomials", counting_monomials)
    return built


def test_directions_with_one_star_share_the_block(monkeypatch):
    """xi = (1, 0) and (0, 1) pass different sets of faces of F1, but the
    same faces holding ray 2, the face of the one box element at
    chi = (1/2, 1/2): the second build reads the first's block."""
    fan = dataclasses.replace(F1)
    chi = (Fraction(1, 2), Fraction(1, 2))
    first, second = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    assert _tangent_test(fan, first) != _tangent_test(fan, second)
    built = count_monomials(monkeypatch)
    build_quotient(ModuleSpec(fan, chi, xi=first))
    assert built
    built.clear()
    shared = quotient_fields(fan, chi, second)
    assert built == []
    assert shared == quotient_fields(dataclasses.replace(fan), chi, second)


def star_oracle(fan, xi, support):
    """The faces the shadow filter passes whose markers hold support."""
    markers = [{i for i in range(fan.k) if f >> i & 1} for f in _tangent_test(fan, xi)]
    return frozenset(sum(1 << i for i in face) for face in markers if set(support) <= face)


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(LADDER)), data=st.data())
def test_face_blocks_are_keyed_by_their_star(name, data):
    """After a build under xi1, each box element's block is kept under the
    passing faces holding its face, and it forms the monomials of a fresh
    block under xi2, in every degree up to the rank, when xi2 passes the
    same faces there."""
    fan = dataclasses.replace(LADDER[name])
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    chi = tuple(data.draw(st.one_of(small, rational)) for _ in range(fan.rank))
    xi1, xi2 = (
        tuple(Fraction(data.draw(st.integers(-2, 2))) for _ in range(fan.rank)) for _ in range(2)
    )
    outcome(lambda: build_quotient(ModuleSpec(fan, chi, xi=xi1)))
    fresh = dataclasses.replace(fan)
    for alpha in box_of_fan(fan, chi):
        star = star_oracle(fan, xi1, alpha.support)
        stars = fan._table.blocks[sum(1 << i for i in alpha.support)]
        block = stars[star]["block"]
        assert block.tangent == star
        if star_oracle(fan, xi2, alpha.support) == star:
            other = quotient._Summand(ModuleSpec(fresh, chi, xi2), alpha, _tangent_test(fresh, xi2))
            for t in range(fan.rank + 1):
                assert block._monomials(t) == other._monomials(t)


def test_second_parameter_builds_no_monomials(monkeypatch):
    """Two generic parameters on SQUARE have box elements on the same faces,
    so the second quotient only reads the face blocks of the first."""
    fan = dataclasses.replace(SQUARE)
    built = count_monomials(monkeypatch)
    first = build_quotient(ModuleSpec(fan, (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))))
    assert built
    built.clear()
    second = build_quotient(ModuleSpec(fan, (Fraction(2, 5), Fraction(-3, 7), Fraction(5, 4))))
    assert built == []
    assert second.dim == first.dim == 2


# (1/2, 1) in each spelling the reader accepts
HALF_ONE = Param(2, (1, 2), (0, 0))
SPELLINGS = (
    (Fraction(1, 2), 1),
    ("1/2", "1"),
    ("0.5", Fraction(1)),
    ({"re": "1/2", "im": 0}, {"re": 1}),
    (GaussianRational(Fraction(1, 2)), GaussianRational(1)),
)


def test_every_spelling_of_beta_reads_to_one_form():
    """One beta in five spellings is one form, so one memo entry: a real
    beta is its own beta_delta."""
    fan = dataclasses.replace(F1)
    for beta in SPELLINGS:
        assert read_param(beta, "box", "beta", fan.rank) == HALF_ONE
        collisions(fan, beta)
        stabilize(fan, beta)
    assert list(fan._table.params) == [HALF_ONE]


def test_a_form_reads_as_itself():
    """A Param passes through with its length checked; a rank-3 beta shaped
    like a form's fields is read as a vector, not as a form."""
    assert read_param(HALF_ONE, "box", "beta", 2) is HALF_ONE
    with pytest.raises(ValueError) as info:
        read_param(HALF_ONE, "box", "beta", 3)
    assert str(info.value) == "box: beta must have 3 coordinates, got 2"
    with pytest.raises(ValueError) as info:
        read_param((2, (1, 2), (0, 0)), "box", "beta", 3)
    assert str(info.value) == "box: entry 2 of beta is (1, 2), not a Gaussian rational"


@given(coords=st.lists(beta_coord, min_size=1, max_size=4))
def test_form_values_round_trip_through_text(coords):
    """values gives the canonical scalars of the form, which print as the
    coordinates do and read back to the same form."""
    form = Param.of(coords)
    assert Param.of(form.values) == form
    assert [format_gaussian(x) for x in form.values] == [format_gaussian(x) for x in coords]
    text = [format_gaussian(x) for x in form.values]
    assert [parse_gaussian(t) for t in text] == [GaussianRational(x.real, x.imag) for x in form.values]
    assert read_param(text, "box", "beta") == form


@pytest.mark.parametrize("entry", [spectrum, stabilize, build_gkz], ids=lambda f: f.__name__)
def test_each_public_entry_reads_beta_once(monkeypatch, entry):
    """The stages take beta's form, so a call reads beta once, on a fresh
    fan and on a warm one."""
    fan = dataclasses.replace(F1)
    beta = (GaussianRational(Fraction(1, 4), Fraction(1, 3)), "0")
    reads = []

    def counting(values, *rest):
        reads.append(values)
        return read_param(values, *rest)

    for module in (box, cli, gkz, kring, quotient):
        if hasattr(module, "read_param"):
            monkeypatch.setattr(module, "read_param", counting)
    for _ in range(2):
        reads.clear()
        entry(fan, beta)
        assert reads == [beta]


def test_a_form_not_in_lowest_terms_is_refused():
    """A caller's Param must be the form Param.of builds, so that equal
    vectors keep one memo entry: lowest terms over a positive den."""
    fan = dataclasses.replace(F1)
    bad = (Param(2, (2, 0), (0, 0)), Param(-1, (1, 0), (0, 0)), Param(0, (1, 0), (0, 0)), Param(1, (1, 0), (0,)))
    for form in bad:
        with pytest.raises(ValueError) as info:
            collisions(fan, form)
        assert str(info.value) == f"box: beta is {form!r}, not a form in lowest terms"
    assert not fan._table.params
    assert collisions(fan, Param(1, (1, 0), (0, 0))) is collisions(fan, (1, 0))
