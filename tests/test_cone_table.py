"""The fan's cone table against Fraction oracles.

Cones of 0..d + 1 generators in Z^d, d <= 4: the table's coordinates and
span test against mat_inverse of the generators completed by unit vectors,
the minimal face of a point and whether the shadow filter's set of passing
faces holds it against a per-cone solve by that oracle (the filter on fans
validate accepts; on the rest it raises InvalidFan), that set against the
oracle on every face of the ladder's fans and against each maximal cone's
subsets, its one solve of xi per maximal cone, facet normals and den
against mat_inverse, normalized_volume and the Hermite diagonal's product
against det_rational, dependent generators, and validate's violation
strings on fans the table must not be consulted for.  The face table's
keys and covers, and the monomials the quotient's blocks walk from the
covers against compositions over each maximal cone holding the support.
Also the quotient at a stabilization's target, built through the fan's
parameter memo, against one built on a fresh copy of the fan."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxgamma.box import box_of_fan, normalize_beta, stabilize
from boxgamma.errors import (
    DegenerateHeights,
    DependentGenerators,
    DomainError,
    InvalidFan,
    NotFullDimensional,
)
from boxgamma.fan import (
    StackyFan,
    _cone_inverse,
    _cone_residues,
    _faces,
    _mask,
    _minimal_face,
    _tangent_test,
    normalized_volume,
    triangulate_from_heights,
    validate,
)
from boxgamma.linalg import (
    ConeInverse,
    GaussianRational,
    cone_inverse,
    scaled_numerators,
)
from boxgamma.quotient import ModuleSpec, _Summand, build_quotient, graded_piece
from exact_oracles import (
    NotInSpan,
    all_pairs_report,
    cone_coords,
    det_rational,
    mat_inverse,
    oracle_coords,
    oracle_minimal_cone,
    oracle_tangent_member,
    scanned_graded_piece,
    subset_tangent_test,
    witness_monomials,
)

small_int = st.integers(-3, 3)
rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def as_parts(coords):
    return [(c.real, c.imag) for c in coords]


@st.composite
def cones_in_zd(draw):
    """m integer generators in Z^d, d <= 4 and 0 <= m <= d + 1: the empty
    cone, and dependent sets, every one of d + 1 and some drawn as a
    combination."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, d + 1))
    gens = [tuple(draw(small_int) for _ in range(d)) for _ in range(m)]
    if m > 1 and draw(st.integers(0, 3)) == 0:
        a, b = draw(small_int), draw(small_int)
        gens[-1] = tuple(a * x + b * y for x, y in zip(gens[0], gens[-2]))
    return d, gens


@st.composite
def points(draw, d, gens, gaussian):
    """A point in the span (a rational or Gaussian combination of gens) or
    an arbitrary one, which for m < d is usually outside it."""
    if draw(st.booleans()):
        c_re = [draw(rational) for _ in gens]
        c_im = [draw(rational) if gaussian else Fraction(0) for _ in gens]
        re = [sum((c * g[r] for c, g in zip(c_re, gens)), start=Fraction(0)) for r in range(d)]
        im = [sum((c * g[r] for c, g in zip(c_im, gens)), start=Fraction(0)) for r in range(d)]
    else:
        re = [draw(rational) for _ in range(d)]
        im = [draw(rational) if gaussian else Fraction(0) for _ in range(d)]
    if gaussian:
        return [GaussianRational(a, b) for a, b in zip(re, im)]
    return re


@settings(max_examples=250, deadline=None)
@given(case=cones_in_zd(), data=st.data(), gaussian=st.booleans())
def test_table_coordinates_match_mat_inverse(case, data, gaussian):
    d, gens = case
    p = data.draw(points(d, gens, gaussian))
    fan = StackyFan(rank=d, rays=tuple(gens), max_cones=(tuple(range(len(gens))),))
    cone = fan.max_cones[0]
    want = oracle_coords(gens, p)
    if want is None:
        with pytest.raises(DependentGenerators):
            cone_inverse(gens, d)
        with pytest.raises(DependentGenerators):
            _cone_inverse(fan, cone)
        assert fan._table.inverses == {}
        return
    coords, in_span = want
    try:
        got = cone_coords(_cone_inverse(fan, cone), p)
    except NotInSpan:
        got = None
    assert (got is not None) == in_span
    assert fan._table.inverses[cone] == cone_inverse(gens, d)
    if in_span:
        assert as_parts(got) == coords
        assert all(type(c) is (GaussianRational if gaussian else Fraction) for c in got)
        assert got == cone_coords(cone_inverse(gens, d), p)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_full_cone_rows_are_facet_normals(data):
    d = data.draw(st.integers(1, 4))
    gens = [tuple(data.draw(small_int) for _ in range(d)) for _ in range(d)]
    det = det_rational([[g[r] for g in gens] for r in range(d)])
    fan = StackyFan(rank=d, rays=tuple(gens), max_cones=(tuple(range(d)),))
    if det == 0:
        with pytest.raises(NotFullDimensional):
            normalized_volume(fan)
        return
    inv = _cone_inverse(fan, fan.max_cones[0])
    want = mat_inverse([[g[r] for g in gens] for r in range(d)])
    # den is the least: the inverse's common denominator, a divisor of |det|
    assert inv.den == math.lcm(*(x.denominator for row in want for x in row)) and inv.span == ()
    assert abs(det) % inv.den == 0
    assert [[Fraction(x, inv.den) for x in row] for row in inv.rows] == want
    assert normalized_volume(fan) == math.prod(_cone_residues(fan, fan.max_cones[0])) == abs(det)
    # row i vanishes on every generator but the i-th, where it is positive
    for i, row in enumerate(inv.rows):
        values = [sum(a * b for a, b in zip(row, g)) for g in gens]
        assert values == [inv.den * int(i == j) for j in range(d)]


@st.composite
def small_fans(draw):
    """1 to 3 cones of independent generators drawn from up to 6 markers in
    Z^d; the cones need not form a fan."""
    d = draw(st.integers(1, 4))
    rays = draw(st.lists(st.tuples(*[small_int] * d), min_size=1, max_size=6, unique=True))
    subsets = [
        c
        for m in range(1, d + 1)
        for c in itertools.combinations(range(len(rays)), m)
        if oracle_coords([rays[i] for i in c], [Fraction(0)] * d) is not None
    ]
    assume(subsets)
    cones = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=3, unique=True))
    return StackyFan(rank=d, rays=tuple(rays), max_cones=tuple(cones))


@st.composite
def regular_subfans(draw):
    """A nonempty subset of the cells of a regular triangulation of up to 7
    points (1, p), p in [-2, 2]^(d-1): always a fan, with several cones and
    often a support that is not convex."""
    d = draw(st.integers(2, 3))
    pts = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * (d - 1)), min_size=d + 1, max_size=7, unique=True)
    )
    heights = draw(st.lists(rational, min_size=len(pts), max_size=len(pts)))
    try:
        fan = triangulate_from_heights([(1,) + p for p in pts], heights)
    except (DegenerateHeights, ValueError):
        assume(False)
    cones = draw(st.lists(st.sampled_from(fan.max_cones), min_size=1, unique=True))
    return StackyFan(rank=d, rays=fan.rays, max_cones=tuple(cones))


@st.composite
def mixed_triangulations(draw):
    """Some cells of each of two regular triangulations of one point set
    (1, p), p in [-1, 1]^2 or in {0, 1}^3.  Many of these points are
    collinear or coplanar, so cells of the two often overlap while sharing
    markers, and a marker of one often lies on a facet hyperplane of the
    other."""
    d = draw(st.integers(3, 4))
    grid = list(itertools.product(*[range(-1, 2) if d == 3 else range(2)] * (d - 1)))
    pts = draw(st.lists(st.sampled_from(grid), min_size=d + 1, unique=True))
    cones = {}
    for _ in range(2):
        heights = draw(st.lists(rational, min_size=len(pts), max_size=len(pts)))
        try:
            fan = triangulate_from_heights([(1,) + p for p in pts], heights)
        except (DegenerateHeights, ValueError):
            assume(False)
        cells = draw(st.lists(st.sampled_from(fan.max_cones), min_size=1, unique=True))
        cones.update(dict.fromkeys(cells))
    return StackyFan(rank=d, rays=fan.rays, max_cones=tuple(cones))


@pytest.mark.deep
@settings(deadline=None)
@given(fan=st.one_of(small_fans(), regular_subfans(), mixed_triangulations()))
def test_validate_matches_the_all_pairs_path(fan):
    """The feasibility test decides each pair as the Fraction extreme rays
    of its intersection do: the report on a fresh fan equals the all-pairs
    report field for field, violation text and order included."""
    assert validate(dataclasses.replace(fan)) == all_pairs_report(fan)


def cone_point(draw, fan):
    """A point of one cone's span, with some coordinates zero or negative, or
    an arbitrary rational point."""
    if draw(st.booleans()):
        return [draw(rational) for _ in range(fan.rank)]
    cone = draw(st.sampled_from(fan.max_cones))
    coeff = st.one_of(st.just(Fraction(0)), rational.map(abs), rational)
    c = [draw(coeff) for _ in cone]
    return [sum((x * fan.rays[i][r] for x, i in zip(c, cone)), start=Fraction(0)) for r in range(fan.rank)]


@settings(max_examples=300, deadline=None)
@given(fan=st.one_of(small_fans(), regular_subfans()), data=st.data())
def test_minimal_cone_and_tangent_member_match_per_cone_solve(fan, data):
    """p's minimal face, read from p's integer numerators, and whether the
    shadow filter passes that face, against the per-cone oracle."""
    p = cone_point(data.draw, fan)
    xi = cone_point(data.draw, fan)
    face = _minimal_face(fan, scaled_numerators(p)[1])
    assert face == oracle_minimal_cone(fan, p)
    if not validate(fan).valid:
        # the face rule is exact only on a fan
        with pytest.raises(InvalidFan, match="^fan: "):
            _tangent_test(fan, xi)
    elif face is None:
        assert oracle_tangent_member(fan, p, xi) is None
    else:
        assert (_mask(face) in _tangent_test(fan, xi)) is oracle_tangent_member(fan, p, xi)
    assert set(fan._table.inverses) <= set(fan.max_cones)


def test_shadow_filter_refuses_overlapping_cones():
    """cone((1,0),(0,1)) and cone((1,1),(1,-1)) overlap.  At p = (2,0) with
    xi = (0,-1) the per-cone rule passes p in the second cone, where it is
    interior, while the face rule reads p's minimal face {1} of the first
    cone, whose only maximal cone does not contain xi's direction.  So a
    shadow piece raises at every degree, an empty one (m = -1) too; without
    xi the pieces equal the bounding-box scan, each point listed once."""
    rays = ((1, 0), (0, 1), (1, 1), (1, -1))
    fan = StackyFan(rank=2, rays=rays, max_cones=((0, 1), (2, 3)))
    p, xi = (2, 0), (0, -1)
    assert oracle_tangent_member(fan, p, xi) is True
    first = StackyFan(rank=2, rays=rays, max_cones=((0, 1),))
    assert _minimal_face(first, p) == (0,) and _mask((0,)) not in _tangent_test(first, xi)
    overlap = r"^fan: .*cones \(1, 2\) and \(3, 4\) do not intersect in a common face$"
    with pytest.raises(InvalidFan, match=overlap):
        _tangent_test(fan, xi)
    chi = (Fraction(1, 3), Fraction(1, 5))
    with pytest.raises(InvalidFan, match=overlap):
        build_quotient(ModuleSpec(fan, chi, xi))
    # a degree functional positive on the markers; it cannot be 1 on all four
    graded = dataclasses.replace(fan, deg=(2, 1))
    for m in (-1, 2):
        with pytest.raises(InvalidFan, match=overlap):
            graded_piece(ModuleSpec(graded, (0, 0), xi), m)
    # quotients without a shadow direction do not need a fan; (1, 1) lies in
    # both cones, so two box elements give it, and the piece lists it once
    spec = ModuleSpec(graded, chi)
    for m in range(4):
        assert graded_piece(spec, m) == scanned_graded_piece(spec, m)
    piece = graded_piece(ModuleSpec(graded, (0, 0)), 3)
    assert piece == scanned_graded_piece(ModuleSpec(graded, (0, 0)), 3)
    assert piece.points.count((1, 1)) == 1
    assert build_quotient(ModuleSpec(fan, chi)).alphas


def test_shadow_filter_needs_a_fan_not_a_degree_one_functional():
    """deg = 1 on the markers is GKZ eligibility, not a fan axiom: F1 with
    deg (2, 0) is a valid fan, its shadow pieces are the lattice points the
    per-cone oracle keeps, and its shadow quotient builds as before."""
    fan = dataclasses.replace(F1, deg=(2, 0))
    rep = validate(fan)
    assert rep.valid and rep.violations == ()
    assert not rep.gkz_eligible and rep.gkz_notes == ("deg is not 1 on marker 1",)
    # xi leaves the support through the base ray, so points on it drop out
    chi, xi = (Fraction(1, 3), 0), (0, -1)
    box = list(itertools.product(range(-6, 7), repeat=2))
    for m in range(6):
        on = [n for n in box if 2 * n[0] == m and oracle_minimal_cone(fan, [n[0] + chi[0], n[1]]) is not None]
        kept = [n for n in on if oracle_tangent_member(fan, [n[0] + chi[0], n[1]], xi)]
        assert graded_piece(ModuleSpec(fan, chi), m).points == tuple(on)
        assert graded_piece(ModuleSpec(fan, chi, xi), m).points == tuple(kept)
        assert len(kept) == len(on) - (m % 2 == 0)
    lattice = lambda q: [b.lattice_point for b in q.basis]
    assert lattice(build_quotient(ModuleSpec(fan, chi))) == [(1, 2), (0, 0)]
    assert lattice(build_quotient(ModuleSpec(fan, chi, xi))) == [(1, 2), (1, 1)]


def cone_over(points):
    """The ladder's cones over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


def weighted_projective(*weights):
    """Complete fan of P(1, w_1, ..., w_n)."""
    n = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(int(r == i) for r in range(n)) for i in range(n)]
    cones = tuple(itertools.combinations(range(n + 1), n))
    return StackyFan(rank=n, rays=tuple(rays), max_cones=cones)


LADDER = {
    "F1": F1,
    "F2": F2,
    "SQUARE": SQUARE,
    "HEX5": cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))),
    "tri2": cone_over([(a, b) for a in range(3) for b in range(3 - a)]),
    "simplex3x2": cone_over([p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2]),
    "P(1,2,3)": weighted_projective(1, 2, 3),
    "P(1,1,2,3)": weighted_projective(1, 1, 2, 3),
}


def draw_xi(data, fan):
    """xi = 0, xi on a wall of a maximal cone (its coordinate on one
    generator zero) or any xi."""
    kind = data.draw(st.sampled_from(["zero", "wall", "any"]))
    xi = [Fraction(0)] * fan.rank
    if kind == "wall":
        cone = data.draw(st.sampled_from(fan.max_cones))
        drop = data.draw(st.sampled_from(cone))
        coeff = st.one_of(st.just(Fraction(0)), rational)
        for i in cone:
            c = Fraction(0) if i == drop else data.draw(coeff)
            xi = [x + c * v for x, v in zip(xi, fan.rays[i])]
    elif kind == "any":
        xi = [data.draw(rational) for _ in range(fan.rank)]
    return xi


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(LADDER)), data=st.data())
def test_tangent_faces_match_the_per_cone_oracle(name, data):
    """_tangent_test's set holds exactly the faces F whose point
    sum_{i in F} v_i the per-cone oracle passes, for each kind of xi
    draw_xi draws."""
    fan = dataclasses.replace(LADDER[name])
    xi = draw_xi(data, fan)
    passing = _tangent_test(fan, xi)
    faces = {f for c in fan.max_cones for r in range(len(c) + 1) for f in itertools.combinations(c, r)}
    for face in faces:
        p = [Fraction(sum(fan.rays[i][r] for i in face)) for r in range(fan.rank)]
        assert (sum(1 << i for i in face) in passing) is oracle_tangent_member(fan, p, xi)
    assert passing <= _faces(fan).keys()


# LADDER with the ladder's tri3 and the other P(w) of bench/ladder.py
FACE_FANS = {
    **LADDER,
    "tri3": cone_over([(a, b) for a in range(4) for b in range(4 - a)]),
    "P(1,3,5)": weighted_projective(1, 3, 5),
    "P(1,5,7)": weighted_projective(1, 5, 7),
    "P(1,2,3,5)": weighted_projective(1, 2, 3, 5),
    "P(1,3,4,7)": weighted_projective(1, 3, 4, 7),
}


@st.composite
def face_table_fans(draw):
    """A fan of FACE_FANS, or a sub-fan of a regular triangulation, drawn
    as test_fan.test_coverage_note_matches_volume_oracle draws it."""
    if draw(st.booleans()):
        return dataclasses.replace(FACE_FANS[draw(st.sampled_from(sorted(FACE_FANS)))])
    d = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(0, 2)] * (d - 1)), min_size=d, max_size=d + 3, unique=True))
    heights = draw(st.lists(st.integers(0, 10**6), min_size=len(points), max_size=len(points)))
    try:
        full = triangulate_from_heights([(1,) + p for p in points], heights)
    except DegenerateHeights:
        assume(False)
    cones = draw(st.lists(st.sampled_from(full.max_cones), min_size=1, unique=True))
    return StackyFan(rank=d, rays=full.rays, max_cones=tuple(cones))


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(fan=face_table_fans(), data=st.data())
def test_face_table_and_walk_match_the_witness_oracle(fan, data):
    """_faces maps exactly the subsets of the maximal cones, each to the
    union of the maximal cones holding it, and every summand block's
    monomials in degrees up to rank + 2 are the compositions over the
    maximal cones holding its support, with and without a shadow direction.
    chi is a drawn point of a drawn face, so alpha = 0 and supports below
    the maximal cones occur."""
    subsets = {f for c in fan.max_cones for r in range(len(c) + 1) for f in itertools.combinations(c, r)}
    faces = _faces(fan)
    assert faces.keys() == {_mask(f) for f in subsets}
    for face in subsets:
        holding = [c for c in fan.max_cones if set(face) <= set(c)]
        assert faces[_mask(face)] == _mask(set().union(*holding))
    face = data.draw(st.sampled_from(sorted(subsets)))
    coeff = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-5, 4)])
    coeffs = [data.draw(coeff) for _ in face]
    chi = tuple(sum((c * fan.rays[i][r] for c, i in zip(coeffs, face)), Fraction(0)) for r in range(fan.rank))
    xi = draw_xi(data, fan) if data.draw(st.booleans()) else None
    tangent = None if xi is None else _tangent_test(fan, xi)
    for alpha in box_of_fan(fan, chi):
        block = _Summand(ModuleSpec(fan, chi, xi), alpha, tangent)
        for t in range(fan.rank + 3):
            assert block._monomials(t) == witness_monomials(fan, alpha, t, tangent)


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(fan=st.one_of(face_table_fans(), regular_subfans()), data=st.data())
def test_shadow_filter_matches_the_subset_enumeration(fan, data):
    """_tangent_test, read off the face table, is the set the per-cone
    subset enumeration builds: for each maximal cone with xi in its span,
    every subset holding the generators where xi's coordinates are
    negative.  The fans are FACE_FANS (the ladder and the P(w)) and
    sub-fans of regular triangulations, whose supports are often not
    convex; xi is zero, on a wall of a maximal cone (coordinates zero,
    positive and negative) or any."""
    xi = draw_xi(data, fan)
    assert _tangent_test(fan, xi) == subset_tangent_test(fan, xi)


def test_shadow_quotient_solves_xi_once_per_maximal_cone(monkeypatch):
    """The shadow filter is a face test: one cone solve of xi per maximal
    cone, whatever the number of monomials it filters."""
    pts = [p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2]
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(pts)]
    fan = triangulate_from_heights([(1,) + p for p in pts], heights)
    calls = []
    real = ConeInverse.numerators

    def counting(self, nums):
        calls.append(1)
        return real(self, nums)

    monkeypatch.setattr(ConeInverse, "numerators", counting)
    beta = (Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5), Fraction(3, 11))
    q = build_quotient(ModuleSpec(fan, beta, beta))
    assert q.dim == normalized_volume(fan) == 8
    assert len(calls) == len(fan.max_cones) == 8


def test_graded_pieces_solve_each_xi_once(monkeypatch):
    """The shadow filter's faces are kept per xi in the fan's table, for the
    last two: graded pieces of degree 0 to 3 at two xi, read in turn, and
    the quotient at the first, solve each xi once per maximal cone."""
    fan = dataclasses.replace(LADDER["simplex3x2"])
    xis = ((Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5), Fraction(3, 11)), (0, 1, 0, -1))
    wanted = {tuple(scaled_numerators(tuple(map(Fraction, xi)))[1]): xi for xi in xis}
    solves = []
    real = ConeInverse.numerators

    def counting(self, nums):
        if tuple(nums) in wanted:
            solves.append(wanted[tuple(nums)])
        return real(self, nums)

    monkeypatch.setattr(ConeInverse, "numerators", counting)
    for m in range(4):
        for xi in xis:
            graded_piece(ModuleSpec(fan, (0,) * 4, xi), m)
    build_quotient(ModuleSpec(fan, xis[0], xis[0]))
    assert len(solves) == 2 * len(fan.max_cones) and set(solves) == set(xis)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_reports_bad_cones_before_the_table(data):
    """An out-of-range index is refused when the fan is built, naming the
    first such entry; a repeated index is reported without a table entry;
    a dependent cone is reported as not simplicial and stores none."""
    d = data.draw(st.integers(1, 3))
    rays = data.draw(st.lists(st.tuples(*[small_int] * d), min_size=1, max_size=5))
    k = len(rays)
    index = st.integers(-1, k)
    cones = data.draw(st.lists(st.lists(index, min_size=1, max_size=d + 1), min_size=1, max_size=4))
    outside = [(r, p) for r, c in enumerate(cones, 1) for p, i in enumerate(c, 1) if not 0 <= i < k]
    if outside:
        r, p = outside[0]
        with pytest.raises(ValueError) as info:
            StackyFan(rank=d, rays=tuple(rays), max_cones=tuple(tuple(c) for c in cones))
        assert str(info.value) == f"fan: entry {p} of cone {r} is out of range for {k} markers"
        return
    fan = StackyFan(rank=d, rays=tuple(rays), max_cones=tuple(tuple(c) for c in cones))
    want = []
    for cone in fan.max_cones:
        name = tuple(i + 1 for i in cone)
        if len(set(cone)) != len(cone):
            want.append(f"cone {name} repeats an index")
        elif oracle_coords(fan.gens(cone), [Fraction(0)] * d) is None:
            want.append(f"cone {name} is not simplicial")
    rep = validate(fan)
    assert [v for v in rep.violations if v.startswith("cone ")] == want
    good = {
        c for c in fan.max_cones
        if len(set(c)) == len(c) and oracle_coords(fan.gens(c), [Fraction(0)] * d) is not None
    }
    assert set(fan._table.inverses) <= good
    assert validate(fan) is rep


def test_violation_strings_unchanged():
    rays = ((1, 0), (0, 1), (2, 0))
    with pytest.raises(ValueError) as info:
        StackyFan(rank=2, rays=rays, max_cones=((0, 3), (1, 1), (0, 2), (0, 1)))
    assert str(info.value) == "fan: entry 2 of cone 1 is out of range for 3 markers"
    fan = StackyFan(rank=2, rays=rays, max_cones=((1, 1), (0, 2), (0, 1)))
    rep = validate(fan)
    assert rep.violations == (
        "cone (2, 2) repeats an index",
        "cone (1, 3) is not simplicial",
    )
    assert set(fan._table.inverses) == {(0, 1)}


beta_coord = st.one_of(rational, st.builds(GaussianRational, rational, rational))


@settings(max_examples=40, deadline=None)
@given(fan=st.sampled_from([F1, F2, SQUARE]), data=st.data(), shadow=st.booleans())
def test_quotient_from_stabilization_target(fan, data, shadow):
    beta = normalize_beta(fan, [data.draw(beta_coord) for _ in range(fan.rank)])
    corr = stabilize(fan, beta)
    xi = tuple(b.real for b in beta) if shadow else None
    got = quotient_outcome(lambda: build_quotient(ModuleSpec(fan, corr.beta_delta, xi=xi)))
    # a copy with an empty cone table builds the box set and quotient anew
    fresh = dataclasses.replace(fan)
    want = quotient_outcome(lambda: build_quotient(ModuleSpec(fresh, corr.beta_delta, xi=xi)))
    assert got == want


def quotient_outcome(build):
    try:
        q = build()
    except DomainError as exc:
        return type(exc), str(exc)
    return q.alphas, repr(q), q.summand_dims, q.bases
