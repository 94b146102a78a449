"""The fan's cone table against Fraction oracles.

Cones of dimension 1..d in Z^d, d <= 4: the table's coordinates and span
test against mat_inverse of the generators completed by unit vectors,
minimal_cone and tangent_member against a per-cone solve by that oracle,
facet normals and normalized_volume against det_rational, dependent
generators, and validate's violation strings on fans the table must not be
consulted for.  Also the quotient built from a stabilization's target set
against build_quotient."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxgamma.box import normalize_beta, stabilize
from boxgamma.errors import (
    DependentGenerators,
    DomainError,
    NotFullDimensional,
    NotInSpan,
    PointOutsideSupport,
)
from boxgamma.fan import (
    StackyFan,
    _cone_inverse,
    minimal_cone,
    normalized_volume,
    tangent_member,
    triangulate_from_heights,
    validate,
)
from boxgamma.linalg import GaussianRational, cone_inverse, im_part, re_part
from boxgamma.quotient import ModuleSpec, _stabilized_quotient, build_quotient
from exact_oracles import det_rational, mat_inverse

small_int = st.integers(-3, 3)
rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def oracle_coords(gens, p):
    """(coordinates, in span) of p by mat_inverse, or None for dependent
    generators.  The generators are completed to a basis by unit vectors; p
    is in their span iff its coordinates on the added vectors vanish."""
    d, m = len(gens[0]), len(gens)
    for extra in itertools.combinations(range(d), max(d - m, 0)):
        cols = [tuple(g) for g in gens] + [tuple(int(r == j) for r in range(d)) for j in extra]
        rows = [[c[r] for c in cols] for r in range(d)]
        if len(cols) != d or det_rational(rows) == 0:
            continue
        inv = mat_inverse(rows)
        parts = [
            [sum((a * part(x) for a, x in zip(row, p)), start=Fraction(0)) for row in inv]
            for part in (re_part, im_part)
        ]
        if any(any(part[m:]) for part in parts):
            return None, False
        return list(zip(parts[0][:m], parts[1][:m])), True
    return None


def as_parts(coords):
    return [(re_part(c), im_part(c)) for c in coords]


@st.composite
def cones_in_zd(draw):
    """m integer generators in Z^d, 1 <= m <= d <= 4; some dependent."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, d))
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
            cone_inverse(gens)
        with pytest.raises(DependentGenerators):
            _cone_inverse(fan, cone)
        assert fan._table.inverses == {}
        return
    coords, in_span = want
    try:
        got = _cone_inverse(fan, cone).coords(p)
    except NotInSpan:
        got = None
    assert (got is not None) == in_span
    assert fan._table.inverses[cone] == cone_inverse(gens)
    if in_span:
        assert as_parts(got) == coords
        assert all(type(c) is (GaussianRational if gaussian else Fraction) for c in got)
        assert got == cone_inverse(gens).coords(p)


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
    assert inv.den == abs(det) and inv.span == ()
    assert normalized_volume(fan) == abs(det)
    # row i vanishes on every generator but the i-th, where it is positive
    for i, row in enumerate(inv.rows):
        values = [sum(a * b for a, b in zip(row, g)) for g in gens]
        assert values == [inv.den * int(i == j) for j in range(d)]


@st.composite
def small_fans(draw):
    """1 to 3 cones of independent generators drawn from up to 6 markers in
    Z^d; the cones need not form a fan, as both sides solve cone by cone."""
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


def cone_point(draw, fan):
    """A point of one cone's span, with some coordinates zero or negative, or
    an arbitrary rational point."""
    if draw(st.booleans()):
        return [draw(rational) for _ in range(fan.rank)]
    cone = draw(st.sampled_from(fan.max_cones))
    coeff = st.one_of(st.just(Fraction(0)), rational.map(abs), rational)
    c = [draw(coeff) for _ in cone]
    return [sum((x * fan.rays[i][r] for x, i in zip(c, cone)), start=Fraction(0)) for r in range(fan.rank)]


def oracle_minimal_cone(fan, p):
    for cone in fan.max_cones:
        coords, in_span = oracle_coords(fan.gens(cone), p)
        if in_span and all(c >= 0 for c, _ in coords):
            return tuple(i for i, (c, _) in zip(cone, coords) if c != 0)
    return None


def oracle_tangent_member(fan, p, xi):
    in_support = False
    for cone in fan.max_cones:
        pc, p_in = oracle_coords(fan.gens(cone), p)
        if not p_in or any(c < 0 for c, _ in pc):
            continue
        in_support = True
        xc, x_in = oracle_coords(fan.gens(cone), xi)
        if x_in and all(a > 0 or b >= 0 for (a, _), (b, _) in zip(pc, xc)):
            return True
    if not in_support:
        raise PointOutsideSupport("outside")
    return False


@settings(max_examples=200, deadline=None)
@given(fan=small_fans(), data=st.data())
def test_minimal_cone_and_tangent_member_match_per_cone_solve(fan, data):
    p = cone_point(data.draw, fan)
    xi = cone_point(data.draw, fan)
    assert minimal_cone(fan, p) == oracle_minimal_cone(fan, p)
    try:
        want = oracle_tangent_member(fan, p, xi)
    except PointOutsideSupport:
        with pytest.raises(PointOutsideSupport):
            tangent_member(fan, p, xi)
    else:
        assert tangent_member(fan, p, xi) is want
    assert set(fan._table.inverses) <= set(fan.max_cones)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_reports_bad_cones_before_the_table(data):
    """Out-of-range and repeated indices are reported without a table entry;
    a dependent cone is reported as not simplicial and stores none."""
    d = data.draw(st.integers(1, 3))
    rays = data.draw(st.lists(st.tuples(*[small_int] * d), min_size=1, max_size=5))
    k = len(rays)
    index = st.integers(-1, k)
    cones = data.draw(st.lists(st.lists(index, min_size=1, max_size=d + 1), min_size=1, max_size=4))
    fan = StackyFan(rank=d, rays=tuple(rays), max_cones=tuple(tuple(c) for c in cones))
    want = []
    for cone in fan.max_cones:
        name = tuple(i + 1 for i in cone)
        if any(i < 0 or i >= k for i in cone):
            want.append(f"cone {name} has out-of-range indices")
        elif len(set(cone)) != len(cone):
            want.append(f"cone {name} repeats an index")
        elif oracle_coords(fan.gens(cone), [Fraction(0)] * d) is None:
            want.append(f"cone {name} is not simplicial")
    rep = validate(fan)
    assert [v for v in rep.violations if v.startswith("cone ")] == want
    good = {
        c for c in fan.max_cones
        if all(0 <= i < k for i in c) and len(set(c)) == len(c)
        and oracle_coords(fan.gens(c), [Fraction(0)] * d) is not None
    }
    assert set(fan._table.inverses) <= good
    assert validate(fan) is rep


def test_violation_strings_unchanged():
    fan = StackyFan(
        rank=2,
        rays=((1, 0), (0, 1), (2, 0)),
        max_cones=((0, 3), (1, 1), (0, 2), (0, 1)),
    )
    rep = validate(fan)
    assert rep.violations == (
        "cone (1, 4) has out-of-range indices",
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
    xi = tuple(re_part(b) for b in beta) if shadow else None
    got = quotient_outcome(lambda: _stabilized_quotient(fan, corr, xi))
    assert got == quotient_outcome(lambda: build_quotient(ModuleSpec(fan, corr.beta_delta, xi=xi)))


def quotient_outcome(build):
    try:
        q = build()
    except DomainError as exc:
        return type(exc), str(exc)
    return q.alphas, repr(q), q.summand_dims, q.base_index
