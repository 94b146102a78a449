"""The fraction-free integer kernels against Fraction oracles: cone_inverse
of square generators (den times the inverse, den least) and the square
cone-coordinate solve against mat_inverse, the solve with
fewer generators than the rank and the library's integer RREF against a
Fraction Gauss-Jordan, Fourier-Motzkin feasibility against the same
elimination without Chernikov's rule, and validate's pair test, for cones
of any dimension, against the Fraction extreme rays of their intersection.
Also counts the box-set builds of stabilize and build_gkz and the collision
builds of the kring command."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import boxgamma.box as box
from boxgamma.box import stabilize
from boxgamma.cli import main
from boxgamma.errors import DependentGenerators
from boxgamma.fan import StackyFan, _meets_in_face, triangulate_from_heights
from boxgamma.gkz import build_gkz
from boxgamma.linalg import GaussianRational, _rref, cone_inverse, feasible, read_param
from exact_oracles import (
    NotInSpan,
    det_rational,
    fm_feasible,
    fraction_coords,
    fraction_intersection_rays,
    fraction_rref,
    mat_inverse,
    meets_in_face,
    solve_simplicial_coords,
)

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))

small_int = st.integers(-3, 3)
rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def square_matrices(draw, max_n=4):
    """n x n integer rows, n in 1..max_n; about a third are made singular by
    replacing a row with a combination of the others."""
    n = draw(st.integers(1, max_n))
    rows = [[draw(small_int) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        a, b = draw(small_int), draw(small_int)
        src = [rows[i] for i in range(n - 1)] or [[0] * n]
        rows[-1] = [a * x + b * y for x, y in zip(src[0], src[-1])]
    return rows


def frac_mat_vec(m, v):
    return [sum((a * b for a, b in zip(row, v)), start=Fraction(0)) for row in m]


@settings(max_examples=150, deadline=None)
@given(rows=square_matrices())
def test_cone_inverse_matches_fraction_inverse(rows):
    """cone_inverse of the columns of A: rows T with T * A = den * I, den the
    least common denominator of A's Fraction inverse, so the least positive
    integer that makes den * A^-1 integral, a divisor of |det A|."""
    n = len(rows)
    det = det_rational(rows)
    if det == 0:
        with pytest.raises(DependentGenerators):
            cone_inverse(list(zip(*rows)), n)
        return
    inv = cone_inverse(list(zip(*rows)), n)
    t, den = inv.rows, inv.den
    want = mat_inverse(rows)
    assert den == math.lcm(*(x.denominator for row in want for x in row))
    assert abs(det) % den == 0
    assert inv.span == ()
    assert [[Fraction(x, den) for x in row] for row in t] == want
    product = [[sum(t[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[den * int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(
    rows=square_matrices(),
    data=st.data(),
    gaussian=st.booleans(),
)
def test_square_solve_matches_mat_inverse(rows, data, gaussian):
    """Columns of rows are the generators; p is rational or Gaussian."""
    n = len(rows)
    gens = [tuple(rows[r][j] for r in range(n)) for j in range(n)]
    re = data.draw(st.lists(rational, min_size=n, max_size=n))
    if gaussian:
        im = data.draw(st.lists(rational, min_size=n, max_size=n))
        # at least one GaussianRational entry, possibly with zero imaginary part
        p = [GaussianRational(a, b) if j == 0 or b else a for j, (a, b) in enumerate(zip(re, im))]
    else:
        im = [Fraction(0)] * n
        p = re
    if det_rational(rows) == 0:
        with pytest.raises(DependentGenerators):
            solve_simplicial_coords(gens, p)
        return
    got = solve_simplicial_coords(gens, p)
    inv = mat_inverse(rows)
    want_re = frac_mat_vec(inv, re)
    want_im = frac_mat_vec(inv, im)
    if gaussian:
        assert all(type(c) is GaussianRational for c in got)
        assert [c.re for c in got] == want_re
        assert [c.im for c in got] == want_im
    else:
        assert all(type(c) is Fraction for c in got)
        assert list(got) == want_re


@st.composite
def integer_rows(draw):
    """Small-integer rows with zero rows and combinations of earlier rows mixed in."""
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            a, b = draw(small_int), draw(small_int)
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * u + b * v for u, v in zip(x, y)])
        else:
            rows.append([draw(small_int) for _ in range(ncols)])
    return rows, ncols


@st.composite
def relation_rows(draw):
    """Rows shaped like the quotient's Z_j x^m: up to 12 columns, at most 3
    nonzeros per row, with zero rows and repeats of earlier rows mixed in."""
    ncols = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            row = [0] * ncols
            for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3, unique=True)):
                row[c] = draw(small_int.filter(bool))
            rows.append(row)
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(integer_rows(), relation_rows()))
def test_rref_matches_fraction_gauss_jordan(case):
    """_rref takes sparse rows {column: nonzero entry} and returns integer
    rows by pivot; each over its pivot is the Gauss-Jordan row."""
    rows, ncols = case
    got = _rref([{c: x for c, x in enumerate(row) if x} for row in rows])
    assert all(type(x) is int and x for row in got.values() for x in row.values())
    assert all(row[pc] > 0 for pc, row in got.items())
    want = fraction_rref(rows, ncols)
    assert [
        (pc, [Fraction(got[pc].get(c, 0), got[pc][pc]) for c in range(ncols)]) for pc in sorted(got)
    ] == want


@st.composite
def narrow_systems(draw):
    """1..d-1 generators in rank d = 2..4, sometimes dependent, and a point
    whose real and imaginary parts each lie in their span (two times in
    three) or are drawn at random (then almost always outside it)."""
    d = draw(st.integers(2, 4))
    m = draw(st.integers(1, d - 1))
    gens = [tuple(draw(small_int) for _ in range(d)) for _ in range(m)]
    if m > 1 and draw(st.integers(0, 3)) == 0:
        a, b = draw(small_int), draw(small_int)
        gens[-1] = tuple(a * x + b * y for x, y in zip(gens[0], gens[-2]))

    def part():
        if draw(st.integers(0, 2)):
            c = draw(st.lists(rational, min_size=m, max_size=m))
            return [sum((ci * g[r] for ci, g in zip(c, gens)), start=Fraction(0)) for r in range(d)]
        return draw(st.lists(rational, min_size=d, max_size=d))

    re = part()
    im = part() if draw(st.booleans()) else None
    return gens, re, im


@settings(max_examples=200, deadline=None)
@given(case=narrow_systems())
def test_narrow_solve_matches_fraction_elimination(case):
    gens, re, im = case
    d, m = len(re), len(gens)
    gaussian = im is not None
    if gaussian:
        p = [GaussianRational(a, b) for a, b in zip(re, im)]
    else:
        im = [Fraction(0)] * d
        p = re
    rows = [[Fraction(g[r]) for g in gens] + [re[r], im[r]] for r in range(d)]
    if len(fraction_rref(rows, m)) < m:
        with pytest.raises(DependentGenerators):
            solve_simplicial_coords(gens, p)
        return
    if len(fraction_rref(rows, m + 2)) > m:
        with pytest.raises(NotInSpan):
            solve_simplicial_coords(gens, p)
        return
    got = solve_simplicial_coords(gens, p)
    if gaussian:
        assert all(type(c) is GaussianRational for c in got)
        assert [c.re for c in got] == fraction_coords(gens, re)
        assert [c.im for c in got] == fraction_coords(gens, im)
    else:
        assert all(type(c) is Fraction for c in got)
        assert list(got) == fraction_coords(gens, re)


# --- Fourier-Motzkin feasibility and the pair test of validate


@st.composite
def inequality_systems(draw):
    """Rows (a, r) of a . x <= r over 1..4 variables, up to 8 of them, with
    zero rows and repeats mixed in; each variable is sometimes bounded
    (-x_i <= 0 or -x_i <= -1 among the rows), sometimes left free.  A third
    of the systems are built feasible, r = a . x0 plus a slack >= 0 for a
    drawn point x0, and a third infeasible: a last row -sum l_i a_i <=
    -sum l_i r_i - s with l >= 0 and s >= 1 sums with the others to 0 <= -s
    (Farkas' lemma).  Returns the rows and which of the two they were built
    to be, or None."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([None, True, False]))
    x0 = [draw(st.integers(-2, 2)) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(int(kind is False), 8 - int(kind is False)))):
        shape = draw(st.integers(0, 5))
        if shape == 0 and rows:
            rows.append(list(draw(st.sampled_from(rows))))
            continue
        if shape == 1:
            a = [0] * n
        elif shape == 2:
            a = [-int(c == draw(st.integers(0, n - 1))) for c in range(n)]
        else:
            a = [draw(small_int) for _ in range(n)]
        if kind is None:
            r = draw(small_int)
        else:
            r = sum(u * v for u, v in zip(a, x0)) + draw(st.integers(0, 2))
        rows.append(a + [r])
    if kind is False:
        lam = [draw(st.integers(0, 2)) for _ in rows]
        last = [-sum(l * row[c] for l, row in zip(lam, rows)) for c in range(n + 1)]
        last[-1] -= draw(st.integers(1, 2))
        rows.append(last)
    return rows, kind


# infeasible, with a repeated row: an elimination that merges equal rows and
# keeps the larger input set drops a row Chernikov's rule needs, and reads
# this system as feasible
MERGE_PITFALL = [
    [0, 1, -1, -1], [1, -1, 1, 1], [-1, 1, 0, -1], [-1, 0, 1, 0], [1, 1, 0, 0], [0, -1, -1, 0], [0, -1, -1, 0]
]


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(case=inequality_systems())
@example(case=(MERGE_PITFALL, False))
def test_feasible_matches_plain_elimination(case):
    """Chernikov's rule drops only rows the others imply, so the answer is
    that of the elimination that combines every pair, and that of the
    system's construction when it has one."""
    rows, kind = case
    got = feasible(rows)
    assert got == fm_feasible(rows)
    assert kind is None or got == kind


@st.composite
def cone_pairs(draw):
    """Two simplicial cones in rank 2..5 sharing 0..d-1 rays; mostly
    full-dimensional, sometimes either or both of lower dimension.  Nothing
    forces the pair to meet in a common face."""
    d = draw(st.integers(2, 5))
    vec = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    rays = draw(st.lists(vec.map(tuple), min_size=d + 1, max_size=2 * d, unique=True))
    k = len(rays)
    size1 = d if draw(st.integers(0, 3)) else draw(st.integers(1, d))
    c1 = tuple(range(size1))
    size2 = d if draw(st.integers(0, 3)) else draw(st.integers(1, d))
    c2 = tuple(sorted(draw(st.permutations(range(k)))[:size2]))
    return StackyFan(rank=d, rays=tuple(rays), max_cones=(c1, c2)), c1, c2


def independent(fan, cone):
    gens = fan.gens(cone)
    rows = [[Fraction(g[r]) for g in gens] for r in range(fan.rank)]
    return len(fraction_rref(rows, len(gens))) == len(gens)


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(case=cone_pairs())
def test_intersection_rays_match_fraction_route(case):
    """_meets_in_face, in either order of the pair, says whether the Fraction
    extreme rays of the intersection are the shared markers' directions."""
    fan, c1, c2 = case
    assume(independent(fan, c1) and independent(fan, c2))
    shared = set(c1) & set(c2)
    want = meets_in_face(fan, c1, c2, shared)
    assert _meets_in_face(fan, c1, c2, shared) == want
    assert _meets_in_face(fan, c2, c1, shared) == want


def test_overlapping_cones_report_their_true_intersection():
    """Two full-dimensional cones overlapping in a cone that is a face of
    neither, and two sharing a ray that meet only there."""
    fan = StackyFan(rank=2, rays=((1, 0), (1, 2), (1, 1), (0, 1)), max_cones=((0, 1), (2, 3)))
    assert fraction_intersection_rays(fan, (0, 1), (2, 3)) == {(1, 1), (1, 2)}
    assert not _meets_in_face(fan, (0, 1), (2, 3), set())
    assert not _meets_in_face(fan, (2, 3), (0, 1), set())
    assert _meets_in_face(fan, (0, 2), (2, 3), {2})
    assert fraction_intersection_rays(fan, (0, 2), (2, 3)) == {(1, 1)}


# --- how often the box set is built


@pytest.fixture
def box_builds(monkeypatch):
    """The parameter of every per-cone branch build: a box set built anew
    runs one per maximal cone."""
    calls = []
    real = box._cone_branches

    def counting(fan, cone, beta, common):
        calls.append(beta)
        return real(fan, cone, beta, common)

    monkeypatch.setattr(box, "_cone_branches", counting)
    return calls


@pytest.mark.parametrize(
    "fan,beta",
    [
        (F1, (Fraction(1, 4), Fraction(0))),
        (F1, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(0))),
        (SQUARE, (Fraction(0), GaussianRational(Fraction(1, 5), Fraction(-1, 3)), Fraction(1, 2))),
    ],
)
def test_box_set_built_once_per_parameter(box_builds, fan, beta):
    fan = dataclasses.replace(fan)  # an empty cone table
    b = read_param(beta, "box", "beta", fan.rank)
    stabilize(fan, beta)
    # stabilize builds the box set at beta only: its images are the box set
    # at beta_delta, whose classes it leaves in the memo
    assert box_builds == [b] * len(fan.max_cones)
    box_builds.clear()
    build_gkz(fan, beta)
    # the stabilization is a memo hit, and the quotient reads the classes at
    # beta_delta, or those at beta when beta is real: no box set is built
    assert box_builds == []


def test_kring_command_builds_collisions_once(monkeypatch, tmp_path):
    """spectrum and wall_report both read collisions; the second read is a
    hit in the fan's parameter memo."""
    calls = []
    real = box._collisions

    def counting(fan, beta):
        calls.append(1)
        return real(fan, beta)

    monkeypatch.setattr(box, "_collisions", counting)
    main(["seed-examples", "--dir", str(tmp_path), "--out", str(tmp_path / "m.json")])
    code = main([
        "kring",
        "--fan", str(tmp_path / "fan_f2.json"),
        "--beta", str(tmp_path / "beta_f2.json"),
        "--out", str(tmp_path / "out.json"),
    ])
    assert code == 0
    assert len(calls) == 1
