"""The fraction-free integer kernels against Fraction oracles: cone_inverse
of square generators (the sign-normalised adjugate) and the square
cone-coordinate solve against mat_inverse, the solve with
fewer generators than the rank, the quotient's integer RREF and the integer
kernel against a Fraction Gauss-Jordan, and the cone intersection, for cones
of any dimension, against the Fraction route it replaced.  Also counts the
box-set builds of stabilize and build_gkz and the collision builds of the
kring command."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import boxgamma.box as box
import boxgamma.kring as kring
import boxgamma.quotient as quotient
from boxgamma.box import stabilize
from boxgamma.cli import main
from boxgamma.errors import DependentGenerators, NotInSpan
from boxgamma.fan import (
    StackyFan,
    _intersection_rays,
    primitive_direction,
    triangulate_from_heights,
)
from boxgamma.gkz import build_gkz
from boxgamma.linalg import GaussianRational, cone_inverse, integer_kernel
from boxgamma.quotient import _rref
from exact_oracles import det_rational, mat_inverse, solve_simplicial_coords

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
def test_integer_adjugate_matches_fraction_inverse(rows):
    """cone_inverse of the columns of A: rows adj with adj * A = d * I and
    d = |det A|, so adj is the adjugate, negated with det A when det A < 0."""
    n = len(rows)
    det = det_rational(rows)
    if det == 0:
        with pytest.raises(DependentGenerators):
            cone_inverse(list(zip(*rows)))
        return
    inv = cone_inverse(list(zip(*rows)))
    adj, d = inv.rows, inv.den
    assert d == abs(det) and d > 0
    assert inv.span == ()
    assert [[Fraction(x, d) for x in row] for row in adj] == mat_inverse(rows)
    product = [[sum(adj[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[d * int(i == j) for j in range(n)] for i in range(n)]


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


def fraction_rref(rows, ncols):
    """Reduced row echelon form by Fraction Gauss-Jordan on the whole matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    out = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        out.append(c)
        r += 1
    return [(c, m[i]) for i, c in enumerate(out)]


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


@settings(max_examples=200, deadline=None)
@given(case=integer_rows())
def test_rref_matches_fraction_gauss_jordan(case):
    rows, ncols = case
    got = _rref(rows, ncols)
    assert got == fraction_rref(rows, ncols)
    assert all(type(x) is Fraction for _, row in got for x in row)


def _kernel(rows, ncols):
    ech = fraction_rref(rows, ncols)
    pivots = [c for c, _ in ech]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in ech:
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return basis


def fraction_coords(gens, p):
    """Coordinates of p in the independent generators, p in their span."""
    d = len(p)
    rows = [[Fraction(g[r]) for g in gens] + [Fraction(p[r])] for r in range(d)]
    ech = fraction_rref(rows, len(gens))
    assert len(ech) == len(gens)
    return [row[-1] for _, row in ech]


@settings(max_examples=150, deadline=None)
@given(case=integer_rows())
def test_integer_kernel_matches_fraction_kernel(case):
    """One integer vector per free column, a nonzero multiple (the last pivot,
    which may be negative) of the Fraction kernel vector with a 1 there."""
    rows, ncols = case
    got = integer_kernel(rows, ncols)
    want = _kernel(rows, ncols)
    pivots = [c for c, _ in fraction_rref(rows, ncols)]
    free_cols = [c for c in range(ncols) if c not in pivots]
    assert len(got) == len(want) == len(free_cols)
    for t, vec, free in zip(got, want, free_cols):
        assert t[free] != 0
        assert [Fraction(x, t[free]) for x in t] == list(vec)
        assert all(type(x) is int for x in t)


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


# --- the Fraction route of _intersection_rays, with the cone coordinates
# solved by Fraction elimination as well


def fraction_intersection_rays(fan, c1, c2):
    g1, g2 = fan.gens(c1), fan.gens(c2)
    d = fan.rank
    rows = [[Fraction(g[r]) for g in g1] + [Fraction(-g[r]) for g in g2] for r in range(d)]
    cand = [
        tuple(sum((vec[j] * g1[j][r] for j in range(len(g1))), start=Fraction(0)) for r in range(d))
        for vec in _kernel(rows, len(g1) + len(g2))
    ]
    basis = []
    for v in cand:
        if len(fraction_rref(basis + [v], d)) > len(basis):
            basis.append(v)
    m = len(basis)
    if m == 0:
        return set()
    p_rows = []
    for gens in (g1, g2):
        cols = [fraction_coords(gens, b) for b in basis]
        p_rows.extend([cols[c][i] for c in range(m)] for i in range(len(gens)))

    def admit(t):
        return all(sum((r[j] * t[j] for j in range(m)), start=Fraction(0)) >= 0 for r in p_rows)

    def point(t):
        return tuple(sum((basis[j][r] * t[j] for j in range(m)), start=Fraction(0)) for r in range(d))

    out = set()
    if m == 1:
        for t in ((Fraction(1),), (Fraction(-1),)):
            if admit(t) and any(point(t)):
                out.add(primitive_direction(point(t)))
        return out
    for subset in itertools.combinations(p_rows, m - 1):
        ker = _kernel(list(subset), m)
        if len(ker) != 1:
            continue
        for t in (ker[0], tuple(-x for x in ker[0])):
            if admit(t):
                if any(point(t)):
                    out.add(primitive_direction(point(t)))
                break
    return out


@st.composite
def cone_pairs(draw):
    """Two simplicial cones in rank 2..4 sharing 0..d-1 rays; mostly
    full-dimensional, sometimes either or both of lower dimension.  Nothing
    forces the pair to meet in a common face."""
    d = draw(st.integers(2, 4))
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


@settings(max_examples=100, deadline=None)
@given(case=cone_pairs())
def test_intersection_rays_match_fraction_route(case):
    fan, c1, c2 = case
    assume(independent(fan, c1) and independent(fan, c2))
    assert _intersection_rays(fan, c1, c2) == fraction_intersection_rays(fan, c1, c2)


def test_overlapping_cones_report_their_true_intersection():
    """Two full-dimensional cones overlapping in a cone that is a face of neither."""
    fan = StackyFan(rank=2, rays=((1, 0), (1, 2), (1, 1), (0, 1)), max_cones=((0, 1), (2, 3)))
    assert _intersection_rays(fan, (0, 1), (2, 3)) == {(1, 1), (1, 2)}
    assert fraction_intersection_rays(fan, (0, 1), (2, 3)) == {(1, 1), (1, 2)}


# --- how often the box set is built


@pytest.fixture
def box_calls(monkeypatch):
    """Counts box_of_fan calls under every name the package looks it up by."""
    calls = []
    real = box.box_of_fan

    def counting(fan, beta):
        calls.append(tuple(beta))
        return real(fan, beta)

    monkeypatch.setattr(box, "box_of_fan", counting)
    monkeypatch.setattr(quotient, "box_of_fan", counting)
    return calls


@pytest.mark.parametrize(
    "fan,beta",
    [
        (F1, (Fraction(1, 4), Fraction(0))),
        (F1, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(0))),
        (SQUARE, (Fraction(0), GaussianRational(Fraction(1, 5), Fraction(-1, 3)), Fraction(1, 2))),
    ],
)
def test_box_set_built_once_per_parameter(box_calls, fan, beta):
    corr = stabilize(fan, beta)
    # the source box set at beta and the target at beta_delta
    assert len(box_calls) == 2
    assert box_calls[1] == corr.beta_delta
    box_calls.clear()
    build_gkz(fan, beta)
    # stabilize's two only: the quotient takes the target set from the triples
    assert len(box_calls) == 2


def test_kring_command_builds_collisions_once(monkeypatch, tmp_path):
    calls = []
    real = box.collisions

    def counting(fan, beta):
        calls.append(1)
        return real(fan, beta)

    monkeypatch.setattr(kring, "collisions", counting)
    main(["seed-examples", "--dir", str(tmp_path), "--out", str(tmp_path / "m.json")])
    code = main([
        "kring",
        "--fan", str(tmp_path / "fan_f2.json"),
        "--beta", str(tmp_path / "beta_f2.json"),
        "--out", str(tmp_path / "out.json"),
    ])
    assert code == 0
    assert len(calls) == 1
