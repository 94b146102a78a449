import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgamma.errors import DependentGenerators
from boxgamma.linalg import (
    GaussianRational,
    cone_inverse,
    format_gaussian,
    format_rational,
    hermite_normal_form,
    parse_gaussian,
    parse_rational,
    solve_with_hnf,
)
from exact_oracles import (
    NotInSpan,
    cone_coords,
    det_rational,
    mat_inverse,
    solve_simplicial_coords,
)


def test_rational_roundtrip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(parse_rational("2/6")) == Fraction(1, 3)


def test_gaussian_parse_format():
    z = GaussianRational(Fraction(2, 15), Fraction(1, 7))
    assert format_gaussian(z) == "2/15+1/7i"
    assert parse_gaussian("2/15+1/7i") == z
    assert parse_gaussian("-1/2i") == GaussianRational(0, Fraction(-1, 2))
    assert parse_gaussian("3/4") == GaussianRational(Fraction(3, 4))
    assert parse_gaussian({"re": "1/3", "im": "-2/5"}) == GaussianRational(
        Fraction(1, 3), Fraction(-2, 5)
    )
    assert format_gaussian(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"


@pytest.mark.parametrize(
    "re,im",
    [(Fraction(1, 2), Fraction(-2, 3)), (1, -2), ("1/2", "-2/3"), (Fraction(1, 2), 3), ("4/8", 0)],
)
def test_gaussian_keeps_a_fraction_part_and_converts_the_rest(re, im):
    """A Fraction part is kept as the same object; an int or a string is
    converted; value, hash and repr are those of the Fraction parts."""
    z = GaussianRational(re, im)
    want = GaussianRational.__new__(GaussianRational)
    object.__setattr__(want, "re", Fraction(re))
    object.__setattr__(want, "im", Fraction(im))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z, hash(z), repr(z)) == (want, hash(want), repr(want))
    for given, part in ((re, z.re), (im, z.im)):
        if type(given) is Fraction:
            assert part is given


def test_hnf_example():
    a = [[1, 0], [1, 1], [1, 2]]
    h, u = hermite_normal_form(a)
    assert h == [[1, 0], [0, 1], [0, 0]]
    for i in range(3):
        for j in range(2):
            assert sum(u[i][r] * a[r][j] for r in range(3)) == h[i][j]
    assert abs(det_rational(u)) == 1


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(n)]
        h, u = hermite_normal_form(a)
        assert abs(det_rational(u)) == 1
        # U*A = H
        for i in range(n):
            for j in range(c):
                assert sum(u[i][r] * a[r][j] for r in range(n)) == h[i][j]
        # echelon shape with positive pivots and reduced entries above
        last = -1
        for row in h:
            piv = next((j for j, x in enumerate(row) if x != 0), None)
            if piv is None:
                continue
            assert piv > last
            last = piv
            assert row[piv] > 0
        for i, row in enumerate(h):
            piv = next((j for j, x in enumerate(row) if x != 0), None)
            if piv is None:
                continue
            for r in range(i):
                assert 0 <= h[r][piv] < row[piv]


def test_solve_simplicial_coords():
    gens = [(1, 1), (1, 2)]
    p = (Fraction(5, 4), Fraction(2))
    assert solve_simplicial_coords(gens, p) == (Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(DependentGenerators):
        solve_simplicial_coords([(1, 1), (2, 2)], p)
    with pytest.raises(NotInSpan):
        solve_simplicial_coords([(1, 0, 0), (0, 1, 0)], (0, 0, Fraction(1)))
    z = GaussianRational(Fraction(1, 3), Fraction(1, 7))
    coords = solve_simplicial_coords([(1, 0), (0, 1)], (z, z))
    assert coords == (z, z)


def test_cone_errors_name_their_stage_and_data():
    with pytest.raises(DependentGenerators) as err:
        cone_inverse([(1, 1), (2, 2)], 2)
    assert str(err.value) == "cone: the generators (1, 1), (2, 2) are linearly dependent"
    inv = cone_inverse([(1, 0, 0), (0, 1, 0)], 3)
    with pytest.raises(NotInSpan) as err:
        cone_coords(inv, (Fraction(1, 2), 0, GaussianRational(Fraction(1), Fraction(1, 3))))
    assert str(err.value) == "cone: the point (1/2, 0, 1+1/3i) is not in the span of the generators"


def test_mat_inverse():
    m = [[1, 2], [3, 5]]
    inv = mat_inverse(m)
    assert inv == [[Fraction(-5), Fraction(2)], [Fraction(3), Fraction(-1)]]
    with pytest.raises(DependentGenerators):
        mat_inverse([[1, 2], [2, 4]])


def test_solve_integer_and_kernel():
    """One row HNF (H, U) gives the integer solutions and, in the rows of U
    where H is zero, a lattice basis of the relations."""
    rays = [(1, 0), (1, 1), (1, 2)]
    h, u = hermite_normal_form(rays)
    m = solve_with_hnf(h, u, (3, 4))
    assert m is not None
    assert tuple(sum(m[i] * rays[i][j] for i in range(3)) for j in range(2)) == (3, 4)
    ker = [row for row, hrow in zip(u, h) if not any(hrow)]
    assert len(ker) == 1
    k = ker[0]
    assert tuple(sum(k[i] * rays[i][j] for i in range(3)) for j in range(2)) == (0, 0)
    assert [abs(x) for x in k] == [1, 2, 1]
    # target outside the generated lattice
    assert solve_with_hnf(*hermite_normal_form([(2, 0), (0, 2)]), (1, 0)) is None


def nonzero_hnf_rows(rows):
    return [r for r in hermite_normal_form(rows)[0] if any(r)]


@st.composite
def row_sets(draw):
    """Integer rows of one length with dependent and zero rows among them,
    and a target that half the time is a combination of the rows."""
    d = draw(st.integers(1, 4))
    entry = st.integers(-5, 5)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "dependent", "zero"] if rows else ["free", "zero"]))
        if kind == "free":
            rows.append([draw(entry) for _ in range(d)])
        elif kind == "zero":
            rows.append([0] * d)
        else:
            cs = [draw(st.integers(-3, 3)) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(d)])
    if draw(st.booleans()):
        cs = [draw(st.integers(-4, 4)) for _ in rows]
        target = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(d)]
    else:
        target = [draw(st.integers(-9, 9)) for _ in range(d)]
    return rows, target


@settings(deadline=None)
@given(case=row_sets())
def test_solve_with_hnf_decides_the_row_lattice(case):
    """A returned m combines the rows to the target, one coefficient per row,
    and None comes back exactly when the target is outside the rows'
    lattice: when appending it as a row changes the nonzero Hermite rows."""
    rows, target = case
    m = solve_with_hnf(*hermite_normal_form(rows), target)
    assert (m is not None) is (nonzero_hnf_rows(rows + [target]) == nonzero_hnf_rows(rows))
    if m is not None:
        assert len(m) == len(rows)
        assert [sum(c * r[j] for c, r in zip(m, rows)) for j in range(len(target))] == target
