import random
from fractions import Fraction

import pytest

from boxgamma.errors import DependentGenerators, NotInSpan
from boxgamma.linalg import (
    GaussianRational,
    format_gaussian,
    format_rational,
    hermite_normal_form,
    integer_kernel_basis,
    lattice_generates,
    parse_gaussian,
    parse_rational,
    smith_normal_form,
    solve_integer,
)
from exact_oracles import det_rational, mat_inverse, solve_simplicial_coords


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


def test_snf_random_properties():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(n)]
        d, s, t = smith_normal_form(a)
        assert abs(det_rational(s)) == 1
        assert abs(det_rational(t)) == 1
        prod = [
            [
                sum(s[i][p] * a[p][q] * t[q][j] for p in range(n) for q in range(c))
                for j in range(c)
            ]
            for i in range(n)
        ]
        assert prod == d
        diag = [d[i][i] for i in range(min(n, c))]
        for i in range(n):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0


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


def test_mat_inverse():
    m = [[1, 2], [3, 5]]
    inv = mat_inverse(m)
    assert inv == [[Fraction(-5), Fraction(2)], [Fraction(3), Fraction(-1)]]
    with pytest.raises(DependentGenerators):
        mat_inverse([[1, 2], [2, 4]])


def test_solve_integer_and_kernel():
    rays = [(1, 0), (1, 1), (1, 2)]
    m = solve_integer(rays, (3, 4))
    assert m is not None
    assert tuple(sum(m[i] * rays[i][j] for i in range(3)) for j in range(2)) == (3, 4)
    ker = integer_kernel_basis(rays)
    assert len(ker) == 1
    k = ker[0]
    assert tuple(sum(k[i] * rays[i][j] for i in range(3)) for j in range(2)) == (0, 0)
    assert [abs(x) for x in k] == [1, 2, 1]
    # target outside the generated lattice
    assert solve_integer([(2, 0), (0, 2)], (1, 0)) is None


def test_lattice_generates():
    assert lattice_generates([(1, 0), (1, 1), (1, 2)])
    assert not lattice_generates([(2, 0), (0, 1)])
    assert not lattice_generates([(1, 0)])
