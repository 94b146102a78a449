"""Fraction inverse and determinant, and the one-shot cone solve: the
references the library's fraction-free integer kernels are tested against.
Only tests read them."""

from fractions import Fraction
from typing import Sequence

from boxgamma.errors import DependentGenerators
from boxgamma.linalg import cone_inverse


def identity_rational(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inverse(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix; raises DependentGenerators."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + identity_rational(n)[i] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise DependentGenerators("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    m = [[Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def solve_simplicial_coords(gens: Sequence[Sequence[int]], p: Sequence) -> tuple:
    """Coordinates of p in linearly independent generators (columns).

    p may have Fraction or GaussianRational entries; the coordinate vector is
    returned with entries of the same kind.  Raises DependentGenerators if the
    generators are dependent and NotInSpan if p lies outside their span.
    The one-shot form of cone_inverse(gens).coords(p); a fan keeps each
    maximal cone's ConeInverse, so its cone solves skip the elimination.
    """
    return cone_inverse(gens).coords(p)
