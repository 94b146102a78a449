"""Independent checks on the program's results.

Everything here is exact arithmetic written for the benchmark, not taken
from boxgamma, and no check compares against output captured from an
earlier version of the program: each one is an invariant or a brute-force
recomputation from the definitions.
"""

import functools
import itertools
import re
from fractions import Fraction

_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_GAUSSIAN = re.compile(rf"(?:({_RATIONAL})(?=[+-]))?({_RATIONAL})i")


def parts(x) -> tuple[Fraction, Fraction]:
    """(Re, Im) of a program scalar, whichever exact type carries it."""
    if hasattr(x, "re"):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x.real), Fraction(x.imag)


def parse_scalar(text: str) -> tuple[Fraction, Fraction]:
    """(Re, Im) of "p/q", "p/q+r/si" or "r/si"."""
    text = text.replace(" ", "")
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    m = _GAUSSIAN.fullmatch(text)
    if not m:
        raise ValueError(f"not an exact scalar: {text!r}")
    return Fraction(m.group(1) or 0), Fraction(m.group(2))


def det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def cone_index(rays, cone) -> int:
    """|det| of the cone's generators: its number of box branches."""
    return abs(int(det([rays[i] for i in cone])))


def volume(fan) -> int:
    return sum(cone_index(fan.rays, c) for c in fan.max_cones)


def box_identity_holds(rays, beta, alpha, n) -> bool:
    """0 <= Re alpha_i < 1 and sum alpha_i v_i = n + beta, exactly."""
    if not all(0 <= a[0] < 1 for a in alpha):
        return False
    for r in range(len(beta)):
        lhs_re = sum(a[0] * v[r] for a, v in zip(alpha, rays))
        lhs_im = sum(a[1] * v[r] for a, v in zip(alpha, rays))
        if (lhs_re, lhs_im) != (n[r] + beta[r][0], beta[r][1]):
            return False
    return True


def _matmul(a, b):
    n = len(a)
    cols = [[b[t][j] for t in range(n)] for j in range(n)]
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in cols] for row in a]


def _is_zero(m) -> bool:
    return all(x == 0 for row in m for x in row)


def nilpotent_and_commuting(mats) -> bool:
    """Every matrix reaches zero within dim powers and all pairs commute."""
    mats = [[[Fraction(x) for x in row] for row in m] for m in mats]
    for m in mats:
        power, steps = m, 1
        while not _is_zero(power) and steps < len(m):
            power, steps = _matmul(power, m), steps + 1
        if not _is_zero(power):
            return False
    for a, b in itertools.combinations(mats, 2):
        if _matmul(a, b) != _matmul(b, a):
            return False
    return True


@functools.cache
def _l1_ball(k: int, radius: int) -> tuple[tuple[int, ...], ...]:
    if k == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(-radius, radius + 1)
        for rest in _l1_ball(k - 1, radius - abs(first))
    )


def window_offsets(rays, target, B: int) -> list[tuple[int, ...]]:
    """Every integer m with |m|_1 <= B and sum m_i v_i = target, sorted."""
    d = len(target)
    return sorted(
        m
        for m in _l1_ball(len(rays), B)
        if all(sum(mi * v[r] for mi, v in zip(m, rays)) == target[r] for r in range(d))
    )
