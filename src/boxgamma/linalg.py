"""Exact rational and Gaussian-rational linear algebra.

Rationals are `fractions.Fraction` throughout, serialized as "p/q" in lowest
terms with positive denominator.  Exact input (integer, rational and
Gaussian-rational vectors) and the float series point are read and checked
by one reader, `read_exact`; a parameter beta, once per public call, into
the one form the stages read, a `Param`.
Integer lattice work (the Hermite normal form, integer solving), the one
Gauss-Jordan elimination (_rref, fraction-free on sparse rows) and the
feasibility test use arbitrary-precision ints.  The only floating-point
routine is `singular_values`, a one-sided Jacobi SVD in pure Python.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DependentGenerators, NoConvergence

IntMatrix = list[list[int]]


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _integral(x) -> Optional[int]:
    """x as the int it equals, a string read as a rational, or None when it
    equals none (inf, nan, None, a bool, a complex or malformed value too)."""
    try:
        if isinstance(x, str):
            x = Fraction(x.strip())
        n = int(x)
    except (OverflowError, ValueError, TypeError, ZeroDivisionError):
        return None
    return n if n == x and not isinstance(x, bool) else None


def read_int(x, stage: str, name: str, least: Optional[int] = None) -> int:
    """x as the int it equals, read by _integral, the one reader of integer
    arguments; ValueError "<stage>: <name> is <x!r>, not <kind>" names an x
    that equals no integer or, for least 0 or 1, one below least."""
    n = _integral(x)
    if n is None or least is not None and n < least:
        kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[least]
        raise ValueError(f"{stage}: {name} is {x!r}, not {kind}")
    return n


def parse_rational(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise ValueError(f"cannot parse rational from {s!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex value with rational real and imaginary parts, the scalar
    of input and output.  It carries no arithmetic; like an int or a Fraction
    it answers .real and .imag, and complex() gives its float value.  The
    stages compute on a parameter's Param.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("re", "im"):  # a Fraction part is kept as it is
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(getattr(self, name)))

    real = property(operator.attrgetter("re"))
    imag = property(operator.attrgetter("im"))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return format_gaussian(self)


# an exact coordinate: a Fraction, or a GaussianRational with im != 0
Coord = Union[Fraction, GaussianRational]


def format_gaussian(z) -> str:
    """An int, a Fraction or a GaussianRational as "p/q", "p/q+r/si" or "r/si"."""
    re, im = z.real, z.imag
    if im == 0:
        return format_rational(re)
    if re == 0:
        return f"{format_rational(im)}i"
    sign = "+" if im > 0 else "-"
    return f"{format_rational(re)}{sign}{format_rational(abs(im))}i"


def parse_gaussian(s) -> GaussianRational:
    """Accepts "p/q", "p/q+r/si", "r/si", or a {"re": .., "im": ..} mapping;
    each part is what parse_rational reads, so "1.5i" is 3/2 i; no bool."""
    if isinstance(s, GaussianRational):
        return s
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return GaussianRational(Fraction(s))
    if isinstance(s, dict):
        if not set(s) <= {"re", "im"}:
            raise ValueError(f"cannot parse Gaussian rational from {s!r}")
        return GaussianRational(parse_rational(s.get("re", 0)), parse_rational(s.get("im", 0)))
    if isinstance(s, str):
        t = s.strip().replace(" ", "")
        if not t.endswith("i"):
            return GaussianRational(parse_rational(t))
        # the imaginary part starts at the last sign that leads neither t nor an exponent
        cut = max((p for p in range(1, len(t)) if t[p] in "+-" and t[p - 1] not in "eE"), default=0)
        return GaussianRational(parse_rational(t[:cut] or 0), parse_rational(t[cut:-1]))
    raise ValueError(f"cannot parse Gaussian rational from {s!r}")


def _complex(x, kind=complex):
    """x as a finite complex (a finite float for kind float), or None for a
    bool, a string and anything kind refuses or reads as inf or nan."""
    if isinstance(x, (bool, str)):
        return None
    try:
        y = kind(x)
    except (OverflowError, TypeError, ValueError):
        return None
    return y if cmath.isfinite(y) else None


def _real(x) -> Optional[float]:
    return _complex(x, float)


def _real_pair(p) -> Optional[complex]:
    """An [re, im] list of two finite real numbers as the complex it names, or None."""
    parts = [*map(_real, p)] if isinstance(p, list) and len(p) == 2 else [None]
    return None if None in parts else complex(*parts)


_ZERO = Fraction(0)

_KINDS = {
    _integral: "an integer",
    parse_rational: "a rational",
    parse_gaussian: "a Gaussian rational",
    _real: "a finite real number",
    _complex: "a finite complex number",
    _real_pair: "an [re, im] pair of finite real numbers",
}


def as_sequence(values, stage: str, name: str) -> tuple:
    """tuple(values), or ValueError "<stage>: <name> is <values!r>, not a
    sequence" when it cannot be iterated or is a string, which is not read
    as the vector of its characters."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ValueError(f"{stage}: {name} is {values!r}, not a sequence")
    return tuple(values)


def read_exact(values, parse, stage: str, name: str, n: Optional[int] = None) -> tuple:
    """The entries of values read by parse, the one reader of exact input.

    parse is _integral (ints), parse_rational (Fractions), parse_gaussian
    (GaussianRationals, which read_param turns into a Param), or, for the
    series point, _real and _complex (finite floats and complexes) and
    _real_pair (a JSON [re, im] pair as a complex).
    ValueError names the first entry parse rejects, as "<stage>: entry <pos>
    of <name> is <value!r>, not <kind>", then a length other than n, as
    "<stage>: <name> must have <n> coordinates, got <m>"; see as_sequence
    for values that are no sequence.
    """
    out = []
    for pos, x in enumerate(as_sequence(values, stage, name), start=1):
        try:
            y = parse(x)
        except (ValueError, ZeroDivisionError):
            y = None
        if y is None:
            raise ValueError(f"{stage}: entry {pos} of {name} is {x!r}, not {_KINDS[parse]}")
        out.append(y)
    if n is not None and len(out) != n:
        raise ValueError(f"{stage}: {name} must have {n} coordinates, got {len(out)}")
    return tuple(out)


class Param(NamedTuple):
    """A parameter beta in N (x) C as den * Re beta and den * Im beta, integers
    over the least common denominator den of its parts: equal vectors have equal
    forms, which key the fan's parameter memo.  values gives beta's scalars."""

    den: int
    re: tuple[int, ...]
    im: tuple[int, ...]

    @classmethod
    def of(cls, scalars: Sequence) -> Param:
        """The form of exact scalars: ints, Fractions and GaussianRationals."""
        n = len(scalars)  # a Fraction is its own real part, which Fraction.real copies
        re = [x.re if type(x) is GaussianRational else x for x in scalars]
        den, nums = scaled_numerators(re + [x.imag for x in scalars])
        return cls(den, tuple(nums[:n]), tuple(nums[n:]))

    @property
    def values(self) -> tuple:
        """Each coordinate as a Fraction, or a GaussianRational where Im != 0."""
        d = self.den
        pairs = zip(self.re, self.im)
        return tuple(
            GaussianRational(Fraction(x, d), Fraction(y, d)) if y else Fraction(x, d) for x, y in pairs
        )


def read_param(values, stage: str, name: str, n: Optional[int] = None) -> Param:
    """beta's Param, read by read_exact with parse_gaussian and its ValueError
    texts, or a Param passed through once its length is checked and it is in
    lowest terms over a positive den, as Param.of builds it; once per public call."""
    if not isinstance(values, Param):
        return Param.of(read_exact(values, parse_gaussian, stage, name, n))
    den, re, im = values
    if n is not None and len(re) != n:
        raise ValueError(f"{stage}: {name} must have {n} coordinates, got {len(re)}")
    if den <= 0 or len(im) != len(re) or math.gcd(den, *re, *im) != 1:
        raise ValueError(f"{stage}: {name} is {values!r}, not a form in lowest terms")
    return values


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan elimination on sparse integer rows


def _combine(p: int, v: dict, f: int, w: dict) -> dict:
    """p * v - f * w for sparse integer rows {column: entry}, nonzero entries only."""
    out = {c: p * v.get(c, 0) - f * w.get(c, 0) for c in v.keys() | w.keys()}
    return {c: x for c, x in out.items() if x}


def _rref(rows) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse integer rows {column: nonzero entry}
    as {pivot column: row}: rows eliminated fraction-free, each divided by its
    content once reduced, with a positive pivot and zero in every other
    pivot column.  The form is unique: a row over its pivot is Gauss-Jordan's.
    The library's one Gauss-Jordan elimination: cone_inverse,
    fan.triangulate_from_heights and quotient._Summand.extend call it."""
    ech: dict[int, dict[int, int]] = {}
    for v in rows:
        # reducing by one row leaves v's other pivot entries zero or nonzero
        for pc in [c for c in v if c in ech]:
            v = _combine(ech[pc][pc], v, v[pc], ech[pc])
        if not v:
            continue
        pc = min(v)
        g = math.gcd(*v.values()) * (-1 if v[pc] < 0 else 1)
        v = {c: x // g for c, x in v.items()}
        for pc2, er in ech.items():
            f = er.get(pc)
            if f:
                w = _combine(v[pc], er, f, v)
                g = math.gcd(*w.values())
                ech[pc2] = {c: x // g for c, x in w.items()}
        ech[pc] = v
    return ech


def scaled_numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, the integers den * x) for the least common denominator den of the rationals."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _dot(row: Sequence[int], vec: Sequence[int]) -> int:
    return sum(map(operator.mul, row, vec))


@dataclass(frozen=True)
class ConeInverse:
    """Integer left inverse of m independent generators in Z^d.

    With V the d x m matrix of the generators as columns, the reduced rows
    of [V | I] (_rref) with a pivot in V's columns give rows T with
    T V = den * I, den the least positive integer that makes them integral:
    the lcm of their pivots, the least common denominator of V's inverse
    when m = d.  For a point p = V c, row . p = den * c_i.  The other d - m
    reduced rows, span, are 0 on V and independent of the rows of T, so p
    lies in the span of V exactly when they vanish on it.
    """

    rows: tuple[tuple[int, ...], ...]
    span: tuple[tuple[int, ...], ...]
    den: int

    def numerators(self, nums: Sequence[int]) -> Optional[list[int]]:
        """den * (cone coordinates) of the integer point nums, or None when
        it lies outside the span."""
        if any(_dot(row, nums) for row in self.span):
            return None
        return [_dot(row, nums) for row in self.rows]


def cone_inverse(gens: Sequence[Sequence[int]], d: int) -> ConeInverse:
    """The ConeInverse of independent generators in Z^d, from one _rref of
    [V | I]; raises DependentGenerators when a column of V has no pivot."""
    m = len(gens)
    ech = _rref({**{j: g[r] for j, g in enumerate(gens) if g[r]}, m + r: 1} for r in range(d))
    if any(j not in ech for j in range(m)):
        named = ", ".join(str(tuple(g)) for g in gens)
        raise DependentGenerators(f"cone: the generators {named} are linearly dependent")
    den = math.lcm(*(ech[j][j] for j in range(m)))
    rows = [[den // ech[pc][pc] * ech[pc].get(m + r, 0) for r in range(d)] for pc in range(m)]
    span = [[ech[pc].get(m + r, 0) for r in range(d)] for pc in sorted(ech) if pc >= m]
    return ConeInverse(tuple(map(tuple, rows)), tuple(map(tuple, span)), den)


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility


def feasible(rows: Sequence[Sequence[int]]) -> bool:
    """True iff some rational x has row[:-1] . x <= row[-1] for every integer row.

    Fourier-Motzkin elimination: each variable in turn is cancelled between
    every row where it is positive and every row where it is negative, each
    result divided by its content; the system is feasible iff every row left
    reads 0 <= r (Schrijver, Theory of Linear and Integer Programming,
    12.2).  Each row keeps the bitmask of the input rows it combines, and
    after t eliminations a row of more than t + 1 of them is implied by the
    others and dropped (Chernikov's rule).  Equal rows are not merged, as
    keeping the larger of two input sets could drop a row the rule needs.
    """
    system = [(tuple(row), 1 << i) for i, row in enumerate(rows)]
    for t in range(len(rows[0]) - 1 if rows else 0):
        pos = [(row, m) for row, m in system if row[t] > 0]
        neg = [(row, m) for row, m in system if row[t] < 0]
        system = [(row, m) for row, m in system if not row[t]]
        for (p, pm), (q, qm) in itertools.product(pos, neg):
            if bin(pm | qm).count("1") > t + 2:
                continue
            row = [p[t] * y - q[t] * x for x, y in zip(p, q)]
            g = math.gcd(*row) or 1
            system.append((tuple(x // g for x in row), pm | qm))
    return all(row[-1] >= 0 for row, _ in system)


# ---------------------------------------------------------------------------
# the Hermite normal form


def hermite_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.  Returns (H, U) with U unimodular, U*A = H.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows sit at the bottom.
    """
    n = len(a)
    cols = len(a[0]) if n else 0
    # each row of A carries its row of U, so one row operation updates both
    h = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    row = 0
    for col in range(cols):
        if row >= n:
            break
        while True:
            nz = [i for i in range(row, n) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][col]))
            done = True
            for i in nz:
                if i == i0:
                    continue
                q = h[i][col] // h[i0][col]
                if q != 0:
                    h[i] = [x - q * y for x, y in zip(h[i], h[i0])]
                if h[i][col] != 0:
                    done = False
            if done:
                h[row], h[i0] = h[i0], h[row]
                break
        if h[row][col] == 0:
            continue
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q != 0:
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
        row += 1
    return [r[:cols] for r in h], [r[cols:] for r in h]


def solve_with_hnf(h: Sequence[Sequence[int]], u: Sequence[Sequence[int]], target: Sequence[int]):
    """Integer solution m of sum_i m_i * rows[i] = target, or None, for rows
    whose row HNF (H, U) is given: target = sum_i y_i H_i down the pivots, each
    searched from the last one's column, and m = sum_i y_i U_i over the y_i != 0."""
    resid = [int(x) for x in target]
    m = [0] * len(u)
    col, d = 0, len(resid)
    for hrow, urow in zip(h, u):
        while col < d and not hrow[col]:
            col += 1
        if col == d:
            break
        q, r = divmod(resid[col], hrow[col])
        if r:
            return None
        if q:
            resid = [x - q * hx for x, hx in zip(resid, hrow)]
            m = [x + q * ux for x, ux in zip(m, urow)]
    return None if any(resid) else tuple(m)


_JACOBI_TOL = 1e-15
_JACOBI_SWEEPS = 60


def _norm(col: Sequence[complex]) -> float:
    return math.hypot(*map(abs, col))


def singular_values(matrix) -> list[float]:
    """Singular values of a complex matrix, min(m, n) of them, descending.

    One-sided (Hestenes) Jacobi: plane rotations orthogonalize the columns of
    A, or of A^T when A is wide (A^T has the values of A^H), until a full
    sweep rotates no pair; the values are then the column norms.  A phase
    first turns the pair's inner product g real, so each rotation is real.  A
    pair counts as orthogonal once |g| <= 1e-15 |a_p| |a_q|, or once its
    angle underflows to 0, as for a column of rounding residue parallel to
    another near the smallest normal float, which no rotation shrinks.  The
    eigenvalues of A^H A would square the condition number and lose small
    values below sqrt(eps) ~ 1.5e-8 of the largest, above the 1e-9 rank cut
    of solution_system; Jacobi is at least as accurate as a QR-based SVD
    (Demmel and Veselic, 1992).
    """
    rows = [[complex(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        return []
    # a power of two scales exactly: with the largest entry in [1/2, 1), no
    # product of entries overflows, and an inner product below the smallest
    # normal float is orthogonal far below the rank cut
    e = math.frexp(max(abs(x) for row in rows for x in row))[1]
    scale = math.ldexp(1.0, -e)
    tall = len(rows) >= len(rows[0])
    cols = [[scale * x for x in col] for col in (zip(*rows) if tall else rows)]
    norms = [_norm(col) for col in cols]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(len(cols) - 1):
            for q in range(p + 1, len(cols)):
                a, b, na, nb = cols[p], cols[q], norms[p], norms[q]
                g = sum(x.conjugate() * y for x, y in zip(a, b))
                r = abs(g)
                if r <= _JACOBI_TOL * na * nb or r < sys.float_info.min:
                    continue
                # b * conj(g)/r pairs with a to the real r; rotate by t = tan
                zeta = (nb - na) * (nb + na) / (2 * r)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                if t == 0:
                    continue
                rotated = True
                c = 1 / math.hypot(1.0, t)
                ph = g.conjugate() / r
                cp, sp = c * ph, c * t * ph
                cols[p] = [c * x - sp * y for x, y in zip(a, b)]
                cols[q] = [c * t * x + cp * y for x, y in zip(a, b)]
                norms[p], norms[q] = _norm(cols[p]), _norm(cols[q])
        if not rotated:
            return sorted((math.ldexp(n, e) for n in norms), reverse=True)
    raise NoConvergence(
        f"svd: Jacobi sweeps on a {len(rows)}x{len(rows[0])} matrix "
        f"did not converge in {_JACOBI_SWEEPS} sweeps"
    )
