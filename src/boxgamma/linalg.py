"""Exact rational and Gaussian-rational linear algebra.

Rationals are `fractions.Fraction` throughout, serialized as "p/q" in lowest
terms with positive denominator.  Integer lattice work (Hermite and Smith
normal forms, integer solving) and every cone solve, through one
fraction-free elimination, use arbitrary-precision ints.  The only
floating-point routine is `singular_values`, a one-sided Jacobi SVD in pure
Python.
"""

from __future__ import annotations

import math
import operator
import re as _re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DependentGenerators, NoConvergence, NotInSpan

IntMatrix = list[list[int]]


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise ValueError(f"cannot parse rational from {s!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex value with rational real and imaginary parts.

    It carries no arithmetic: the library splits every coordinate into its
    parts with re_part / im_part and computes on Fractions and ints.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __str__(self):
        return format_gaussian(self)


# an exact coordinate: a Fraction, or a GaussianRational with im != 0
Coord = Union[Fraction, GaussianRational]


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


def format_gaussian(z: GaussianRational) -> str:
    if z.im == 0:
        return format_rational(z.re)
    im = format_rational(z.im)
    if z.re == 0:
        return f"{im}i"
    sign = "+" if z.im > 0 else "-"
    return f"{format_rational(z.re)}{sign}{format_rational(abs(z.im))}i"


def parse_gaussian(s) -> GaussianRational:
    """Accepts "p/q", "p/q+r/si", "r/si", or a {"re": .., "im": ..} mapping."""
    if isinstance(s, GaussianRational):
        return s
    if isinstance(s, (int, Fraction)):
        return GaussianRational(Fraction(s))
    if isinstance(s, dict):
        return GaussianRational(
            parse_rational(s.get("re", 0)), parse_rational(s.get("im", 0))
        )
    if isinstance(s, str):
        t = s.strip().replace(" ", "")
        if not t.endswith("i"):
            return GaussianRational(parse_rational(t))
        body = t[:-1]
        # split off the trailing rational as the imaginary part
        m = _re.match(r"^(.*?)([+-]?\d+(?:/\d+)?)$", body)
        if not m:
            raise ValueError(f"cannot parse Gaussian rational from {s!r}")
        head, imag = m.groups()
        re_part = parse_rational(head) if head not in ("", "+", "-") else Fraction(0)
        return GaussianRational(re_part, parse_rational(imag))
    raise ValueError(f"cannot parse Gaussian rational from {s!r}")


_ZERO = Fraction(0)


def re_part(x) -> Fraction:
    if isinstance(x, GaussianRational):
        return x.re
    return x if isinstance(x, Fraction) else Fraction(x)


def im_part(x) -> Fraction:
    return x.im if isinstance(x, GaussianRational) else _ZERO


def scalar_from_parts(re: Fraction, im: Fraction):
    """Fraction when im == 0, GaussianRational otherwise."""
    if im != 0:
        return GaussianRational(re, im)
    return re if isinstance(re, Fraction) else Fraction(re)


# ---------------------------------------------------------------------------
# fraction-free integer elimination (Bareiss 1968)


def _bareiss(m: IntMatrix, ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows m, in place.

    Columns 0..ncols-1 are eliminated in order; a column with no pivot left
    is skipped.  Each step replaces every other row by
    (pivot * row - row[col] * pivot_row) / previous pivot, a division that is
    always exact, so every entry stays a minor of the input.  Returns the
    pivot columns and the last pivot p: the i-th row holds p in the i-th
    pivot column and 0 in the other pivot columns, and rows past the rank
    are zero in columns 0..ncols-1.  For a square matrix of full rank p is
    the determinant up to the sign of the row swaps.
    """
    nrows = len(m)
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        prow = m[row]
        p = prow[col]
        for r in range(nrows):
            if r == row:
                continue
            f = m[r][col]
            if f:
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], prow)]
            elif p != prev:
                m[r] = [p * x // prev for x in m[r]]
        prev = p
        pivots.append(col)
    return pivots, prev


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Integer vectors t with rows * t = 0, one per non-pivot column.

    For the free column f the vector has t[f] = p, the last pivot, and
    t[c_i] = -row_i[f] in the i-th pivot column after elimination, 0
    elsewhere.  The vectors are a basis of the kernel over Q, not a lattice
    basis of its integer points as `integer_kernel_basis` gives, and need not
    be primitive.  A corank-one matrix gives exactly one vector.
    """
    m = [[int(x) for x in row] for row in rows]
    pivots, last = _bareiss(m, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        t = [0] * ncols
        t[free] = last
        for row, c in zip(m, pivots):
            t[c] = -row[free]
        basis.append(tuple(t))
    return basis


def scaled_numerators(values: Sequence[Fraction], den: int) -> list[int]:
    """The integers den * x, for a common denominator den of the values."""
    return [x.numerator * (den // x.denominator) for x in values]


def _dot(row: Sequence[int], vec: Sequence[int]) -> int:
    return sum(map(operator.mul, row, vec))


@dataclass(frozen=True)
class ConeInverse:
    """Integer left inverse of m independent generators in Z^d.

    With V the d x m matrix of the generators as columns, one fraction-free
    elimination of [V | I] over V's columns turns I into T with
    T V = den * [I; 0].  For a point p = V c the first m rows of T give
    row . p = den * c_i, and the other d - m rows give 0; as T is invertible,
    p lies in the span of V exactly when those rows vanish on it.  den is
    made positive, the rows negated with it, so for m = d the rows are the
    sign-normalised adjugate of V and den = |det V|.
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

    def coords(self, p: Sequence) -> tuple:
        """Coordinates of p, entries of the same kind as p's: Fractions, or
        GaussianRationals once any entry of p is one.  Raises NotInSpan.

        With P / L the re and im parts of p over a common denominator L,
        each coordinate is (row . P) / (den * L), one Fraction per
        coordinate and part.
        """
        complex_input = any(isinstance(x, GaussianRational) for x in p)
        parts = [[re_part(x) for x in p]]
        if complex_input:
            parts.append([im_part(x) for x in p])
        den = math.lcm(*(x.denominator for part in parts for x in part))
        coords = []
        for part in parts:
            nums = self.numerators(scaled_numerators(part, den))
            if nums is None:
                raise NotInSpan("point is not in the span of the generators")
            coords.append([Fraction(x, self.den * den) for x in nums])
        if not complex_input:
            return tuple(coords[0])
        return tuple(GaussianRational(c_re, c_im) for c_re, c_im in zip(*coords))


def cone_inverse(gens: Sequence[Sequence[int]]) -> ConeInverse:
    """The ConeInverse of independent generators; raises DependentGenerators."""
    d = len(gens[0])
    m = len(gens)
    a = [[int(g[r]) for g in gens] + [int(r == j) for j in range(d)] for r in range(d)]
    pivots, last = _bareiss(a, m)
    if len(pivots) < m:
        raise DependentGenerators("generators are linearly dependent")
    sign = -1 if last < 0 else 1
    return ConeInverse(
        rows=tuple(tuple(sign * x for x in row[m:]) for row in a[:m]),
        span=tuple(tuple(row[m:]) for row in a[m:]),
        den=sign * last,
    )


# ---------------------------------------------------------------------------
# integer normal forms


def _copy_int(a: Sequence[Sequence[int]]) -> IntMatrix:
    return [[int(x) for x in row] for row in a]


def hermite_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.  Returns (H, U) with U unimodular, U*A = H.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows sit at the bottom.
    """
    h = _copy_int(a)
    n = len(h)
    cols = len(h[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
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
                    u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
                if h[i][col] != 0:
                    done = False
            if done:
                h[row], h[i0] = h[i0], h[row]
                u[row], u[i0] = u[i0], u[row]
                break
        if h[row][col] == 0:
            continue
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q != 0:
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        row += 1
    return h, u


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.  Returns (D, S, T) with S*A*T = D diagonal,
    S and T unimodular, and nonnegative diagonal entries d1 | d2 | ... ."""
    m = _copy_int(a)
    n = len(m)
    c = len(m[0]) if n else 0
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    t = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in t:
            row[dst] += q * row[src]

    k = 0
    while k < min(n, c):
        # locate smallest nonzero entry in the trailing submatrix
        best = None
        for i in range(k, n):
            for j in range(k, c):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        while True:
            reduced = True
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    add_row(i, k, -q)
                    if m[i][k] != 0:
                        swap_rows(k, i)
                        reduced = False
            for j in range(k + 1, c):
                if m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    add_col(j, k, -q)
                    if m[k][j] != 0:
                        swap_cols(k, j)
                        reduced = False
            if reduced:
                # force divisibility of the rest of the submatrix
                viol = None
                for i in range(k + 1, n):
                    for j in range(k + 1, c):
                        if m[i][j] % m[k][k] != 0:
                            viol = i
                            break
                    if viol is not None:
                        break
                if viol is None:
                    break
                add_row(k, viol, 1)
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
            s[k] = [-x for x in s[k]]
        k += 1
    return m, s, t


def solve_integer(rays: Sequence[Sequence[int]], target: Sequence[int]):
    """Integer solution m of sum_i m_i * rays[i] = target, or None."""
    return solve_with_hnf(*hermite_normal_form(rays), target)


def solve_with_hnf(
    h: Sequence[Sequence[int]], u: Sequence[Sequence[int]], target: Sequence[int]
):
    """solve_integer for rows whose row HNF (H, U) is already known."""
    k = len(h)
    d = len(target)
    y = [0] * k
    resid = [int(x) for x in target]
    for i in range(k):
        piv = next((j for j in range(d) if h[i][j] != 0), None)
        if piv is None:
            break
        if resid[piv] % h[i][piv] != 0:
            return None
        q = resid[piv] // h[i][piv]
        y[i] = q
        resid = [x - q * hx for x, hx in zip(resid, h[i])]
    if any(resid):
        return None
    return tuple(sum(u[i][j] * y[i] for i in range(k)) for j in range(k))


def integer_kernel_basis(rays: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of {m in Z^k : sum_i m_i * rays[i] = 0}."""
    h, u = hermite_normal_form(rays)
    return [tuple(u[i]) for i in range(len(rays)) if all(x == 0 for x in h[i])]


def lattice_generates(rays: Sequence[Sequence[int]]) -> bool:
    """True iff the rows generate Z^d as a group."""
    d = len(rays[0])
    h, _ = hermite_normal_form(rays)
    nonzero = [row for row in h if any(row)]
    if len(nonzero) < d:
        return False
    # full column rank: the pivot of row i sits in column i
    return math.prod(row[i] for i, row in enumerate(nonzero)) == 1


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
    pair counts as orthogonal once |g| <= 1e-15 |a_p| |a_q|.  The
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
                a, b = cols[p], cols[q]
                na, nb = norms[p], norms[q]
                g = sum(x.conjugate() * y for x, y in zip(a, b))
                r = abs(g)
                if r <= _JACOBI_TOL * na * nb or r < sys.float_info.min:
                    continue
                rotated = True
                # b * conj(g)/r pairs with a to the real r; rotate by t = tan
                zeta = (nb - na) * (nb + na) / (2 * r)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1 / math.hypot(1.0, t)
                ph = g.conjugate() / r
                cp, sp = c * ph, c * t * ph
                cols[p] = [c * x - sp * y for x, y in zip(a, b)]
                cols[q] = [c * t * x + cp * y for x, y in zip(a, b)]
                norms[p], norms[q] = _norm(cols[p]), _norm(cols[q])
        if not rotated:
            return sorted((math.ldexp(n, e) for n in norms), reverse=True)
    raise NoConvergence(
        f"singular values: Jacobi sweeps on a {len(rows)}x{len(rows[0])} matrix "
        f"did not converge in {_JACOBI_SWEEPS} sweeps"
    )
