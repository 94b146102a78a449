"""Truncated Gamma-series solutions of the extended hypergeometric system.

Three ingredients combine here.  Exponent vectors are enumerated in windows
of the relation lattice of the marked rays; the reciprocal Gamma factors are
expanded as jets in one nilpotent variable per ray; and the shadow graded
quotient supplies the nilpotent shift operators together with the
finite-dimensional space the series take values in.  Verification routines
check the downward shift identities exactly on truncations, the Euler
relations exactly as matrices, and completeness numerically through the rank
of the assembled solution matrix.
"""

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .box import BoxElement, DeltaCorrespondence, _stabilized
from .errors import (
    DegenerateHeights,
    InvalidFan,
    NoBaseElement,
    NoParticularSolution,
    SeriesOverflow,
    ZeroCoordinate,
)
from .fan import IntRows, StackyFan, _faces, _marker_lattice, _mask, _memo, validate
from .linalg import Coord, Param, _complex, _integral, _real, format_gaussian, parse_rational, read_exact
from .linalg import _dot, cone_inverse, read_int, read_param, singular_values, solve_with_hnf
from .quotient import ModuleSpec, QuotientAlgebra, _dense, build_quotient, graded_piece

# B_2, B_4, ..., B_20; enough for double precision once Re z >= 20
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
)

_STIRLING_CUT = 20.0
_SUGGEST_TARGET = 1e-2


def _times_linear(r: Sequence[complex], a: complex) -> tuple[complex, ...]:
    """The Pochhammer step r * (a + eps), truncated to len(r) terms."""
    return tuple(a * c + p for c, p in zip(r, (0j, *r)))


def exp_jet(a: Sequence[complex], order: int) -> tuple[complex, ...]:
    """exp of the polynomial sum_t a[t] eps^t, truncated to `order` terms."""
    out = [0j] * order
    out[0] = cmath.exp(a[0]) if a else 1 + 0j
    for n in range(1, order):
        acc = 0j
        for t in range(1, n + 1):
            if t < len(a) and a[t] != 0:
                acc += t * a[t] * out[n - t]
        out[n] = acc / n
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _stirling_constants(t: int) -> tuple[float, ...]:
    """The Stirling constants of the log-Gamma jet's coefficient t, once per
    t: B_2n / (2n (2n - 1)) for log Gamma, B_2n / 2n for psi and
    B_2n (2n + t - 2)! / (2n)! for psi^(t - 1); the tail only multiplies
    each by its power of 1/z."""
    return tuple(
        float(b) / ((2 * n) * (2 * n - 1)) if t == 0
        else float(b) / (2 * n) if t == 1
        else float(b) * math.factorial(2 * n + t - 2) / math.factorial(2 * n)
        for n, b in enumerate(_BERNOULLI, start=1)
    )


def log_gamma_jet(z: complex, order: int) -> tuple[complex, ...]:
    """Taylor coefficients of eps -> log Gamma(z + eps); needs Re z >= 1.5.

    One upward walk into Re >= _STIRLING_CUT sums log(z + j) for log Gamma
    and -+(t - 1)! (z + j)^(-t) for psi^(t - 1), t >= 1; each coefficient
    then takes its Stirling tail at the shared end point.  The branch of
    log Gamma is irrelevant to every caller here: the value is only ever
    exponentiated, and the recurrence corrections exponentiate back to the
    exact linear factors.
    """
    z, shift, acc = complex(z), 0j, [0j] * order
    steps = [(t, (-1.0 if t % 2 else 1.0) * math.factorial(t - 1)) for t in range(1, order)]
    while z.real < _STIRLING_CUT:
        shift += cmath.log(z)
        for t, c in steps:
            acc[t] += c * z ** (-t)
        z += 1
    val = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi)
    p = 1 / z
    for c in _stirling_constants(0):
        val += c * p
        p /= z * z
    coeffs, fact = [val - shift], 1.0
    for t in range(1, order):
        if t == 1:
            val, p = cmath.log(z) - 0.5 / z, 1 / (z * z)
            for c in _stirling_constants(1):
                val -= c * p
                p /= z * z
        else:
            val = math.factorial(t - 2) * z ** (1 - t) + math.factorial(t - 1) / 2 * z ** (-t)
            p = z ** (-1 - t)
            for c in _stirling_constants(t):
                val += c * p
                p /= z * z
            if t % 2:
                val = -val
        fact *= t
        coeffs.append((val + acc[t]) / fact)
    return tuple(coeffs)


def reciprocal_gamma_jet(l: complex, order: int) -> tuple[complex, ...]:
    """Taylor coefficients of eps -> 1/Gamma(l + 1 + eps), `order` of them.

    The argument is shifted into Re >= 1.5 by the functional equation, the
    reciprocal is exponentiated from the log-Gamma jet there, and the dropped
    linear factors are multiplied back in.  A pole of Gamma at l + 1 makes
    one factor exactly zero, so the constant term comes out as an exact 0.0,
    and order 1 is (0j,) before the walk.  Coefficient n is formed alike at
    every order above n.  ValueError names an order that is not a positive
    integer and an l that is not a finite number; SeriesOverflow an l where a
    coefficient leaves the float range, as (-l - 1)! does at a pole below -171.
    """
    order = read_int(order, "series", "the jet order", 1)
    z = _complex(l)
    if z is None:
        raise ValueError(f"series: the jet argument l is {l!r}, not a finite number")
    if order == 1 and not z.imag and z.real < 0 and z.real.is_integer():
        return (0j,)
    m0, z = max(0, math.ceil(1.5 - z.real)), z + 1
    try:
        jet = exp_jet(tuple(-c for c in log_gamma_jet(z + m0, order)), order)
    except (OverflowError, ValueError):  # ValueError: log 0, where z + m0 rounds to 0
        jet = (math.inf,)
    for j in range(m0):  # stops at the first product past the float range
        if not all(map(cmath.isfinite, jet)):
            break
        jet = _times_linear(jet, z + j)
    if not all(map(cmath.isfinite, jet)):
        raise SeriesOverflow(f"series: 1/Gamma(l + 1) overflows at l={l!r}")
    return jet


@dataclass(frozen=True)
class GkzInstance:
    """Eligible fan, parameter, its stabilization, and the shadow quotient;
    its series and checks read the fan's window table in rows (_row)."""

    fan: StackyFan
    beta: tuple[Coord, ...]
    correspondence: DeltaCorrespondence
    quotient: QuotientAlgebra
    # caches, neither compared, hashed, shown nor copied by replace(): the memos
    # (fan._memo) of the last point's series evaluator and the last bound's rows
    _series: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class LVector:
    """One exponent vector l with sum(l_i v_i) = beta - v and l - alpha integral.

    offset is that integer vector l - alpha; its l1 norm is the window weight.
    """

    l: tuple[Coord, ...]
    alpha: BoxElement
    v: tuple[int, ...]
    offset: tuple[int, ...]


@dataclass(frozen=True)
class SeriesValue:
    v: tuple[int, ...]
    x: tuple[complex, ...]
    value: tuple[complex, ...]
    truncation_bound: int
    tail_estimate: float


@dataclass(frozen=True, repr=False)
class TermShiftReport:
    """Exact comparison of shifted term sets, with the window boundary listed.

    The boundary is kept as runs (source, v, offsets) of the window offsets
    outside the core, one per source and side, in boundary order, and no
    instance.  Their LVectors are built on the first read of boundary (see
    _lvectors) and kept; boundary_count needs none.  The two sides of a
    source have different v, so the runs group the boundary in one way
    only: two reports are equal exactly when their (ok, boundary) are, and
    repr shows those.
    """

    ok: bool
    _runs: tuple[tuple[BoxElement, tuple[int, ...], IntRows], ...]

    def __bool__(self) -> bool:
        return self.ok

    @functools.cached_property
    def boundary(self) -> tuple[LVector, ...]:
        return tuple(lv for alpha, v, offsets in self._runs for lv in _lvectors(alpha, v, offsets))

    @property
    def boundary_count(self) -> int:
        return sum(len(offsets) for _, _, offsets in self._runs)

    def __repr__(self) -> str:
        return f"TermShiftReport(ok={self.ok!r}, boundary={self.boundary!r})"


@dataclass(frozen=True)
class SolutionSystem:
    """The series matrix, a row per v, and its column-scaled singular values.
    gap is inf when sigma_dim > 0 and 0 otherwise: the matrix has dim columns."""

    vs: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[complex, ...], ...]
    rank: int
    singular_values: tuple[float, ...]
    gap: float
    rank_deficient: bool
    tail_estimate: float


def build_gkz(fan: StackyFan, beta: Sequence) -> GkzInstance:
    """Stabilize the parameter and build the shadow quotient it acts on; the
    window scans read the markers' lattice from the fan (fan._marker_lattice)."""
    report = validate(fan)
    if not report.gkz_eligible:
        notes = "; ".join(report.violations + report.gkz_notes)
        raise InvalidFan(f"fan: no extended hypergeometric system on this fan: {notes}")
    corr = _stabilized(fan, read_param(beta, "box", "beta", fan.rank))
    quotient = build_quotient(ModuleSpec(fan, corr.beta_delta, tuple(b.real for b in corr.beta)))
    return GkzInstance(fan, corr.beta, corr, quotient)


def _window_plan(relations: IntRows, k: int) -> tuple:
    """The window scan's plan for k markers and relations h_0, h_1, ... in row
    echelon form, built once per fan (see _window): per row, the
    (column, entry) pairs that fixing c_i makes final, as no later row touches
    them, and the row's nonzero pairs; and the free columns, which no row touches.
    ValueError names a row that does not sum to 0, as the degree bound needs."""
    for h in relations:
        if sum(h):
            raise ValueError(
                f"window: relation row {tuple(h)} sums to {sum(h)}, not 0; "
                "the degree bound needs relations of degree 0"
            )
    last = {j: i for i, h in enumerate(relations) for j, y in enumerate(h) if y}
    levels = tuple((tuple((j, y) for j, y in enumerate(h) if y and last[j] == i),
                    tuple((j, y) for j, y in enumerate(h) if y)) for i, h in enumerate(relations))
    return levels, tuple(j for j in range(k) if j not in last)


def _window_offsets(part, plan, B: int) -> tuple[IntRows, tuple[int, ...]]:
    """(offsets, norms): every m = part + sum_i c_i h_i with |m|_1 <= B, in
    lexicographic order, and each one's l1 norm, for a _window_plan's h_i.

    The scan fixes c_0, c_1, ... in turn.  Every h_i sums to 0, so the
    columns not yet final sum to rest = sum(part) - (sum of the final ones)
    and need l1 norm at least |rest|; a level keeps exactly the c_i whose
    final columns x leave that much of the room B - (norm of the columns
    final before), so |rest| <= room on entry.  With one final column that
    is (rest - room) / 2 <= x <= (rest + room) / 2, an interval of c_i taken
    whole; with several, c_i runs over the columns' ranges |x_j| <= room and
    stops at the first failure after a pass, the norm being convex in c_i.
    A child updates only the row's nonzero columns.  Ascending c_i walk
    ascending m[p_i] at the pivots p_0 < p_1 < ..., so the offsets are sorted.
    """
    levels, free = plan
    offsets, norms = [], []

    def scan(i: int, m: list, used: int, rest: int) -> None:
        # used: the l1 norm of the columns final before level i
        if i == len(levels):  # no relation: part is the one candidate
            offsets.append(tuple(m))
            norms.append(used)
            return
        cols, row = levels[i]
        room, leaf, inside = B - used, i + 1 == len(levels), False
        if len(cols) == 1:  # never the last level, which finalizes its row's two or more columns
            ((p, y),) = cols
            a, b = -((room - rest) // 2) - m[p], (rest + room) // 2 - m[p]
            lo, hi = (-(-a // y), b // y) if y > 0 else (-(-b // y), a // y)
            for c in range(lo, hi + 1):
                x, child = m[p] + c * y, m.copy()
                for j, z in row:
                    child[j] += c * z
                scan(i + 1, child, used + abs(x), rest - x)
            return
        lo = hi = None  # -room <= m_j + c * y <= room; dividing by y < 0 swaps the ends
        for j, y in cols:
            a, b = -room - m[j], room - m[j]
            a, b = (-(-a // y), b // y) if y > 0 else (-(-b // y), a // y)
            lo, hi = a if lo is None or a > lo else lo, b if hi is None or b < hi else hi
        for c in range(lo, hi + 1):
            norm, total = used, rest
            for j, y in cols:
                x = m[j] + c * y
                norm += abs(x)
                total -= x
            if norm + abs(total) > B:
                if inside:
                    break
                continue
            inside, child = True, m.copy()
            for j, y in row:
                child[j] += c * y
            if leaf:
                offsets.append(tuple(child))
                norms.append(norm)
            else:
                scan(i + 1, child, norm, total)

    used, rest = sum(abs(part[j]) for j in free), sum(part) - sum(part[j] for j in free)
    if used + abs(rest) <= B:
        scan(0, list(part), used, rest)
    return tuple(offsets), tuple(norms)


def _window(instance: GkzInstance, alpha: BoxElement, v: tuple[int, ...], B: int):
    """(offsets, norms): the offsets l - alpha of the window of l1 size <= B
    at index v, in lexicographic order, and each offset's l1 norm beside it,
    as the scan computed it.  B is the int linalg.read_int reads at every
    entry point, so B = 4.0 and B = 4 share one window in either order.
    The offsets depend on v and alpha only through the target -v - n, never
    on beta: the fan's table keeps per target (fan._ConeTable) its solution,
    top bound and views by B, views[top] the scan and views[B] its offsets of
    norm <= B in order, built on the first read at B, as every window at
    B' >= B holds the window at B; a larger B scans once and replaces all.
    A target past B max_i |v_i|_1 has none, is kept nowhere and solved only
    where the markers' Hermite form shows they miss a target; that bound,
    that test and the scan's plan are built once per fan (_ConeTable.plan)."""
    fan = instance.fan
    target = tuple(map(operator.neg, map(operator.add, v, alpha.lattice_point)))
    part, top, views = fan._table.windows.get(target) or (None, -1, None)
    if top < B:
        if fan._table.plan is None:
            h, _, relations = _marker_lattice(fan)
            unit = [row[r] for r, row in enumerate(h[: fan.rank])] == [1] * fan.rank
            fan._table.plan = _window_plan(relations, fan.k), max(sum(map(abs, r)) for r in fan.rays), unit
        plan, reach, unit = fan._table.plan
        far = top < 0 and sum(map(abs, target)) > B * reach
        # markers that generate Z^d reach every target, so a far one needs no solution
        if part is None and not (far and unit):
            part = solve_with_hnf(*_marker_lattice(fan)[:2], target)
            if part is None:
                raise NoParticularSolution(
                    f"window: markers do not reach the target {target} of v={v}, "
                    f"n={alpha.lattice_point}; the marker lattice is degenerate"
                )
        if far:
            return (), ()
        top, views = B, {B: _window_offsets(part, plan, B)}
        fan._table.windows[target] = (part, top, views)
    view = views.get(B)
    if view is None:
        offsets, norms = views[top]
        kept = [i for i, n in enumerate(norms) if n <= B]
        view = views[B] = (tuple(offsets[i] for i in kept), tuple(norms[i] for i in kept))
    return view


def _row(instance: GkzInstance, v: tuple[int, ...], B: int) -> tuple:
    """Each source's window view at index v (_window), in triple order, read
    once per instance, v and B; the instance keeps the last B's (fan._memo)."""
    windows = (_window(instance, src, v, B) for src, _, _ in instance.correspondence.triples)
    return _memo(instance._rows, B, v, tuple, windows, kept=1)


def _lvectors(alpha: BoxElement, v: tuple[int, ...], offsets) -> tuple[LVector, ...]:
    """The LVectors l = alpha + m at the given offsets m of the window at v."""
    a = Param.of(alpha.alpha)
    return tuple(
        LVector(Param(a.den, tuple(r + a.den * x for r, x in zip(a.re, m)), a.im).values, alpha, v, m)
        for m in offsets
    )


def _read_point(fan: StackyFan, v, B, j=None) -> tuple:
    """(v, B, j) as every series entry point reads them, in that order: B and
    a given ray index j as the ints they equal; ValueError names any other j."""
    v, B = read_exact(v, _integral, "series", "v", fan.rank), read_int(B, "window", "the bound B", 0)
    n = j if j is None else read_int(j, "series", "j")
    if j is not None and n not in fan.fan_indices():
        raise ValueError(f"series: j={j!r} is not a ray index of the fan; expected one of {sorted(fan.fan_indices())}")
    return v, B, n


def enumerate_L(instance: GkzInstance, alpha: BoxElement, v: Sequence[int], B: int) -> tuple[LVector, ...]:
    """All l with the exact defining relations and integer offset of l1 size <= B,
    ordered by offset, from the window table every instance and beta on the
    fan share (_window).

    alpha must be one of the instance's sources (the first entries of
    correspondence.triples): for any other element, l = alpha + m would not
    satisfy sum(l_i v_i) = beta - v, and ValueError is raised.
    """
    v, B, _ = _read_point(instance.fan, v, B)
    for src, _, _ in instance.correspondence.triples:
        if src == alpha:
            return _lvectors(src, v, _window(instance, src, v, B)[0])
    raise ValueError("enumerate_L: alpha is not a source box element of this instance")


def _apply_jet(mat, jet, vec):
    """sum_t jet[t] * mat^t vec; mat is nilpotent so the loop is short."""
    out = [jet[0] * x for x in vec]
    cur = vec
    for t in range(1, len(jet)):
        cur = [sum(map(operator.mul, row, cur)) for row in mat]
        if not any(cur):
            break
        jt = jet[t]
        if jt != 0:
            out = [o + jt * c for o, c in zip(out, cur)]
    return out


class _SeriesEvaluator:
    """The series terms of one instance at one point, each computed once.

    By DLMF 5.5.1, 1/Gamma(l_i + 1 + eps) = R(eps) / Gamma(alpha_i + 1 +
    eps) at l = alpha + m, R = R_{alpha_i,m_i} a product of linear factors
    (see entry).  So the term of triple t at m is x^l prod_i R_{alpha_i,m_i}
    on T_alpha e_t, its target's base vector e_t transported once by the
    jets x_i^eps / Gamma(alpha_i + 1 + eps).  A constant R multiplies x^l, a
    ray's R of higher order acts through D_i; a triple of order 1 has only
    constant R and T_alpha e_t on e_t, so its terms are complex numbers on
    e_t's coordinate.  Kept: T_alpha e_t by t, (l_i, R) by (t, i, m_i),
    terms by (t, m), the last B's values by v (fan._memo).  Every float takes
    one route, so no value depends on what was evaluated before.  It holds no
    reference to the instance, which holds it.
    """

    def __init__(self, instance: GkzInstance, xs, offs, given=(None, None)):
        q, corr = instance.quotient, instance.correspondence
        self.xs, self.given = xs, given  # given: the x and offsets objects read to xs, offs
        self.logs = tuple(cmath.log(c) + 1j * o for c, o in zip(xs, offs))
        self.dim = q.dim
        self.dmats = _dense(q, 0j, lambda x: complex(float(x)))
        # a summand's basis runs from its base element, of degree 0, upward
        self.orders = tuple(1 if q.bases[p] is None else 1 + q.basis[q.bases[p] + q.dims[p] - 1].degree
                            for p in corr.positions)
        self.sources = tuple(src for src, _, _ in corr.triples)
        self.parts = tuple(tuple((a.real, float(a.imag)) for a in src.alpha) for src in self.sources)
        # supp(alpha) of each triple as a bitmask
        self.supports = tuple(_mask(src.support) for src in self.sources)
        self.faces = _faces(instance.fan)
        self.bases = tuple((q.bases[pos], tgt) for pos, (_, tgt, _) in zip(corr.positions, corr.triples))
        self.entries, self.folded, self.terms, self.values = {}, {}, {}, {}

    def base(self, t: int) -> int:
        """The coordinate k of triple t's base element e_t; NoBaseElement if none."""
        index, tgt = self.bases[t]
        if index is None:
            alpha = ", ".join(map(format_gaussian, tgt.alpha))
            raise NoBaseElement(
                f"series: the shadow quotient has no base element for the target box "
                f"element alpha=({alpha}), n={tgt.lattice_point}"
            )
        return index

    def vanishes(self, t: int, m: tuple[int, ...]) -> bool:
        """Whether the term of triple t at m is exactly zero, from integers:
        with J = {i : alpha_i = 0, m_i < 0}, where l_i is a negative integer,
        it carries prod_{i in J} D_i, or 0 at a non-ray i, so it vanishes when
        supp(alpha) and J lie in no cone (Stanley-Reisner; Borisov-Horja, Math.
        Ann. 357, 2013) or |J| >= order_t, 1 + the top degree of the target's
        summand.  The union is supp(alpha) and every i with m_i < 0."""
        face = support = self.supports[t]
        for i, mi in enumerate(m):
            if mi < 0:
                face |= 1 << i
        return face not in self.faces or (face & ~support).bit_count() >= self.orders[t]

    def entry(self, t: int, i: int, mi: int):
        """(l_i, R_{alpha_i,m_i}) of triple t, each built once, by one step from
        its neighbour toward m_i = 0 (an exact 0.0 at a pole)."""
        hit = self.entries.get((t, i, mi))
        if hit is None:
            re, im = self.parts[t][i]
            r = (1 + 0j,) + (0j,) * ((self.orders[t] if 1 << i in self.faces else 1) - 1)  # i a ray
            for k in range(mi + 1) if mi >= 0 else range(0, mi - 1, -1):
                hit = self.entries.get((t, i, k))
                if hit is None:
                    lk = complex(float(re + k), im)
                    if k > 0:  # R / (l_k + eps): coefficient n is (R_n - the one before) / l_k
                        b = 0
                        r = tuple(b := (c - b) / lk for c in r)
                    elif k < 0:  # R * (l_k + 1 + eps)
                        r = _times_linear(r, lk + 1)
                    hit = self.entries[t, i, k] = (lk, r)
                r = hit[1]
        return hit

    def term(self, t: int, m: tuple[int, ...]):
        """The term at m: x^l and each R of order 1 times T_alpha e_t acted
        on by the other R; on a triple of order 1 the complex number on
        e_t's coordinate.  SeriesOverflow names one that is not finite."""
        hit = self.terms.get((t, m))
        if hit is None:
            entries = [self.entry(t, i, mi) for i, mi in enumerate(m)]
            scalar, w = self.orders[t] == 1, self.folded.get(t)
            if w is None:
                k = self.base(t)
                w = [1 + 0j] if scalar else [0j] * k + [1 + 0j] + [0j] * (self.dim - 1 - k)
                for i, lg in enumerate(self.logs):
                    a, r = self.entry(t, i, 0)  # alpha_i, and R = 1 at the order of i's jets
                    for jet in reciprocal_gamma_jet(a, len(r)), exp_jet((0j, lg), len(r)):
                        w = _apply_jet(self.dmats[i], jet, w)  # x_i^eps is 1 at order 1
                w = self.folded[t] = w[0] if scalar else w
            what = "x^l"
            try:
                c = cmath.exp(sum(li * lg for (li, _), lg in zip(entries, self.logs)))
                what = "the term"
                for i, (_, r) in enumerate(entries):
                    if len(r) == 1:
                        c *= r[0]
                    else:
                        w = _apply_jet(self.dmats[i], r, w)
                w = c * w if scalar else [c * wr for wr in w]
                if not all(map(cmath.isfinite, (w,) if scalar else w)):
                    raise OverflowError
            except OverflowError:
                alpha = ", ".join(map(format_gaussian, self.sources[t].alpha))
                raise SeriesOverflow(
                    f"series: {what} overflows for the source box element alpha=({alpha}) "
                    f"at offset m={m} and x=({', '.join(map(str, self.xs))})"
                ) from None
            hit = self.terms[t, m] = w
        return hit


def _evaluator(instance: GkzInstance, x, arg_offsets) -> _SeriesEvaluator:
    """The instance's evaluator at x, built on the first call at that point;
    only the last point's is kept.  It is keyed by x and the offsets as read
    to floats; a call with the very objects it was built from, each None or
    a tuple of float, int or complex and so unchanged, reads nothing again."""
    for kept in instance._series.values():  # the last point's, if any
        ev = kept["evaluator"]
        if all(p is q and (p is None or type(p) is tuple and {*map(type, p)} <= {float, int, complex})
               for p, q in zip((x, arg_offsets), ev.given)):
            return ev
    xs = _check_x(instance.fan, x)
    # principal branch by default; offsets turn the argument by whole radians
    # per coordinate, selecting another sheet of the multivalued powers
    offs = (0.0,) * len(xs)
    if arg_offsets is not None:
        offs = read_exact(arg_offsets, _real, "series", "arg_offsets", len(xs))
    key = repr((xs, offs))  # repr tells 0.0 from -0.0, which == and hash do not
    return _memo(instance._series, key, "evaluator", _SeriesEvaluator, instance, xs, offs, (x, arg_offsets), kept=1)


def _check_x(fan: StackyFan, x) -> tuple[complex, ...]:
    """x read as k finite complex numbers; ZeroCoordinate names a zero one."""
    xs = read_exact(x, _complex, "series", "x", fan.k)
    for i, c in enumerate(xs, start=1):
        if c == 0:
            raise ZeroCoordinate(
                f"series: coordinate {i} of x is zero; evaluation needs nonzero coordinates"
            )
    return xs


def gamma_series(instance: GkzInstance, v: Sequence[int], x, B: int, arg_offsets=None) -> SeriesValue:
    """Window truncation of the series solution indexed by v, at the point x.

    The tail estimate is the max-norm of the outermost nonempty shell of
    kept terms: the value at B less the value at the largest smaller norm
    present.  Each (v, B) is summed once per instance and point: the
    point's evaluator keeps the values of the last B (see _SeriesEvaluator).
    """
    v, B, _ = _read_point(instance.fan, v, B)
    ev = _evaluator(instance, x, arg_offsets)
    return _memo(ev.values, B, v, _summed, instance, ev, v, B, kept=1)


def _summed(instance: GkzInstance, ev: _SeriesEvaluator, v, B: int, j=None) -> SeriesValue:
    """The v-series, or with a ray j its derivative in x_j over the window at
    v + v_j (by the unshifted m = s + e_j of each entry s), summed in window
    order, skipping each term vanishes finds zero; a triple of order 1 in
    complex numbers on its base coordinate k, which no other triple reaches.
    The tail reads each triple's shell, its kept terms at its top norm."""
    total, zero, shells = [0j] * ev.dim, (0j,) * ev.dim, []
    at = v if j is None else tuple(a + b for a, b in zip(v, instance.fan.rays[j]))
    for t, window in enumerate(_row(instance, at, B)):
        k, scalar = ev.base(t), ev.orders[t] == 1
        acc, top, shell = (total[k], -1, 0j) if scalar else (total, -1, zero)
        for m, nm in zip(*window):
            if j is not None:
                m = m[:j] + (m[j] + 1,) + m[j + 1 :]
            if ev.vanishes(t, m):
                continue
            term = ev.term(t, m)
            if j is not None:  # D_j is 0 on a summand of order 1
                lj, xj = ev.entry(t, j, m[j])[0], ev.xs[j]
                term = (lj * term + 0j) / xj if scalar else [
                    (lj * wr + _dot(r, term)) / xj for wr, r in zip(term, ev.dmats[j])]
            acc = acc + term if scalar else list(map(operator.add, acc, term))
            if nm >= top:  # shell: the kept terms at top, the largest norm so far
                before = shell if nm == top else 0j if scalar else zero
                top, shell = nm, before + term if scalar else list(map(operator.add, before, term))
        if scalar:
            total[k], shell = acc, (shell,)
        else:
            total = acc
        shells.append((top, shell))
    best = max((top for top, _ in shells), default=-1)
    tail = max((abs(c) for top, shell in shells if top == best for c in shell), default=0.0)
    return SeriesValue(v, ev.xs, tuple(total), B, tail)


def gamma_series_derivative(
    instance: GkzInstance, v: Sequence[int], x, B: int, j: int, arg_offsets=None
) -> SeriesValue:
    """Term-analytic partial derivative of the v-series in the j-th coordinate.

    Each term at exponent l differentiates to l - e_j, a term of the series
    at v + v_j, and is truncated in that series' window, so the two compare
    term for term.  The derivative forms (l_j + D_j) R_{alpha_j,m_j} where
    the shifted series forms R_{alpha_j,m_j - 1}, so the comparison checks
    that Pochhammer step, the window alignment, D_j and the 1/x_j factor;
    the jet goldens and the series oracles check the T_alpha both share.
    """
    v, B, j = _read_point(instance.fan, v, B, j)
    return _summed(instance, _evaluator(instance, x, arg_offsets), v, B, j)


def verify_term_shift(instance: GkzInstance, v: Sequence[int], j: int, B: int) -> TermShiftReport:
    """Exact check that shifting terms of the v-series down in coordinate j
    reproduces the term set of the series at v + v_j.

    Offsets of l1 size within B - 1 must match exactly; anything outside that
    core window is collected as the boundary, never silently dropped.  The
    shifted norm |m - e_j|_1 is the window's norm of m, less 1 where m_j > 0
    and plus 1 elsewhere.  Both windows are in lexicographic order, which
    m -> m - e_j keeps, so the two cores are compared as lists.  No exact
    coordinate is built here: the report keeps the boundary's offsets and
    builds its LVectors when boundary is read (see TermShiftReport).
    """
    v, B, j = _read_point(instance.fan, v, B, j)
    v2 = tuple(map(operator.add, v, instance.fan.rays[j]))
    core, ok, runs = B - 1, True, []
    for (src, _, _), lw, rw in zip(instance.correspondence.triples, _row(instance, v, B), _row(instance, v2, B)):
        left, left_out = [], []
        for m, nm in zip(*lw):
            mj = m[j]
            if (nm - 1 if mj > 0 else nm + 1) <= core:
                left.append(m[:j] + (mj - 1,) + m[j + 1 :])
            else:
                left_out.append(m)
        right, right_out = [], []
        for m, nm in zip(*rw):
            (right if nm <= core else right_out).append(m)
        runs += [(src, w, tuple(out)) for w, out in ((v, left_out), (v2, right_out)) if out]
        ok = ok and left == right
    return TermShiftReport(ok, tuple(runs))


def verify_euler(instance: GkzInstance) -> bool:
    """True iff every degree functional kills the assembled shift operators,
    exactly: entry (a, b) of the r-th operator is sum_i (v_i)_r D_i[a][b] over
    all k markers, so a D_i off the rays must vanish too.  It sums the stored
    entries (QuotientAlgebra.entries) as integers, c * numerator per
    denominator, and forms a Fraction only from a nonzero sum."""
    sums: dict = {}
    for ray, entries in zip(instance.fan.rays, instance.quotient.entries):
        for a, b, x in entries:
            for r, c in enumerate(ray):
                if c:
                    by_den = sums.setdefault((r, a, b), {})
                    by_den[x.denominator] = by_den.get(x.denominator, 0) + c * x.numerator
    return not any(sum(Fraction(n, d) for d, n in by_den.items() if n) for by_den in sums.values())


def solution_system(
    instance: GkzInstance, x, B: int, v_degree_cap: int = 2, arg_offsets=None
) -> SolutionSystem:
    """Series values for all index points up to the degree cap, with the
    numerical rank: the singular values above 1e-9 * sigma_max of the matrix
    with each column divided by its max-norm, which keeps the exact rank.

    rank_deficient flags rank < dim instead of raising: a too-small window is
    reported together with its tail estimate for diagnosis.  ValueError names
    a negative or non-integral v_degree_cap; a negative one would otherwise
    give an empty system that reads as a result.
    """
    cap = read_int(v_degree_cap, "solution_system", "v_degree_cap", 0)
    fan = instance.fan
    spec0 = ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    vs = tuple(p for m in range(cap + 1) for p in graded_piece(spec0, m).points)
    series = [gamma_series(instance, v, x, B, arg_offsets) for v in vs]
    rows = tuple(sv.value for sv in series)
    tail = max([0.0] + [sv.tail_estimate for sv in series])
    norms = [max(map(abs, col)) or 1.0 for col in zip(*rows)]  # a zero column stays zero
    svals = singular_values([[e / c for e, c in zip(row, norms)] for row in rows])
    dim = instance.quotient.dim
    top = svals[0] if svals else 0.0
    rank = sum(1 for s in svals if top > 0 and s > 1e-9 * top)
    gap = math.inf if dim - 1 < len(svals) and svals[dim - 1] > 0 else 0.0
    return SolutionSystem(vs, rows, rank, tuple(svals), gap, rank < dim, tail)


def suggest_x(instance: GkzInstance, heights: Sequence) -> tuple[float, ...]:
    """Evaluation point from triangulation heights: x_i = rho^(h_i - <c, v_i>)
    with rho set so every relation-lattice generator contracts its monomial
    to _SUGGEST_TARGET.  The exact least-squares c (V^T V c = V^T h) changes
    no relation's pairing and balances the point on the torus."""
    fan = instance.fan
    hs = read_exact(heights, parse_rational, "series", "heights", fan.k)
    hnf, u, _ = _marker_lattice(fan)
    kernel = [row for row, hrow in zip(u, hnf) if not any(hrow)]
    if not kernel:
        return (1.0,) * fan.k
    pairings = [abs(sum(h * g for h, g in zip(hs, gen))) for gen in kernel]
    if 0 in pairings:
        gen = tuple(kernel[pairings.index(0)])
        raise DegenerateHeights(f"series: heights pair to zero with the relation-lattice generator {gen}")
    rho = _SUGGEST_TARGET ** (1 / float(min(pairings)))
    cols = tuple(zip(*fan.rays))  # the columns of V, whose rows are the markers
    inv = cone_inverse([[_dot(a, b) for a in cols] for b in cols], fan.rank)  # eligible: V^T V is invertible
    c = [n / inv.den for n in inv.numerators([_dot(col, hs) for col in cols])]
    return tuple(rho ** float(h - _dot(c, v)) for h, v in zip(hs, fan.rays))
