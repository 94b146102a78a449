"""Simplicial stacky fans: validation, cone membership, triangulation.

A stacky fan is a rational simplicial fan in Z^d together with a marked
lattice vector on each ray (markers need not be primitive).  Marked vectors
that appear in no cone are allowed; they only participate through the index
set of the configuration.  Cones are referenced by sorted 0-based tuples of
marker indices; JSON I/O is 1-based.  Every cone solve reads the fan's cone
table (_ConeTable), filled once per fan.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DegenerateHeights,
    DependentGenerators,
    NotFullDimensional,
    PointOutsideSupport,
)
from .linalg import (
    ConeInverse,
    cone_inverse,
    integer_kernel,
    lattice_generates,
    scaled_numerators,
    smith_normal_form,
    solve_integer,
)

ConeRef = tuple[int, ...]


class _ConeTable:
    """What a fan's cone solves read, none of it depending on a parameter.

    Filled on first use: the ConeInverse of each cone solved in (maximal
    cones, or the cones box_of_cone is given), the Smith data of each
    full-dimensional one, and the fan's ValidationReport.  Its size is
    bounded by the fan's cones, and a StackyFan is frozen, so no entry can
    go stale.  build_gkz's copy of an eligible fan with its degree
    functional filled in shares the whole table (see _with_deg).
    """

    __slots__ = ("inverses", "smith", "report")

    def __init__(self):
        self.inverses: dict[ConeRef, ConeInverse] = {}
        self.smith: dict[ConeRef, tuple[tuple[int, ...], Sequence[Sequence[int]]]] = {}
        self.report: Optional[ValidationReport] = None


@dataclass(frozen=True)
class StackyFan:
    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[ConeRef, ...]
    deg: Optional[tuple[int, ...]] = None
    # a cache, so neither compared, hashed, shown nor copied by replace()
    _table: _ConeTable = field(
        default_factory=_ConeTable, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(tuple(int(x) for x in v) for v in self.rays))
        object.__setattr__(
            self, "max_cones", tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        )
        if self.deg is not None:
            object.__setattr__(self, "deg", tuple(int(x) for x in self.deg))

    @property
    def k(self) -> int:
        return len(self.rays)

    def fan_indices(self) -> frozenset[int]:
        """Indices of markers that generate rays of the fan."""
        out = set()
        for c in self.max_cones:
            out.update(c)
        return frozenset(out)

    def gens(self, cone: Sequence[int]) -> list[tuple[int, ...]]:
        return [self.rays[i] for i in cone]

    def deg_of(self, v: Sequence) -> Fraction:
        if self.deg is None:
            raise ValueError("fan has no degree functional")
        return sum((Fraction(x) * d for x, d in zip(v, self.deg)), start=Fraction(0))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...]
    gkz_eligible: bool
    gkz_notes: tuple[str, ...]
    volume: Optional[int]
    deg: Optional[tuple[int, ...]] = None


def _real_numerators(p: Sequence) -> list[int]:
    """The rational point p over a common denominator: the integers L * p."""
    fr = [x if isinstance(x, Fraction) else Fraction(x) for x in p]
    return scaled_numerators(fr, math.lcm(*(x.denominator for x in fr)))


def primitive_direction(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector on the ray through v, preserving orientation."""
    ints = _real_numerators(v)
    g = math.gcd(*ints)
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _cone_inverse(fan: StackyFan, cone: ConeRef) -> ConeInverse:
    """The cone's ConeInverse from the fan's table; raises
    DependentGenerators (and stores nothing) for dependent generators."""
    inv = fan._table.inverses.get(cone)
    if inv is None:
        inv = fan._table.inverses[cone] = cone_inverse(fan.gens(cone))
    return inv


def _cone_smith(fan: StackyFan, cone: ConeRef) -> tuple[tuple[int, ...], Sequence[Sequence[int]]]:
    """Diagonal D and S^-1 of the Smith form S V T = D of a full-dimensional
    cone's generator matrix V (columns), from the fan's table."""
    entry = fan._table.smith.get(cone)
    if entry is None:
        v = [[fan.rays[j][r] for j in cone] for r in range(fan.rank)]
        dmat, s, _t = smith_normal_form(v)
        s_inv = cone_inverse(list(zip(*s))).rows  # S is unimodular: den 1, rows S^-1
        entry = fan._table.smith[cone] = (tuple(dmat[i][i] for i in range(len(cone))), s_inv)
    return entry


def _with_deg(fan: StackyFan, deg: tuple[int, ...]) -> StackyFan:
    """The fan with its degree functional set, sharing the whole cone table:
    build_gkz passes an eligible fan's report.deg, which is 1 on every
    marker, so _validate of the copy returns an equal report."""
    out = StackyFan(rank=fan.rank, rays=fan.rays, max_cones=fan.max_cones, deg=deg)
    object.__setattr__(out, "_table", fan._table)
    return out


def minimal_cone(fan: StackyFan, p: Sequence):
    """Smallest face of the fan containing the real point p, as a ConeRef, or None."""
    nums = _real_numerators(p)
    for cone in fan.max_cones:
        coords = _cone_inverse(fan, cone).numerators(nums)
        if coords is not None and all(c >= 0 for c in coords):
            return tuple(i for i, c in zip(cone, coords) if c)
    return None


def _tangent_test(fan: StackyFan, xi: Sequence):
    """tangent_member(fan, ., xi) with xi's cone coordinates solved once:
    per maximal cone, None when xi is outside its span, else which of its
    coordinates are nonnegative."""
    xnums = _real_numerators(xi)
    signs = []
    for cone in fan.max_cones:
        xc = _cone_inverse(fan, cone).numerators(xnums)
        signs.append(None if xc is None else [c >= 0 for c in xc])

    def member(p: Sequence) -> bool:
        nums = _real_numerators(p)
        in_support = False
        for cone, xs in zip(fan.max_cones, signs):
            pc = _cone_inverse(fan, cone).numerators(nums)
            if pc is None or any(c < 0 for c in pc):
                continue
            in_support = True
            if xs is not None and all(c > 0 or x for c, x in zip(pc, xs)):
                return True
        if not in_support:
            raise PointOutsideSupport(f"fan: point {tuple(p)} is outside the fan support")
        return False

    return member


def tangent_member(fan: StackyFan, p: Sequence, xi: Sequence) -> bool:
    """True iff p + eps*xi stays in the support of the fan for small eps > 0.

    Checked cone by cone: some maximal cone containing p must have all of its
    facet inequalities that are binding at p nonnegative on xi.  Raises
    PointOutsideSupport when p is in no cone.
    """
    return _tangent_test(fan, xi)(p)


def normalized_volume(fan: StackyFan) -> int:
    """Sum of |det| of generator matrices over maximal cones."""
    total = 0
    for cone in fan.max_cones:
        named = tuple(i + 1 for i in cone)
        if len(cone) != fan.rank:
            raise NotFullDimensional(f"volume: cone {named} is not full-dimensional")
        try:
            total += _cone_inverse(fan, cone).den
        except DependentGenerators:
            raise NotFullDimensional(f"volume: cone {named} has dependent generators") from None
    return total


def _facet_counts(fan: StackyFan) -> Counter:
    """Number of maximal cones holding each facet of a maximal cone."""
    return Counter(c[:p] + c[p + 1:] for c in fan.max_cones for p in range(len(c)))


def is_complete(fan: StackyFan) -> bool:
    """True iff every facet of a maximal cone is shared by exactly two cones."""
    if not fan.max_cones or any(len(c) != fan.rank for c in fan.max_cones):
        return False
    return all(v == 2 for v in _facet_counts(fan).values())


# ---------------------------------------------------------------------------
# fan axioms


def _intersection_rays(fan: StackyFan, c1: ConeRef, c2: ConeRef) -> set[tuple[int, ...]]:
    """Primitive directions of the extreme rays of cone(c1) ∩ cone(c2), for
    simplicial cones of any dimension.

    The pairs (a, b) with V1 a = V2 b form K, the kernel of [V1 | -V2].
    Each cone's generators must be independent (validate checks that first),
    so (a, b) -> V1 a is one-to-one on K and the intersection is the image of
    {k in K : k >= 0}.  Writing k = sum t_j K_j in the integer kernel basis,
    each coordinate of k is an inequality on t; a subset of dim K - 1 of them
    with a one-dimensional kernel gives an extreme ray when one sign of its
    kernel vector satisfies all of them.
    """
    g1 = fan.gens(c1)
    g2 = fan.gens(c2)
    rows = [[g[r] for g in g1] + [-g[r] for g in g2] for r in range(fan.rank)]
    basis = integer_kernel(rows, len(g1) + len(g2))
    m = len(basis)
    if m == 0:
        return set()
    ineqs = list(zip(*basis))
    # x = V1 a is linear in t: row r holds the r-th entry of each V1 a_j
    image = [[sum(g[r] * c for g, c in zip(g1, k)) for k in basis] for r in range(fan.rank)]
    rays_out: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(ineqs, m - 1):
        ker = integer_kernel(subset, m)
        if len(ker) != 1:
            continue
        for t in (ker[0], tuple(-x for x in ker[0])):
            if all(sum(a * b for a, b in zip(row, t)) >= 0 for row in ineqs):
                x = [sum(a * b for a, b in zip(row, t)) for row in image]
                rays_out.add(primitive_direction(x))
                break
    return rays_out


def validate(fan: StackyFan) -> ValidationReport:
    """Check the fan axioms and GKZ eligibility, once per fan: the report is
    kept in the fan's cone table.

    Fan axioms: markers nonzero and distinct, every listed maximal cone
    simplicial, and each pairwise intersection of maximal cones equal to the
    cone on the shared marker subset.  GKZ eligibility additionally needs an
    integral degree functional taking value 1 on every marker, markers that
    generate Z^d, full-dimensional cones, and support covering the cone over
    the marker polytope (checked facet by facet: every marker on the inner
    side of every boundary facet).
    """
    if fan._table.report is None:
        fan._table.report = _validate(fan)
    return fan._table.report


def _validate(fan: StackyFan) -> ValidationReport:
    violations: list[str] = []
    d = fan.rank
    k = fan.k
    if d < 1:
        violations.append("rank must be positive")
    if k == 0:
        violations.append("no markers")
    for i, v in enumerate(fan.rays):
        if len(v) != d:
            violations.append(f"marker {i + 1} has wrong length")
        elif not any(v):
            violations.append(f"marker {i + 1} is zero")
    if len(set(fan.rays)) != k:
        violations.append("duplicate markers")
    if not fan.max_cones:
        violations.append("no maximal cones")
    for cone in fan.max_cones:
        if any(i < 0 or i >= k for i in cone):
            violations.append(f"cone {tuple(i + 1 for i in cone)} has out-of-range indices")
            continue
        if len(set(cone)) != len(cone):
            violations.append(f"cone {tuple(i + 1 for i in cone)} repeats an index")
            continue
        try:
            _cone_inverse(fan, cone)
        except DependentGenerators:
            violations.append(f"cone {tuple(i + 1 for i in cone)} is not simplicial")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        violations.append("duplicate maximal cones")
    if fan.deg is not None and not violations:
        for i, v in enumerate(fan.rays):
            if fan.deg_of(v) != 1:
                violations.append(f"deg is not 1 on marker {i + 1}")
                break
    if not violations:
        for c1, c2 in itertools.combinations(fan.max_cones, 2):
            shared = sorted(set(c1) & set(c2))
            expected = {primitive_direction(fan.rays[j]) for j in shared}
            got = _intersection_rays(fan, c1, c2)
            if got != expected:
                violations.append(
                    f"cones {tuple(i + 1 for i in c1)} and {tuple(i + 1 for i in c2)} "
                    "do not intersect in a common face"
                )
    valid = not violations
    volume = None
    if valid:
        try:
            volume = normalized_volume(fan)
        except NotFullDimensional:
            volume = None
    gkz_notes: list[str] = []
    deg = fan.deg
    if not valid:
        gkz_notes.append("fan axioms fail")
    else:
        if deg is None:
            deg = infer_deg(fan.rays)
            if deg is None:
                gkz_notes.append("no integral degree functional equal to 1 on all markers")
        if not lattice_generates(fan.rays):
            gkz_notes.append("markers do not generate the lattice")
        if volume is None:
            gkz_notes.append("maximal cones are not all full-dimensional")
        if deg is not None and volume is not None:
            outside = _uncovered_marker(fan)
            if outside is not None:
                j, cone = outside
                gkz_notes.append(
                    f"support does not cover the marker cone: marker {j + 1} lies beyond "
                    f"a boundary facet of cone {tuple(i + 1 for i in cone)}"
                )
    gkz_eligible = valid and not gkz_notes
    return ValidationReport(
        valid=valid,
        violations=tuple(violations),
        gkz_eligible=gkz_eligible,
        gkz_notes=tuple(gkz_notes),
        volume=volume,
        deg=deg if gkz_eligible or fan.deg is not None else None,
    )


def infer_deg(rays: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Integral functional with value 1 on every marker, or None."""
    d = len(rays[0])
    k = len(rays)
    cols = [tuple(v[j] for v in rays) for j in range(d)]
    g = solve_integer(cols, tuple([1] * k))
    return tuple(g) if g is not None else None


def _uncovered_marker(fan: StackyFan) -> Optional[tuple[int, ConeRef]]:
    """A marker outside the support of a valid full-dimensional fan, with the
    cone of the boundary facet it lies beyond, or None.  Boundary facets are
    those of one maximal cone; row i of the cone's inverse (its adjugate) is
    the inner normal of its facet opposite generator i.  A segment from the support to
    a point outside it leaves through a boundary facet, so the support is
    the cone over the markers iff no marker is beyond one."""
    facets = _facet_counts(fan)
    for cone in fan.max_cones:
        normals = _cone_inverse(fan, cone).rows
        for pos in range(len(cone)):
            if facets[cone[:pos] + cone[pos + 1:]] > 1:
                continue
            for j, v in enumerate(fan.rays):
                if sum(a * b for a, b in zip(v, normals[pos])) < 0:
                    return j, cone
    return None


def triangulate_from_heights(
    points: Sequence[Sequence[int]], heights: Sequence
) -> StackyFan:
    """Stacky fan of the regular triangulation induced by a height vector.

    Cells are the d-subsets S whose height-interpolating functional w
    (w . v_i = h_i on S) satisfies w . v_j <= h_j everywhere, with equality
    exactly on S.  An equality outside S means a non-simplicial lower facet
    and raises DegenerateHeights.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    d = len(pts[0])
    hs = [Fraction(h) for h in heights]
    if len(hs) != len(pts):
        raise ValueError("heights and points must have equal length")
    # integer heights H = den * hs; the subset's points as generators V give
    # rows T with T V = det * I, det = |det V|, so w = T^t h_S / det and
    # p . w <= h_j compares p . (T^t H_S) with det * H_j
    den = math.lcm(*(h.denominator for h in hs))
    h_int = scaled_numerators(hs, den)
    cells: set[ConeRef] = set()
    for subset in itertools.combinations(range(len(pts)), d):
        try:
            inv = cone_inverse([pts[i] for i in subset])
        except DependentGenerators:
            continue
        u = [sum(row[r] * h_int[i] for row, i in zip(inv.rows, subset)) for r in range(d)]
        vals = [sum(x * y for x, y in zip(p, u)) - inv.den * h for p, h in zip(pts, h_int)]
        if any(v > 0 for v in vals):
            continue
        cell = tuple(j for j, v in enumerate(vals) if v == 0)
        if len(cell) > d:
            raise DegenerateHeights(
                f"heights are degenerate: lower facet on markers {tuple(i + 1 for i in cell)}"
            )
        cells.add(cell)
    if not cells:
        raise DegenerateHeights("no full-dimensional lower facet")
    deg = infer_deg(pts)
    if deg is None:
        raise ValueError("markers do not lie on an integral degree-1 hyperplane")
    return StackyFan(rank=d, rays=tuple(pts), max_cones=tuple(sorted(cells)), deg=deg)
