"""Simplicial stacky fans: validation, cone membership, triangulation.

A stacky fan is a rational simplicial fan in Z^d together with a marked
lattice vector on each ray (markers need not be primitive).  Marked vectors
that appear in no cone are allowed; they only participate through the index
set of the configuration.  Cones are referenced by sorted 0-based tuples of
marker indices; JSON I/O is 1-based.  Every cone solve reads the fan's cone
table (_ConeTable), filled once per fan, which also keeps the bounded memos
(_memo) of collision classes, stabilizations, graded pieces, quotients and
the quotient's summand blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import DegenerateHeights, DependentGenerators, InvalidFan, NotFullDimensional
from .linalg import (
    ConeInverse,
    _dot,
    _integral,
    _rref,
    as_sequence,
    cone_inverse,
    feasible,
    hermite_normal_form,
    parse_rational,
    read_exact,
    read_int,
    scaled_numerators,
    solve_with_hnf,
)

ConeRef = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


class _ConeTable:
    """What a fan's cone solves read, and the results of its last parameters.

    Filled on first use: the ConeInverse of each cone solved in (maximal
    cones, or the cones box_of_cone is given; the fan's construction checked
    their markers), the Hermite diagonal of each full-dimensional one (its
    residues, see _cone_residues), the face table, every face with its
    cover (see _faces; the one source of face facts, which the shadow
    filter _tangent_test reads), the markers' lattice (see _marker_lattice),
    the window scan's plan for its relations (gkz._window_plan, built on the
    first scan) and the fan's ValidationReport, whose deg the quotient reads.
    Their size is bounded by the fan's cones and markers, and a StackyFan is
    frozen, so no entry can go stale.  windows: each target's particular
    solution, the largest B scanned and its views by B (gkz._window), the one
    place a window is kept; disjoint pieces of the l1 ball, one target each.
    params is the parameter memo (see _memo), for two parameters, each
    under its form (linalg.Param): "collisions",
    "stabilize" and the quotients, keyed by xi.  stabilize fills a beta
    and, when it differs, its beta_delta, whose "collisions" it writes from
    beta's.  graded, for two shifts chi as given, holds the graded pieces,
    keyed by (xi, m), and the "collisions" they read: solution_system reads
    pieces at chi = 0, which in params would displace a parameter or its
    beta_delta.  blocks holds such a memo per face S: the "block"
    (quotient._Summand, which the quotients and graded pieces read) under
    its signature T_S, the faces holding S that the shadow filter passes
    (_tangent_test; None without xi), two signatures per face, so the
    fan's faces times two.  shadows holds the passing faces of the last two
    xi (_tangent_test).  No key holds deg, which is the fan's own.
    A table belongs to one fan: replace() gives the copy a fresh one.
    """

    __slots__ = ("inverses", "residues", "faces", "lattice", "plan", "windows", "report", "params", "graded",
                 "blocks", "shadows")

    def __init__(self):
        self.inverses: dict[ConeRef, ConeInverse] = {}
        self.residues: dict[ConeRef, tuple[int, ...]] = {}
        self.faces: Optional[dict[int, int]] = None
        self.lattice: Optional[tuple[IntRows, IntRows, IntRows]] = None
        self.plan: Optional[tuple] = None
        self.windows: dict[tuple[int, ...], tuple] = {}
        self.report: Optional[ValidationReport] = None
        self.params: dict[tuple, dict] = {}
        self.graded: dict[tuple, dict] = {}
        self.blocks: dict[int, dict] = {}
        self.shadows: dict[tuple, dict] = {}


# a parameter and its delta-stabilized beta_delta
_PARAMS_KEPT = 2


def _memo(memo: dict, recent, key, build: Callable, *args, kept: int = _PARAMS_KEPT):
    """build(*args), kept in memo under recent and key; every bounded cache
    is one.  Only the `kept` most recently used values of recent are kept:
    two parameters, shifts, T_S of a face or xi in a fan's params, graded,
    per-face blocks and shadows (see _ConeTable), one bound or point in a
    GkzInstance's.  A build that raises stores nothing, nor a degree of a block."""
    entry = memo.get(recent)
    if entry is None or len(memo) > 1:  # a lone entry is already the last
        entry = memo[recent] = memo.pop(recent, {})  # most recently used last
        while len(memo) > kept:
            del memo[next(iter(memo))]
    if key not in entry:
        entry[key] = build(*args)
    return entry[key]


@dataclass(frozen=True)
class StackyFan:
    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[ConeRef, ...]
    deg: Optional[tuple[int, ...]] = None
    # a cache, so neither compared, hashed, shown nor copied by replace()
    _table: _ConeTable = field(default_factory=_ConeTable, init=False, compare=False, repr=False)

    def __post_init__(self):
        """The one decision of a fan's shape: a positive rank, rays of that
        length, cone entries that index a marker; ValueError names the field,
        and a cone entry only by position, as the CLI shifts indices."""
        object.__setattr__(self, "rank", read_int(self.rank, "fan", "rank", 1))
        rays = enumerate(as_sequence(self.rays, "fan", "rays"), 1)
        rays = tuple(read_exact(v, _integral, "fan", f"ray {r}", self.rank) for r, v in rays)
        object.__setattr__(self, "rays", rays)
        cones = []
        for r, c in enumerate(as_sequence(self.max_cones, "fan", "max_cones"), 1):
            cone = read_exact(c, _integral, "fan", f"cone {r}")
            pos = next((p for p, i in enumerate(cone, 1) if not 0 <= i < len(rays)), None)
            if pos is not None:
                raise ValueError(f"fan: entry {pos} of cone {r} is out of range for {len(rays)} markers")
            cones.append(tuple(sorted(cone)))
        object.__setattr__(self, "max_cones", tuple(cones))
        if self.deg is not None:
            object.__setattr__(self, "deg", read_exact(self.deg, _integral, "fan", "deg", self.rank))

    @property
    def k(self) -> int:
        return len(self.rays)

    def fan_indices(self) -> frozenset[int]:
        """Indices of markers that generate rays of the fan."""
        return frozenset().union(*self.max_cones)

    def gens(self, cone: Sequence[int]) -> list[tuple[int, ...]]:
        return [self.rays[i] for i in cone]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...]
    gkz_eligible: bool
    gkz_notes: tuple[str, ...]
    volume: Optional[int]
    deg: Optional[tuple[int, ...]] = None


def _cone_inverse(fan: StackyFan, cone: ConeRef) -> ConeInverse:
    """The cone's ConeInverse from the fan's table; raises
    DependentGenerators (and stores nothing) for dependent generators.  Every
    marker has the rank's length, as the fan is built."""
    inv = fan._table.inverses.get(cone)
    if inv is None:
        inv = fan._table.inverses[cone] = cone_inverse(fan.gens(cone), fan.rank)
    return inv


def _full_cone(fan: StackyFan, cone: ConeRef, stage: str) -> ConeInverse:
    """The ConeInverse of a full-dimensional cone, for a stage that needs
    one: the only NotFullDimensional, "<stage>: ..." naming the cone by its
    1-based indices, for a cone of the wrong size or dependent generators."""
    named = tuple(i + 1 for i in cone)
    if len(cone) != fan.rank:
        raise NotFullDimensional(f"{stage}: cone {named} is not full-dimensional in rank {fan.rank}")
    try:
        return _cone_inverse(fan, cone)
    except DependentGenerators:
        raise NotFullDimensional(f"{stage}: generators of cone {named} are linearly dependent") from None


def _valid(fan: StackyFan, what: str) -> None:
    """The only InvalidFan for a stage that relies on the fan axioms, as
    "fan: <what> needs a valid fan: <violation>", naming validate's first."""
    violations = validate(fan).violations
    if violations:
        raise InvalidFan(f"fan: {what} needs a valid fan: {violations[0]}")


def _cone_residues(fan: StackyFan, cone: ConeRef) -> tuple[int, ...]:
    """The diagonal of the row Hermite form H of a full-dimensional cone's
    generators, from the fan's table.  H is triangular with the same row
    lattice, so the points n with 0 <= n_r < H_rr, |det| of them, are one
    representative of each class of Z^d modulo the generators (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4.3)."""
    diag = fan._table.residues.get(cone)
    if diag is None:
        h, _ = hermite_normal_form(fan.gens(cone))
        diag = fan._table.residues[cone] = tuple(h[r][r] for r in range(fan.rank))
    return diag


def _mask(markers) -> int:
    """The bitmask of a set of markers, the one form of a face."""
    return sum(1 << i for i in markers)


def _faces(fan: StackyFan) -> dict[int, int]:
    """Every face of the fan, the subsets of the maximal cones, mapped to
    its cover, from the fan's table; both are bitmasks of markers.  The
    cover of a face is the union of the maximal cones holding it, so
    face | 1 << r is a face iff bit r of its cover is set."""
    if fan._table.faces is None:
        faces = fan._table.faces = {}
        for cone in fan.max_cones:
            for r in range(len(cone) + 1):
                for face in itertools.combinations(cone, r):
                    faces[_mask(face)] = faces.get(_mask(face), 0) | _mask(cone)
    return fan._table.faces


def _marker_lattice(fan: StackyFan) -> tuple[IntRows, IntRows, IntRows]:
    """(H, U, relations) from the fan's table: the markers' row Hermite form
    H = U * rays, and a basis of {l : sum l_i v_i = 0} in row echelon form,
    the nonzero rows of the Hermite form of U's rows where H is zero.  On an
    eligible fan every relation sums to 0, as the window scan needs."""
    lattice = fan._table.lattice
    if lattice is None:
        h, u = hermite_normal_form(fan.rays)
        kernel = [row for row, hrow in zip(u, h) if not any(hrow)]
        relations = [row for row in hermite_normal_form(kernel)[0] if any(row)]
        lattice = fan._table.lattice = tuple(tuple(map(tuple, m)) for m in (h, u, relations))
    return lattice


def _minimal_face(fan: StackyFan, nums: Sequence[int]):
    """The smallest face of the fan holding the point nums / L, for integers
    nums and any L > 0, as a ConeRef; None outside the support."""
    for cone in fan.max_cones:
        coords = _cone_inverse(fan, cone).numerators(nums)
        if coords is not None and all(c >= 0 for c in coords):
            return tuple(i for i, c in zip(cone, coords) if c)
    return None


def _tangent_test(fan: StackyFan, xi: Sequence) -> frozenset[int]:
    """The shadow filter as the set of faces (bitmasks) of the face table
    (_faces) it passes, xi solved once per maximal cone: for p in the
    relative interior of a face, p + eps*xi stays in the support iff some
    maximal cone sigma holding the face has xi in its span and xi's
    coordinates >= 0 on sigma minus the face, that is, the face holds
    sigma's generators where xi's are negative.  In a fan the cones holding
    p are those holding its minimal face (Fulton, Introduction to Toric
    Varieties, 1.2).  xi is read by read_exact; InvalidFan (_valid) for a
    fan validate rejects, where the face rule fails.  Kept for the last two
    xi (shadows), so a quotient and its graded pieces share one solve."""
    xi = read_exact(xi, parse_rational, "fan", "xi", fan.rank)
    _valid(fan, "the shadow filter")
    return _memo(fan._table.shadows, xi, None, _passing_faces, fan, scaled_numerators(xi)[1])


def _passing_faces(fan: StackyFan, xnums) -> frozenset[int]:
    spans = []  # (sigma, its generators where xi's coordinates are negative)
    for cone in fan.max_cones:
        xc = _cone_inverse(fan, cone).numerators(xnums)
        if xc is not None:
            spans.append((_mask(cone), _mask(i for i, c in zip(cone, xc) if c < 0)))
    return frozenset(f for f in _faces(fan) if any(f & ~s == 0 and f & neg == neg for s, neg in spans))


def normalized_volume(fan: StackyFan) -> int:
    """Sum over the maximal cones of |det| of their generators, the product
    of each cone's Hermite diagonal (_cone_residues); NotFullDimensional
    (_full_cone, "volume:") for a cone that is not full-dimensional."""
    total = 0
    for cone in fan.max_cones:
        _full_cone(fan, cone, "volume")
        total += math.prod(_cone_residues(fan, cone))
    return total


# ---------------------------------------------------------------------------
# fan axioms


def _meets_in_face(fan: StackyFan, a: ConeRef, b: ConeRef, shared: set[int]) -> bool:
    """True iff the simplicial cones a and b meet in the cone on their shared
    markers S.  By Farkas' lemma that holds iff some u is 0 on S, > 0 on a's
    generators off S and <= 0 on b's (Schrijver, Theory of Linear and
    Integer Programming, ch. 7): then a common point has u.x >= 0 from a and
    u.x <= 0 from b, so its coordinates in a off S vanish.  Every u is
    sum_p c_p T_p + sum_q s_q span_q over a's ConeInverse, with u.v_p =
    den * c_p, so the system reads c_p >= 1 for p in a off S and u.w <= 0
    for w in b off S.  The condition is that no common point has a positive
    coordinate off S in a, which b's independent generators make symmetric,
    so one order of the pair decides it."""
    inv = _cone_inverse(fan, a)
    normals = [row for p, row in zip(a, inv.rows) if p not in shared]
    off, normals = len(normals), normals + list(inv.span)
    ineqs = [[-int(r == c) for c in range(len(normals))] + [-1] for r in range(off)]
    ineqs += [[_dot(u, fan.rays[j]) for u in normals] + [0] for j in b if j not in shared]
    return feasible(ineqs)


def validate(fan: StackyFan) -> ValidationReport:
    """Check the fan axioms and GKZ eligibility, once per fan: the report is
    kept in the fan's cone table.  The fan's shape (rank, ray lengths, cone
    indices) is decided when it is built, so the report holds axioms only.

    Fan axioms: markers nonzero and distinct, every listed maximal cone
    simplicial, and each pairwise intersection of maximal cones equal to the
    cone on the shared marker subset.  GKZ eligibility additionally needs an
    integral degree functional taking value 1 on every marker, markers that
    generate Z^d, full-dimensional cones, and support covering the cone over
    the marker polytope (checked facet by facet: every marker on the inner
    side of every boundary facet).  Each pair of maximal cones is decided
    exactly by one feasibility test, _meets_in_face.
    """
    if fan._table.report is None:
        fan._table.report = _validate(fan)
    return fan._table.report


def _validate(fan: StackyFan) -> ValidationReport:
    violations: list[str] = []
    d, k = fan.rank, fan.k
    if k == 0:
        violations.append("no markers")
    for i, v in enumerate(fan.rays):
        if not any(v):
            violations.append(f"marker {i + 1} is zero")
    if len(set(fan.rays)) != k:
        violations.append("duplicate markers")
    if not fan.max_cones:
        violations.append("no maximal cones")
    for cone in fan.max_cones:
        try:
            _cone_inverse(fan, cone)
        except DependentGenerators:  # as a repeated index makes them
            why = "repeats an index" if len(set(cone)) != len(cone) else "is not simplicial"
            violations.append(f"cone {tuple(i + 1 for i in cone)} {why}")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        violations.append("duplicate maximal cones")
    if not violations:
        for c1, c2 in itertools.combinations(fan.max_cones, 2):
            if not _meets_in_face(fan, c1, c2, set(c1) & set(c2)):
                violations.append(
                    f"cones {tuple(i + 1 for i in c1)} and {tuple(i + 1 for i in c2)} "
                    "do not intersect in a common face"
                )
    valid = not violations
    # a valid fan's cones are simplicial, so _full_cone refuses only a short one
    volume = normalized_volume(fan) if valid and all(len(c) == d for c in fan.max_cones) else None
    gkz_notes: list[str] = []
    deg = fan.deg
    if not valid:
        gkz_notes.append("fan axioms fail")
    else:
        if deg is None:
            deg = infer_deg(fan.rays)
            if deg is None:
                gkz_notes.append("no integral degree functional equal to 1 on all markers")
        else:
            off = next((i for i, v in enumerate(fan.rays) if _dot(deg, v) != 1), None)
            if off is not None:
                gkz_notes.append(f"deg is not 1 on marker {off + 1}")
        # the markers generate Z^d iff their Hermite form has the unit diagonal
        if [row[r] for r, row in enumerate(_marker_lattice(fan)[0][:d])] != [1] * d:
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
    eligible = valid and not gkz_notes
    deg = deg if eligible or fan.deg is not None else None
    return ValidationReport(valid, tuple(violations), eligible, tuple(gkz_notes), volume, deg)


def infer_deg(rays: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Integral functional with value 1 on every marker, or None."""
    g = solve_with_hnf(*hermite_normal_form(list(zip(*rays))), (1,) * len(rays))
    return tuple(g) if g is not None else None


def _uncovered_marker(fan: StackyFan) -> Optional[tuple[int, ConeRef]]:
    """A marker outside the support of a valid full-dimensional fan, with the
    cone of the boundary facet it lies beyond, or None.  Boundary facets are
    those of one maximal cone: two full cones sharing a facet lie on its two
    sides, so an interior facet's cover (_faces) has rank + 1 markers.  Row
    i of a cone's ConeInverse is the inner normal of its facet opposite
    generator i.  A segment from the support to a point outside it leaves
    through a boundary facet, so the support is the cone over the markers
    iff no marker is beyond one."""
    cover = _faces(fan)
    for cone in fan.max_cones:
        normals = _cone_inverse(fan, cone).rows
        for pos in range(len(cone)):
            if cover[_mask(cone[:pos] + cone[pos + 1:])].bit_count() > fan.rank:
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
    and raises DegenerateHeights.  w is solved by one _rref of the rows
    [v_i | H_i] on S, H = den * h the integer heights.  Markers on no
    integral degree-1 hyperplane raise ValueError before the search.
    """
    points = as_sequence(points, "fan", "points")
    if not points:
        raise ValueError("fan: triangulation needs at least one point")
    d = len(read_exact(points[0], _integral, "fan", "point 1"))
    pts = [read_exact(p, _integral, "fan", f"point {i}", d) for i, p in enumerate(points, start=1)]
    hs = read_exact(heights, parse_rational, "fan", "heights", len(pts))
    deg = infer_deg(pts)
    if deg is None:
        raise ValueError("fan: markers do not lie on an integral degree-1 hyperplane")
    h_int = scaled_numerators(hs)[1]
    cells: set[ConeRef] = set()
    for subset in itertools.combinations(range(len(pts)), d):
        ech = _rref({c: x for c, x in enumerate(pts[i] + (h_int[i],)) if x} for i in subset)
        if any(r not in ech for r in range(d)):
            continue
        # w_r = row_r[d] / row_r[r]; u = den * w over the least den
        den = math.lcm(*(ech[r][r] for r in range(d)))
        u = [den // ech[r][r] * ech[r].get(d, 0) for r in range(d)]
        vals = [_dot(p, u) - den * h for p, h in zip(pts, h_int)]
        if any(v > 0 for v in vals):
            continue
        cell = tuple(j for j, v in enumerate(vals) if v == 0)
        if len(cell) > d:
            raise DegenerateHeights(
                f"fan: heights are degenerate: lower facet on markers {tuple(i + 1 for i in cell)}"
            )
        cells.add(cell)
    if not cells:
        raise DegenerateHeights("fan: heights give no full-dimensional lower facet")
    return StackyFan(rank=d, rays=tuple(pts), max_cones=tuple(sorted(cells)), deg=deg)
