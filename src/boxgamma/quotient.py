"""Deformed Stanley-Reisner modules and their quotients by the degree ideal.

A module over the subring generated by the marked rays decomposes into
summands indexed by the box elements of the parameter.  Inside the summand of
alpha, points are monomials m >= 0 supported together with alpha in a common
maximal cone, via p = sum((alpha_i + m_i) v_i); the correspondence is a
bijection because cone coordinates are unique.  Quotients by the ideal
(Z_1..Z_d), Z_j = sum_i g_j(v_i) [v_i], are computed degree by degree in |m|
by integer elimination, each reduced row divided by its content; Fractions
appear only in the emitted echelon rows.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .box import BoxElement, DeltaCorrespondence, alpha_key, box_of_fan, normalize_beta
from .errors import (
    DependentGenerators,
    DimensionOvershoot,
    NoStabilizationWindow,
    NotInSpan,
    ShadowNotSubmodule,
    UnboundedDegree,
)
from .fan import (
    StackyFan,
    _cone_inverse,
    _tangent_test,
    minimal_cone,
    normalized_volume,
)
from .linalg import Coord, im_part, re_part, scalar_from_parts

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ModuleSpec:
    """Real rational shift chi and optional shadow direction xi restricting to
    points whose translate admits xi as a tangent direction."""

    fan: StackyFan
    chi: tuple[Fraction, ...]
    xi: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "chi", tuple(Fraction(c) for c in self.chi))
        if self.xi is not None:
            object.__setattr__(self, "xi", tuple(Fraction(c) for c in self.xi))


@dataclass(frozen=True)
class GradedPiece:
    offset: int
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BasisElement:
    offset: int
    lattice_point: tuple[int, ...]
    alpha: tuple[Coord, ...]
    monomial: tuple[int, ...]
    degree: int


@dataclass(frozen=True, eq=False)
class QuotientAlgebra:
    spec: ModuleSpec
    basis: tuple[BasisElement, ...]
    dim: int
    dmats: tuple[tuple[tuple[Fraction, ...], ...], ...]
    summand_dims: dict = field(repr=False)
    alphas: tuple[BoxElement, ...] = ()
    base_index: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class TaggedPoint:
    """A module element [point, alpha]; the point is n + beta with exact
    rational or Gaussian-rational coordinates."""

    point: tuple[Coord, ...]
    alpha: tuple[Coord, ...]


def _check_graded(fan: StackyFan):
    if fan.deg is None:
        raise UnboundedDegree("quotient: fan carries no degree functional")
    for i in fan.fan_indices():
        if sum(fan.deg[r] * fan.rays[i][r] for r in range(fan.rank)) <= 0:
            raise UnboundedDegree("quotient: degree functional is not positive on the support")


def graded_piece(spec: ModuleSpec, m: int) -> GradedPiece:
    """Lattice points n with n + chi in the support, passing the shadow
    filter, of degree m; requires a positive degree functional."""
    fan = spec.fan
    _check_graded(fan)
    deg = fan.deg
    chi = spec.chi
    s = m + sum(deg[r] * chi[r] for r in range(fan.rank))
    if s < 0:
        return GradedPiece(m, ())
    idx = sorted(fan.fan_indices())
    tangent = None if spec.xi is None else _tangent_test(fan, spec.xi)
    points = []
    ranges = []
    for r in range(fan.rank):
        lo = min(s * fan.rays[i][r] for i in idx)
        hi = max(s * fan.rays[i][r] for i in idx)
        if s == 0:
            lo = hi = Fraction(0)
        ranges.append(range(math.ceil(lo - chi[r]), math.floor(hi - chi[r]) + 1))
    for n in itertools.product(*ranges):
        if sum(deg[r] * n[r] for r in range(fan.rank)) != m:
            continue
        p = tuple(n[r] + chi[r] for r in range(fan.rank))
        if minimal_cone(fan, p) is None:
            continue
        if tangent is not None and not tangent(p):
            continue
        points.append(tuple(n))
    points.sort()
    return GradedPiece(m, tuple(points))


def module_product(fan: StackyFan, nprime: Sequence[int], elem: TaggedPoint):
    """[n'] . [point, alpha]: search for a maximal cone containing n' whose
    index set carries alpha and in which the point sits on the alpha branch
    (coordinates minus alpha are nonnegative integers); None means zero."""
    supp = {i for i, a in enumerate(elem.alpha) if a != 0}
    result = None
    for sigma in fan.max_cones:
        if not supp <= set(sigma):
            continue
        try:
            inv = _cone_inverse(fan, sigma)
            cn = inv.coords(nprime)
        except (DependentGenerators, NotInSpan):
            continue
        if any(re_part(c) < 0 or im_part(c) != 0 for c in cn):
            continue
        c_in = inv.coords(elem.point)
        ok = True
        for pos, i in enumerate(sigma):
            dre = re_part(c_in[pos]) - re_part(elem.alpha[i])
            dim_ = im_part(c_in[pos]) - im_part(elem.alpha[i])
            if dim_ != 0 or dre.denominator != 1 or dre < 0:
                ok = False
                break
        if not ok:
            continue
        alpha_out = [Fraction(0)] * fan.k
        for pos, i in enumerate(sigma):
            val_re = re_part(c_in[pos]) + re_part(cn[pos])
            val_im = im_part(c_in[pos])
            f = val_re.numerator // val_re.denominator
            alpha_out[i] = scalar_from_parts(val_re - f, val_im)
        out_point = tuple(
            scalar_from_parts(
                re_part(elem.point[r]) + nprime[r], im_part(elem.point[r])
            )
            for r in range(fan.rank)
        )
        candidate = TaggedPoint(out_point, tuple(alpha_out))
        if result is None:
            result = candidate
        elif result != candidate:
            raise RuntimeError("internal: product depends on the witness cone")
    return result


def _compositions(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


class _Summand:
    """Degree-by-degree state of one alpha summand.  moves[t][c] lists the
    (ray, degree-t column) pairs of x_ray times the degree-(t-1) monomial in
    column c; the relation rows and the ray operators both read it."""

    def __init__(self, spec: ModuleSpec, alpha_elem: BoxElement):
        self.spec = spec
        self.fan = spec.fan
        # the shadow filter: tangent_member with xi's cone coordinates solved
        # once here, not once per monomial
        self.tangent = None if spec.xi is None else _tangent_test(spec.fan, spec.xi)
        self.elem = alpha_elem
        self.witnesses = alpha_elem.witness_cones
        self.pieces: dict[int, list[tuple[int, ...]]] = {}
        self.lattice: dict[int, list[tuple[int, ...]]] = {}
        self.moves: dict[int, list[list[tuple[int, int]]]] = {}
        self.ech: dict[int, dict[int, list[Fraction]]] = {}
        self.quot: dict[int, list[int]] = {}

    def _monomials(self, t: int):
        fan = self.fan
        found = {}
        for sigma in self.witnesses:
            for comp in _compositions(t, len(sigma)):
                m = [0] * fan.k
                for pos, i in enumerate(sigma):
                    m[i] = comp[pos]
                m = tuple(m)
                if m in found:
                    continue
                n = tuple(
                    self.elem.lattice_point[r]
                    + sum(m[i] * fan.rays[i][r] for i in range(fan.k))
                    for r in range(fan.rank)
                )
                if self.tangent is not None:
                    p = tuple(n[r] + self.spec.chi[r] for r in range(fan.rank))
                    if not self.tangent(p):
                        continue
                found[m] = n
        mons = sorted(found, key=lambda m: (found[m], m))
        return mons, [found[m] for m in mons]

    def _admissible(self, m: tuple[int, ...]) -> bool:
        supp = {i for i in range(self.fan.k) if m[i] > 0}
        return any(supp <= set(sigma) for sigma in self.witnesses)

    def extend(self, t: int) -> int:
        """Compute degree t and return the dimension of its quotient."""
        fan = self.fan
        mons, lattice = self._monomials(t)
        self.pieces[t] = mons
        self.lattice[t] = lattice
        col = {m: c for c, m in enumerate(mons)}
        ray_idx = sorted(fan.fan_indices())
        moves = []
        rows = []
        for mprev in self.pieces.get(t - 1, []):
            targets = []
            for i in ray_idx:
                m2 = tuple(mprev[x] + (1 if x == i else 0) for x in range(fan.k))
                if not self._admissible(m2):
                    continue
                c = col.get(m2)
                if c is None:
                    xi = ", ".join(str(x) for x in self.spec.xi)
                    raise ShadowNotSubmodule(
                        f"quotient: the shadow direction xi=({xi}) does not give a "
                        f"submodule: monomial {mprev} passes it, its product with "
                        f"ray {i + 1} does not"
                    )
                targets.append((i, c))
            moves.append(targets)
            # Z_j applied to mprev; a zero row is dropped by _rref
            for j in range(fan.rank):
                vec = [0] * len(mons)
                for i, c in targets:
                    vec[c] = fan.rays[i][j]
                rows.append(vec)
        self.moves[t] = moves
        ech = dict(_rref(rows, len(mons)))
        self.ech[t] = ech
        self.quot[t] = [c for c in range(len(mons)) if c not in ech]
        return len(self.quot[t])

    def reduce(self, t: int, c: int) -> list[Fraction]:
        """Quotient coordinates of the degree-t monomial in column c."""
        row = self.ech[t].get(c)
        if row is None:
            return [Fraction(int(q == c)) for q in self.quot[t]]
        return [-row[q] for q in self.quot[t]]


def _rref(rows, ncols):
    """Reduced row echelon form of integer rows: (pivot column, row) pairs in
    pivot order, each row scaled to pivot 1 with Fraction entries.

    Rows are eliminated fraction-free, each divided by its content once it
    is reduced, and kept zero in every other row's pivot column.  Fractions
    are formed only when the reduced rows are emitted.
    """
    ech: list[tuple[int, list[int]]] = []
    for r in rows:
        v = list(r)
        for pc, er in ech:
            f = v[pc]
            if f:
                p = er[pc]
                v = [p * x - f * y for x, y in zip(v, er)]
        pc = next((c for c in range(ncols) if v[c]), None)
        if pc is None:
            continue
        g = math.gcd(*v)
        if v[pc] < 0:
            g = -g
        v = [x // g for x in v]
        p = v[pc]
        for idx, (pc2, er) in enumerate(ech):
            f = er[pc]
            if f:
                w = [p * x - f * y for x, y in zip(er, v)]
                g = math.gcd(*w)
                ech[idx] = (pc2, [x // g for x in w])
        ech.append((pc, v))
    ech.sort(key=lambda pr: pr[0])
    return [(pc, [Fraction(x, row[pc]) if x else _ZERO for x in row]) for pc, row in ech]


def build_quotient(spec: ModuleSpec) -> QuotientAlgebra:
    """Quotient Q of the chi-shifted module M by (Z_1..Z_d), degree by degree,
    up to the first degree t >= g with Q_t = 0 (g = 0, or rank with a shadow
    direction); every later degree of Q is 0.  Proof: the ray operators
    commute with the Z_j, so if Q_t = 0 and every degree-(t+1) monomial is
    x_i times a degree-t one, M_(t+1) = sum_i x_i sum_j Z_j M_(t-1) lies in
    (ZM)_(t+1) and Q_(t+1) = 0.  Without a shadow every monomial of positive
    degree is such a multiple.  A shadow passes m on supp(alpha) + supp(m)
    alone, as the maximal cones containing sum (alpha_i + m_i) v_i are those
    holding that support; so a monomial with no passing m - e_i is the 0/1
    vector of at most rank rays, of degree at most g.  Each degree is checked
    against the normalized volume (DimensionOvershoot); ending below it
    raises NoStabilizationWindow."""
    return _build_quotient(spec, box_of_fan(spec.fan, spec.chi))


def _stabilized_quotient(
    fan: StackyFan, corr: DeltaCorrespondence, xi: Optional[Sequence] = None
) -> QuotientAlgebra:
    """build_quotient(ModuleSpec(fan, corr.beta_delta, xi)), reusing the box
    set at beta_delta that stabilize built: _correspondence pairs each of its
    elements with exactly one source, so the triples' targets in alpha_key
    order are box_of_fan(fan, corr.beta_delta)."""
    alphas = sorted((tgt for _, tgt, _ in corr.triples), key=lambda e: alpha_key(e.alpha))
    return _build_quotient(ModuleSpec(fan, corr.beta_delta, xi=xi), tuple(alphas))


def _build_quotient(spec: ModuleSpec, alphas: tuple[BoxElement, ...]) -> QuotientAlgebra:
    """build_quotient given the box set at chi."""
    fan = spec.fan
    vol = normalized_volume(fan)
    summands = [_Summand(spec, a) for a in alphas]
    g = 0 if spec.xi is None else fan.rank
    cum = 0
    t = 0
    while True:
        contrib = sum(s.extend(t) for s in summands)
        cum += contrib
        if cum > vol:
            raise DimensionOvershoot(
                f"quotient: cumulative dimension {cum} exceeds the normalized volume {vol}"
            )
        if contrib == 0 and t >= g:
            break
        t += 1
    if cum < vol:
        raise NoStabilizationWindow(
            f"quotient: the quotient ends at degree {t} with dimension {cum}, "
            f"below the normalized volume {vol}"
        )

    basis: list[BasisElement] = []
    index: dict[tuple[int, int, int], int] = {}
    base_index: dict[tuple, int] = {}
    summand_dims: dict[tuple, int] = {}
    for s_i, s in enumerate(summands):
        akey = alpha_key(s.elem.alpha)
        for deg_t, quot in s.quot.items():
            for c in quot:
                m = s.pieces[deg_t][c]
                n = s.lattice[deg_t][c]
                if fan.deg is not None:
                    offset = sum(fan.deg[r] * n[r] for r in range(fan.rank))
                else:
                    offset = deg_t
                index[(s_i, deg_t, c)] = len(basis)
                if deg_t == 0 and all(x == 0 for x in m):
                    base_index[akey] = len(basis)
                basis.append(BasisElement(offset, n, s.elem.alpha, m, deg_t))
        summand_dims[akey] = sum(len(quot) for quot in s.quot.values())
    dim = len(basis)

    # D_i sends a basis monomial to the reduced class of its move along ray i;
    # the last degree has no basis element, so every move is tabled
    dmats = [[[_ZERO] * dim for _ in range(dim)] for _ in range(fan.k)]
    for (s_i, deg_t, c), g_idx in index.items():
        s = summands[s_i]
        for i, c2 in s.moves[deg_t + 1][c]:
            for q, value in zip(s.quot[deg_t + 1], s.reduce(deg_t + 1, c2)):
                if value != 0:
                    dmats[i][index[(s_i, deg_t + 1, q)]][g_idx] = value

    return QuotientAlgebra(
        spec=spec,
        basis=tuple(basis),
        dim=dim,
        dmats=tuple(tuple(tuple(row) for row in mat) for mat in dmats),
        summand_dims=summand_dims,
        alphas=alphas,
        base_index=base_index,
    )


def _pair_elements(fan: StackyFan, src: BoxElement, max_offset: int):
    """Module elements [point, alpha] of the alpha summand with |m| <= max_offset."""
    out = []
    seen = set()
    for sigma in src.witness_cones:
        for t in range(max_offset + 1):
            for comp in _compositions(t, len(sigma)):
                m = [0] * fan.k
                for pos, i in enumerate(sigma):
                    m[i] = comp[pos]
                m = tuple(m)
                if m in seen:
                    continue
                seen.add(m)
                point = tuple(
                    scalar_from_parts(
                        sum(
                            (re_part(src.alpha[i]) + m[i]) * fan.rays[i][r]
                            for i in range(fan.k)
                        ),
                        sum(im_part(src.alpha[i]) * fan.rays[i][r] for i in range(fan.k)),
                    )
                    for r in range(fan.rank)
                )
                out.append(TaggedPoint(point, src.alpha))
    return out


def _multipliers(fan: StackyFan, max_offset: int):
    pts = set()
    for sigma in fan.max_cones:
        for t in range(max_offset + 1):
            for comp in _compositions(t, len(sigma)):
                n = tuple(
                    sum(comp[pos] * fan.rays[i][r] for pos, i in enumerate(sigma))
                    for r in range(fan.rank)
                )
                pts.add(n)
    return sorted(pts)


def verify_def2_isomorphism(fan: StackyFan, beta, correspondence, max_offset: int) -> bool:
    """Check that the correspondence intertwines the two module products on
    all pairs with monomial part of size <= max_offset against all multiplier
    points generated by the rays up to that size.

    An element [point, alpha] maps to the pair at the stabilized parameter
    with the same monomial part; the lattice point shifts by the constant
    recorded in the correspondence for that summand (nonzero exactly when a
    coordinate has real part zero and negative imaginary part).
    """
    b = normalize_beta(fan, beta)
    amap = {}
    for src, tgt, _ in correspondence.triples:
        shift = tuple(
            t - s for s, t in zip(src.lattice_point, tgt.lattice_point)
        )
        amap[alpha_key(src.alpha)] = (tgt.alpha, shift)
    beta_delta = correspondence.beta_delta

    def phi(elem: TaggedPoint):
        key = alpha_key(elem.alpha)
        if key not in amap:
            raise RuntimeError("internal: product left the box set")
        target_alpha, shift = amap[key]
        n = tuple(
            re_part(elem.point[r]) - re_part(b[r]) for r in range(fan.rank)
        )
        point = tuple(n[r] + shift[r] + beta_delta[r] for r in range(fan.rank))
        return TaggedPoint(point, target_alpha)

    elements = []
    for src, _, _ in correspondence.triples:
        elements.extend(_pair_elements(fan, src, max_offset))
    for nprime in _multipliers(fan, max_offset):
        for x in elements:
            lhs = module_product(fan, nprime, x)
            rhs = module_product(fan, nprime, phi(x))
            if (lhs is None) != (rhs is None):
                return False
            if lhs is not None and phi(lhs) != rhs:
                return False
    return True
