"""Fraction inverse and determinant, and the Gaussian cone solve: the
references the library's fraction-free integer kernels are tested against.
Also a point's coordinates in a cone by the Fraction inverse of its
generators completed to a basis, the minimal face and the shadow filter
decided cone by cone with them, the shadow filter's faces found by
enumerating each maximal cone's subsets, the primitive direction of a
rational vector, a fan's completeness and its minimal non-faces, and Definition 2's
module product with the check that a delta-stabilization intertwines it,
the delta-correspondence found by enumerating and matching the box set
at beta_delta, the collision classes grouped and sorted by the Fraction
pairs of alpha_key, the Fraction-keyed route from there to the spectrum
(the quotient's maps keyed by alpha_key, the stabilizing delta from the
Fraction wall, the images' floors taken on Fractions, each multiplicity
looked up by alpha_key), the Fraction Gauss-Jordan, the extreme rays of
two cones' intersection found with it and the fan report with every pair
of maximal cones decided by them, Fourier-Motzkin elimination without
Chernikov's rule, the graded pieces found by scanning a bounding box, the
Gamma-series terms the support rule keeps, read on exact exponents, the
truncated product of two jets, and the series summed as dim-long term
vectors, every triple alike.  Only tests read them."""

import cmath
import dataclasses
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence
from unittest import mock

from boxgamma import box as box_module
from boxgamma import fan as fan_module
from boxgamma.box import (
    BoxElement,
    Branch,
    CollisionClass,
    DeltaCorrespondence,
    alpha_key,
    box_of_fan,
    normalize_beta,
)
from boxgamma.errors import DependentGenerators, DomainError
from boxgamma.fan import (
    StackyFan,
    ValidationReport,
    _cone_inverse,
    _mask,
    _tangent_test,
)
from boxgamma.linalg import (
    ConeInverse,
    Coord,
    GaussianRational,
    cone_inverse,
    Param,
    format_gaussian,
    format_rational,
    read_param,
)
from boxgamma import gkz
from boxgamma.errors import SeriesOverflow
from boxgamma.gkz import GkzInstance, SeriesValue, enumerate_L, exp_jet, reciprocal_gamma_jet
from boxgamma.kring import KPoint, WallRecord, unit_phase
from boxgamma.quotient import (
    GradedPiece,
    ModuleSpec,
    QuotientAlgebra,
    _check_graded,
    build_quotient,
)


class NotInSpan(DomainError):
    """Point is not in the linear span of the given generators."""


def _scalar(re, im) -> Coord:
    """re + i im as exact scalars are canonical: a Fraction when im == 0,
    a GaussianRational otherwise."""
    return GaussianRational(re, im) if im else Fraction(re)


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


def cone_coords(inv: ConeInverse, p: Sequence) -> tuple:
    """Coordinates of p in the cone of inv, entries of the same kind as p's:
    Fractions, or GaussianRationals once any entry of p is one.  Raises
    NotInSpan.

    With P / L the re and im parts of p over a common denominator L,
    each coordinate is (row . P) / (den * L), one Fraction per
    coordinate and part.
    """
    complex_input = any(isinstance(x, GaussianRational) for x in p)
    form = Param.of(p)
    den, re, im = form.den, form.re, form.im
    coords = []
    for part in (re, im) if complex_input else (re,):
        nums = inv.numerators(part)
        if nums is None:
            point = ", ".join(format_gaussian(x) for x in p)
            raise NotInSpan(f"cone: the point ({point}) is not in the span of the generators")
        coords.append([Fraction(x, inv.den * den) for x in nums])
    if not complex_input:
        return tuple(coords[0])
    return tuple(GaussianRational(c_re, c_im) for c_re, c_im in zip(*coords))


@functools.lru_cache(maxsize=4096)
def _completed_inverse(gens: tuple, d: int) -> list | None:
    """mat_inverse of the generators (columns) in Q^d completed to a basis by
    unit vectors, or None for dependent generators."""
    m = len(gens)
    for extra in itertools.combinations(range(d), max(d - m, 0)):
        cols = list(gens) + [tuple(int(r == j) for r in range(d)) for j in extra]
        rows = [[c[r] for c in cols] for r in range(d)]
        if len(cols) == d and det_rational(rows) != 0:
            return mat_inverse(rows)
    return None


def oracle_coords(gens, p):
    """(coordinates, in span) of p by mat_inverse, each coordinate an (re,
    im) pair of Fractions, or None for dependent generators.  The
    generators are completed to a basis by unit vectors; p is in their span
    iff its coordinates on the added vectors vanish."""
    inv = _completed_inverse(tuple(map(tuple, gens)), len(p))
    if inv is None:
        return None
    m = len(gens)
    parts = [
        [sum((a * getattr(x, part) for a, x in zip(row, p)), start=Fraction(0)) for row in inv]
        for part in ("real", "imag")
    ]
    if any(any(part[m:]) for part in parts):
        return None, False
    return list(zip(parts[0][:m], parts[1][:m])), True


def oracle_minimal_cone(fan: StackyFan, p):
    """The smallest face of the fan holding the rational point p, found by
    oracle_coords cone by cone, or None outside the support."""
    for cone in fan.max_cones:
        coords, in_span = oracle_coords(fan.gens(cone), p)
        if in_span and all(c >= 0 for c, _ in coords):
            return tuple(i for i, (c, _) in zip(cone, coords) if c != 0)
    return None


def oracle_tangent_member(fan: StackyFan, p, xi):
    """Whether p + eps*xi stays in the support for small eps > 0, decided
    in each maximal cone holding p: xi in its span with a coordinate >= 0
    wherever p's is 0.  None when p is outside the support."""
    in_support = False
    for cone in fan.max_cones:
        pc, p_in = oracle_coords(fan.gens(cone), p)
        if not p_in or any(c < 0 for c, _ in pc):
            continue
        in_support = True
        xc, x_in = oracle_coords(fan.gens(cone), xi)
        if x_in and all(a > 0 or b >= 0 for (a, _), (b, _) in zip(pc, xc)):
            return True
    return False if in_support else None


def subset_tangent_test(fan: StackyFan, xi) -> frozenset[int]:
    """_tangent_test's set of faces (bitmasks) by enumeration: for each
    maximal cone sigma with xi in its span, by oracle_coords, every subset
    of sigma that holds sigma's generators where xi's coordinates are
    negative."""
    passing = set()
    for cone in fan.max_cones:
        coords, in_span = oracle_coords(fan.gens(cone), xi)
        if in_span:
            neg = [i for i, (c, _) in zip(cone, coords) if c < 0]
            rest = [i for i, (c, _) in zip(cone, coords) if c >= 0]
            for r in range(len(rest) + 1):
                passing.update(_mask(neg + list(face)) for face in itertools.combinations(rest, r))
    return frozenset(passing)


def _holding(fan: StackyFan, support) -> list:
    """The maximal cones of the fan holding the support."""
    return [sigma for sigma in fan.max_cones if set(support) <= set(sigma)]


def past_wall(delta, alpha) -> DomainError:
    """correspondence_at's error for a delta at which the source alpha's image loses support."""
    named = ", ".join(map(format_gaussian, alpha))
    return DomainError(f"box: at delta {format_rational(delta)} the image of alpha=({named}) loses support")


def primitive_direction(v) -> tuple[int, ...]:
    """The primitive integer vector on the ray through the rational v."""
    ints = [x * math.lcm(*(Fraction(y).denominator for y in v)) for x in map(Fraction, v)]
    g = math.gcd(*map(int, ints)) or 1  # 0 only for the zero vector
    return tuple(int(x) // g for x in ints)


def solve_simplicial_coords(gens: Sequence[Sequence[int]], p: Sequence) -> tuple:
    """Coordinates of p in linearly independent generators (columns).

    p may have Fraction or GaussianRational entries; the coordinate vector is
    returned with entries of the same kind.  Raises DependentGenerators if the
    generators are dependent and NotInSpan if p lies outside their span.
    The one-shot form of cone_coords(cone_inverse(gens, len(p)), p); a fan keeps
    each maximal cone's ConeInverse, so its cone solves skip the elimination.
    """
    return cone_coords(cone_inverse(gens, len(p)), p)


def fraction_rref(rows, ncols):
    """Reduced row echelon form by Fraction Gauss-Jordan on the whole matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    out = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        out.append(c)
        r += 1
    return [(c, m[i]) for i, c in enumerate(out)]


def _kernel(rows, ncols):
    ech = fraction_rref(rows, ncols)
    pivots = [c for c, _ in ech]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in ech:
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return basis


def fraction_coords(gens, p):
    """Coordinates of p in the independent generators, p in their span."""
    d = len(p)
    rows = [[Fraction(g[r]) for g in gens] + [Fraction(p[r])] for r in range(d)]
    ech = fraction_rref(rows, len(gens))
    assert len(ech) == len(gens)
    return [row[-1] for _, row in ech]


def fraction_intersection_rays(fan: StackyFan, c1, c2) -> set:
    """Primitive directions of the extreme rays of cone(c1) ∩ cone(c2), for
    cones of independent generators, all on Fractions: a basis of the
    intersection's span from the kernel of [V1 | -V2], each cone's
    coordinates of it as inequalities on t, and an extreme ray for each
    subset of m - 1 of them with a one-dimensional kernel whose vector, in
    one sign, satisfies all of them."""
    g1, g2 = fan.gens(c1), fan.gens(c2)
    d = fan.rank
    rows = [[Fraction(g[r]) for g in g1] + [Fraction(-g[r]) for g in g2] for r in range(d)]
    cand = [
        tuple(sum((vec[j] * g1[j][r] for j in range(len(g1))), start=Fraction(0)) for r in range(d))
        for vec in _kernel(rows, len(g1) + len(g2))
    ]
    basis = []
    for v in cand:
        if len(fraction_rref(basis + [v], d)) > len(basis):
            basis.append(v)
    m = len(basis)
    if m == 0:
        return set()
    p_rows = []
    for gens in (g1, g2):
        cols = [fraction_coords(gens, b) for b in basis]
        p_rows.extend([cols[c][i] for c in range(m)] for i in range(len(gens)))

    def admit(t):
        return all(sum((r[j] * t[j] for j in range(m)), start=Fraction(0)) >= 0 for r in p_rows)

    def point(t):
        return tuple(sum((basis[j][r] * t[j] for j in range(m)), start=Fraction(0)) for r in range(d))

    out = set()
    if m == 1:
        for t in ((Fraction(1),), (Fraction(-1),)):
            if admit(t) and any(point(t)):
                out.add(primitive_direction(point(t)))
        return out
    for subset in itertools.combinations(p_rows, m - 1):
        ker = _kernel(list(subset), m)
        if len(ker) != 1:
            continue
        for t in (ker[0], tuple(-x for x in ker[0])):
            if admit(t):
                if any(point(t)):
                    out.add(primitive_direction(point(t)))
                break
    return out


def meets_in_face(fan: StackyFan, c1, c2, shared) -> bool:
    """True iff the extreme rays of cone(c1) ∩ cone(c2), found on Fractions,
    are the primitive directions of the shared markers."""
    return fraction_intersection_rays(fan, c1, c2) == {primitive_direction(fan.rays[j]) for j in shared}


def all_pairs_report(fan: StackyFan) -> ValidationReport:
    """validate's report on a fresh copy of the fan with every pair of
    maximal cones decided by meets_in_face, the Fraction oracle, in place
    of the library's feasibility test."""
    with mock.patch.object(fan_module, "_meets_in_face", meets_in_face):
        return fan_module.validate(dataclasses.replace(fan))


def fm_feasible(rows) -> bool:
    """linalg.feasible's Fourier-Motzkin elimination without Chernikov's
    rule: every pair of opposite rows is combined, equal rows (after dividing
    out their content) are merged and rows reading 0 <= r >= 0 dropped."""
    system = {tuple(row) for row in rows}
    for t in range(len(rows[0]) - 1 if rows else 0):
        pos = [row for row in system if row[t] > 0]
        neg = [row for row in system if row[t] < 0]
        system = {row for row in system if not row[t]}
        for p, q in itertools.product(pos, neg):
            row = [p[t] * y - q[t] * x for x, y in zip(p, q)]
            g = math.gcd(*row) or 1
            system.add(tuple(x // g for x in row))
        system = {row for row in system if any(row[:-1]) or row[-1] < 0}
    return all(row[-1] >= 0 for row in system)


def is_complete(fan) -> bool:
    """True iff every facet of a maximal cone is shared by exactly two cones."""
    if not fan.max_cones or any(len(c) != fan.rank for c in fan.max_cones):
        return False
    facets = Counter(c[:p] + c[p + 1:] for c in fan.max_cones for p in range(len(c)))
    return all(v == 2 for v in facets.values())


def minimal_non_faces(fan) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal index sets inside the fan that no maximal cone contains."""
    idx = sorted(fan.fan_indices())
    faces = [set(mc) for mc in fan.max_cones]
    out: list[tuple[int, ...]] = []
    for size in range(1, len(idx) + 1):
        for sub in itertools.combinations(idx, size):
            ss = set(sub)
            if any(ss <= f for f in faces):
                continue
            if any(set(m) <= ss for m in out):
                continue
            out.append(sub)
    return tuple(out)


def _compositions(total: int, slots: int):
    """Every tuple of slots >= 1 naturals summing to total, by stars and bars."""
    bars = total + slots - 1
    for cuts in itertools.combinations(range(bars), slots - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts + (bars,)))


def witness_monomials(fan: StackyFan, alpha: BoxElement, t: int, tangent) -> list[tuple[int, ...]]:
    """The degree-t monomials of alpha's summand, each a composition of t
    over one maximal cone holding alpha's support, deduplicated; with a
    tangent set, those whose face supp(alpha) + supp(m) it holds.  Sorted
    by (sum m_i v_i, m)."""
    found = {}
    for sigma in _holding(fan, alpha.support):
        for comp in _compositions(t, len(sigma)):
            m = [0] * fan.k
            for pos, i in enumerate(sigma):
                m[i] = comp[pos]
            m = tuple(m)
            face = sum(1 << i for i in set(alpha.support) | {i for i, x in enumerate(m) if x})
            if tangent is None or face in tangent:
                found[m] = tuple(sum(x * v[r] for x, v in zip(m, fan.rays)) for r in range(fan.rank))
    return sorted(found, key=lambda m: (found[m], m))


@dataclass(frozen=True)
class TaggedPoint:
    """A module element [point, alpha]; the point is n + beta with exact
    rational or Gaussian-rational coordinates."""

    point: tuple[Coord, ...]
    alpha: tuple[Coord, ...]


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
            cn = cone_coords(inv, nprime)
        except (DependentGenerators, NotInSpan):
            continue
        if any(c.real < 0 or c.imag != 0 for c in cn):
            continue
        c_in = cone_coords(inv, elem.point)
        ok = True
        for pos, i in enumerate(sigma):
            dre = c_in[pos].real - elem.alpha[i].real
            dim_ = c_in[pos].imag - elem.alpha[i].imag
            if dim_ != 0 or dre.denominator != 1 or dre < 0:
                ok = False
                break
        if not ok:
            continue
        alpha_out = [Fraction(0)] * fan.k
        for pos, i in enumerate(sigma):
            val_re = c_in[pos].real + cn[pos].real
            val_im = c_in[pos].imag
            f = val_re.numerator // val_re.denominator
            alpha_out[i] = _scalar(val_re - f, val_im)
        out_point = tuple(
            _scalar(
                elem.point[r].real + nprime[r], elem.point[r].imag
            )
            for r in range(fan.rank)
        )
        candidate = TaggedPoint(out_point, tuple(alpha_out))
        if result is None:
            result = candidate
        elif result != candidate:
            raise RuntimeError("internal: product depends on the witness cone")
    return result


def _pair_elements(fan: StackyFan, src: BoxElement, max_offset: int):
    """Module elements [point, alpha] of the alpha summand with |m| <= max_offset."""
    out = []
    seen = set()
    for sigma in _holding(fan, src.support):
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
                    _scalar(
                        sum(
                            (src.alpha[i].real + m[i]) * fan.rays[i][r]
                            for i in range(fan.k)
                        ),
                        sum(src.alpha[i].imag * fan.rays[i][r] for i in range(fan.k)),
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
            elem.point[r].real - b[r].real for r in range(fan.rank)
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


def enumerated_correspondence(fan: StackyFan, beta, delta) -> DeltaCorrespondence:
    """correspondence_at by enumeration: build the box set at beta_delta and
    look up each source element's fractional parts of Re + delta*Im in it,
    checking that the lookups hit every target exactly once.  delta is an
    int or a Fraction, kept as correspondence_at reads it: a Fraction."""
    delta = Fraction(delta)
    b = normalize_beta(fan, beta)
    beta_delta = tuple(x.real + delta * x.imag for x in b)
    target = box_of_fan(fan, beta_delta)
    index = {alpha_key(e.alpha): i for i, e in enumerate(target)}
    used = set()
    triples = []
    for e in box_of_fan(fan, b):
        values = (a.real + delta * a.imag for a in e.alpha)
        j = index.get(tuple((v - math.floor(v), Fraction(0)) for v in values))
        if j is None or j in used:
            raise RuntimeError("internal: stabilized elements do not biject")
        used.add(j)
        te = target[j]
        if te.support != e.support:
            raise past_wall(delta, e.alpha)
        point = tuple(n + x for n, x in zip(te.lattice_point, beta_delta))
        if oracle_minimal_cone(fan, point) != e.support:
            raise RuntimeError("internal: point support differs from exponent support")
        triples.append((e, te, point))
    if len(used) != len(target):
        raise RuntimeError("internal: stabilized elements do not biject")
    return DeltaCorrespondence(delta, b, beta_delta, tuple(triples))


def fraction_keyed_collisions(fan: StackyFan, beta) -> tuple[CollisionClass, ...]:
    """collisions with each cone's branches grouped and sorted by alpha_key,
    the Fraction pairs of the exponent, instead of the integer keys."""
    param = read_param(beta, "box", "beta", fan.rank)
    groups: dict[tuple, list[Branch]] = {}
    for mc in fan.max_cones:
        common = _cone_inverse(fan, mc).den
        for _, residue, floors, e in box_module._cone_branches(fan, mc, param, common):
            groups.setdefault(alpha_key(e.alpha), []).append(Branch(mc, residue, floors, e))
    classes = []
    for key in sorted(groups):
        branches = tuple(sorted(groups[key], key=lambda br: (br.cone, br.residue)))
        if len({br.element.lattice_point for br in branches}) > 1:
            raise RuntimeError("internal: equal alpha with distinct lattice points")
        classes.append(CollisionClass(branches[0].element.alpha, branches))
    return tuple(classes)


def fraction_keyed_maps(q: QuotientAlgebra) -> tuple[dict, dict]:
    """summand_dims, and the index of each summand's base element, as dicts
    keyed by alpha_key, in summand order, counted from the basis: a summand's dimension is its number of
    basis elements, its base element the one of degree 0 and monomial 0."""
    dims = {alpha_key(e.alpha): 0 for e in q.alphas}
    bases = {}
    for pos, elem in enumerate(q.basis):
        key = alpha_key(elem.alpha)
        dims[key] += 1
        if elem.degree == 0 and not any(elem.monomial):
            bases[key] = pos
    return dims, bases


def fraction_wall_delta(fan: StackyFan, beta) -> Fraction:
    """stabilize's delta: 1/16 halved until below the least wall bound,
    each bound (1 - r)/m or (r or 1)/(-m) of a coordinate r + i*m, m != 0,
    formed and compared as a Fraction."""
    wall = Fraction(1)
    for cls in fraction_keyed_collisions(fan, beta):
        for a in cls.alpha:
            r, m = a.real, a.imag
            if m > 0:
                wall = min(wall, (1 - r) / m)
            elif m < 0:
                wall = min(wall, (r or 1) / -m)
    delta = Fraction(1, 16)
    while delta >= wall:
        delta /= 2
    return delta


def fraction_correspondence(fan: StackyFan, beta, delta) -> DeltaCorrespondence:
    """correspondence_at with each image formed on Fractions: x_i = Re alpha_i
    + delta*Im alpha_i, the image alpha_i = x_i - floor(x_i) and the lattice
    point n - sum(floor(x_i) v_i), with the same checks in the same order."""
    delta = Fraction(delta)
    b = normalize_beta(fan, beta)
    beta_delta = tuple(x.real + delta * x.imag for x in b)
    triples = []
    for cls in fraction_keyed_collisions(fan, b):
        e = cls.branches[0].element
        alpha, n = [], e.lattice_point
        for i, a in enumerate(e.alpha):
            x = a.real + delta * a.imag
            f = math.floor(x)
            alpha.append(x - f)
            n = tuple(c - f * v for c, v in zip(n, fan.rays[i]))
        if tuple(i for i, x in enumerate(alpha) if x) != e.support:
            raise past_wall(delta, e.alpha)
        point = tuple(c + y for c, y in zip(n, beta_delta))
        if oracle_minimal_cone(fan, point) != e.support:
            raise RuntimeError("internal: point support differs from exponent support")
        triples.append((e, BoxElement(tuple(alpha), n, e.support), point))
    images = sorted(t[1].alpha for t in triples)
    if any(x == y for x, y in zip(images, images[1:])):
        raise RuntimeError("internal: stabilized elements do not biject")
    return DeltaCorrespondence(delta, b, beta_delta, tuple(triples))


def fraction_stabilize(fan: StackyFan, beta) -> DeltaCorrespondence:
    """stabilize on the Fraction route: the Fraction wall, then the Fraction images."""
    return fraction_correspondence(fan, beta, fraction_wall_delta(fan, beta))


def fraction_keyed_spectrum(fan: StackyFan, beta) -> tuple[KPoint, ...]:
    """spectrum on the Fraction route: the classes grouped by alpha_key, the
    Fraction stabilization, and each multiplicity looked up by alpha_key of
    its target in the Fraction-keyed summand dimensions."""
    corr = fraction_stabilize(fan, beta)
    dims, _ = fraction_keyed_maps(build_quotient(ModuleSpec(fan, corr.beta_delta)))
    points = []
    for cls, (src, tgt, _) in zip(fraction_keyed_collisions(fan, beta), corr.triples, strict=True):
        if src.alpha != cls.alpha:
            raise RuntimeError("internal: stabilization out of collision-class order")
        y = tuple(unit_phase(a) for a in cls.alpha)
        points.append(KPoint(y, cls, dims[alpha_key(tgt.alpha)]))
    return tuple(points)


def fraction_keyed_wall_report(fan: StackyFan, beta) -> tuple[WallRecord, ...]:
    """wall_report over the classes grouped by alpha_key."""
    records = []
    for cls in fraction_keyed_collisions(fan, beta):
        brs = cls.branches
        for i, j in itertools.combinations(range(len(brs)), 2):
            diff = tuple(x - y for x, y in zip(brs[j].floors, brs[i].floors))
            records.append(WallRecord(cls.alpha, brs[i], brs[j], diff))
    return tuple(records)


def scanned_graded_piece(spec: ModuleSpec, m: int) -> GradedPiece:
    """graded_piece by scanning the bounding box of the degree-m slice: each
    lattice point n of degree m with n + chi in the support, by
    oracle_minimal_cone, and passing the shadow filter on that face."""
    fan = spec.fan
    deg = _check_graded(fan)
    chi = spec.chi
    s = m + sum(deg[r] * chi[r] for r in range(fan.rank))
    if s < 0:
        return GradedPiece(m, ())
    idx = sorted(fan.fan_indices())
    tangent = None if spec.xi is None else _tangent_test(fan, spec.xi)
    points = []
    ranges = []
    # the degree-s slice of a cone is the hull of its s * v / deg(v)
    ends = []
    for i in idx:
        d = Fraction(sum(x * e for x, e in zip(fan.rays[i], deg)))
        ends.append([s * x / d for x in fan.rays[i]])
    for r in range(fan.rank):
        lo = min(e[r] for e in ends)
        hi = max(e[r] for e in ends)
        if s == 0:
            lo = hi = Fraction(0)
        ranges.append(range(math.ceil(lo - chi[r]), math.floor(hi - chi[r]) + 1))
    for n in itertools.product(*ranges):
        if sum(deg[r] * n[r] for r in range(fan.rank)) != m:
            continue
        face = oracle_minimal_cone(fan, tuple(n[r] + chi[r] for r in range(fan.rank)))
        if face is None:
            continue
        if tangent is not None and sum(1 << i for i in face) not in tangent:
            continue
        points.append(tuple(n))
    points.sort()
    return GradedPiece(m, tuple(points))


def summand_order(instance: GkzInstance, t: int) -> int:
    """1 + the top basis degree of the summand of triple t's target, read
    from the basis elements carrying the target's alpha."""
    tgt = instance.correspondence.triples[t][1]
    return 1 + max((e.degree for e in instance.quotient.basis if e.alpha == tgt.alpha), default=0)


def supported_terms(instance: GkzInstance, vs, dvs, B: int) -> set:
    """(t, m, l) of each term that the series at each v in vs, and the
    derivatives in every ray of those at each v in dvs, read in their
    windows of bound B, less those the support and degree rules zero; t is
    the triple, m the offset, l = alpha + m.  The windows are enumerate_L's,
    at v and, for a derivative in x_j, at v + v_j with each l read as
    l + e_j.  The rules are read on the exact l: a term is kept unless
    supp(alpha) and the i with l_i a negative integer lie in no cone of the
    fan, or at least summand_order of those i lie off supp(alpha)."""
    fan = instance.fan
    out = set()
    for t, (src, _, _) in enumerate(instance.correspondence.triples):
        order = summand_order(instance, t)
        terms = [(lv.offset, lv.l) for v in vs for lv in enumerate_L(instance, src, v, B)]
        for j in fan.fan_indices():
            for v in dvs:
                v2 = tuple(a + b for a, b in zip(v, fan.rays[j]))
                for lv in enumerate_L(instance, src, v2, B):
                    lj = _scalar(lv.l[j].real + 1, lv.l[j].imag)
                    m = lv.offset[:j] + (lv.offset[j] + 1,) + lv.offset[j + 1 :]
                    terms.append((m, lv.l[:j] + (lj,) + lv.l[j + 1 :]))
        for m, l in terms:
            negative = {
                i for i, x in enumerate(l)
                if not x.imag and x.real.denominator == 1 and x.real < 0
            }
            face = set(src.support) | negative
            in_cone = any(face <= set(cone) for cone in fan.max_cones)
            if in_cone and len(negative - set(src.support)) < order:
                out.add((t, m, l))
    return out


def poly_mul_trunc(a: Sequence[complex], b: Sequence[complex], order: int) -> tuple[complex, ...]:
    """The product of the jets a and b, truncated to `order` terms."""
    out = [0j] * order
    for s, ca in enumerate(a[:order]):
        for t, cb in enumerate(b[: order - s]):
            out[s + t] += ca * cb
    return tuple(out)


def vector_term(ev, t: int, m: tuple[int, ...]) -> list[complex]:
    """The term of triple t at m as a dim-long vector, for every triple alike:
    T_alpha e_t transported from the full base vector by the jets at each
    alpha_i, x^l times each constant R, the other R acting through D_i, and
    the scalar times every entry; SeriesOverflow when an entry is not finite."""
    entries = [ev.entry(t, i, mi) for i, mi in enumerate(m)]
    k = ev.base(t)
    w = tuple(complex(r == k) for r in range(ev.dim))
    for i, lg in enumerate(ev.logs):
        a, r = ev.entry(t, i, 0)
        for jet in reciprocal_gamma_jet(a, len(r)), exp_jet((0j, lg), len(r)):
            w = gkz._apply_jet(ev.dmats[i], jet, w)
    try:
        scalar = cmath.exp(sum(li * lg for (li, _), lg in zip(entries, ev.logs)))
    except OverflowError:
        raise SeriesOverflow("x^l overflows") from None
    for i, (_, r) in enumerate(entries):
        if len(r) == 1:
            scalar *= r[0]
        else:
            w = gkz._apply_jet(ev.dmats[i], r, w)
    w = [scalar * c for c in w]
    if not all(map(cmath.isfinite, w)):
        raise SeriesOverflow("the term overflows")
    return w


def vector_summed(instance: GkzInstance, ev, v, B: int, j=None) -> SeriesValue:
    """The v-series, or with a ray j its derivative in x_j, summed as the
    evaluator ev's terms were before any triple kept complex numbers: each
    kept window entry's vector_term (the vanishing rule skips the others),
    for a derivative (l_j + D_j) w / x_j, added to one dim-long total in
    window order, triple after triple, and to one shell, the kept terms at
    the largest norm so far, whose max-norm is the tail."""
    total = shell = zero = (0j,) * ev.dim
    top = -1
    at = v if j is None else tuple(a + b for a, b in zip(v, instance.fan.rays[j]))
    for t, (src, _, _) in enumerate(instance.correspondence.triples):
        ev.base(t)  # NoBaseElement before the triple's first term
        for m, nm in zip(*gkz._window(instance, src, at, B)):
            if j is not None:
                m = m[:j] + (m[j] + 1,) + m[j + 1 :]
            if ev.vanishes(t, m):
                continue
            term = vector_term(ev, t, m)
            if j is not None:
                lj, xj = ev.entry(t, j, m[j])[0], ev.xs[j]
                # D_j is 0 on a summand of order 1, where each sum below is +0j
                dw = [sum(map(operator.mul, r, term)) for r in ev.dmats[j]] if ev.orders[t] > 1 else zero
                term = [(lj * wr + dwr) / xj for wr, dwr in zip(term, dw)]
            total = list(map(operator.add, total, term))
            if nm >= top:
                top, shell = nm, list(map(operator.add, shell if nm == top else zero, term))
    return SeriesValue(v, ev.xs, tuple(total), B, max((abs(c) for c in shell), default=0.0))


def l1_ball(k, radius):
    """Every integer vector of length k and l1 norm at most radius."""
    if k == 0:
        yield ()
        return
    for first in range(-radius, radius + 1):
        for rest in l1_ball(k - 1, radius - abs(first)):
            yield (first,) + rest


def ball_by_image(rays, B):
    """Brute-force windows: the l1 ball of radius B grouped by sum m_i v_i,
    each group in lexicographic order."""
    d = len(rays[0])
    images = {}
    for m in l1_ball(len(rays), B):
        image = tuple(sum(mi * v[r] for mi, v in zip(m, rays) if mi) for r in range(d))
        images.setdefault(image, []).append(m)
    return {t: sorted(ms) for t, ms in images.items()}
