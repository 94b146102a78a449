"""Box sets of simplicial stacky fans with rational or complex parameters.

A box element for a full-dimensional cone records the unique exponent vector
alpha with real parts in [0,1) that writes a lattice translate of the
parameter beta in the cone's marked generators.  The module also provides the
delta-stabilization replacing a complex beta by the nearby real parameter
Re(beta) + delta*Im(beta), and the collision partition of the per-cone
branches.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DependentGenerators, NotFullDimensional
from .fan import ConeRef, StackyFan, _cone_inverse, _cone_smith, minimal_cone
from .linalg import (
    Coord,
    as_gaussian,
    im_part,
    re_part,
    scalar_from_parts,
    scaled_numerators,
)

@dataclass(frozen=True)
class BoxElement:
    """One solution alpha, its lattice point n with sum(alpha_i v_i) = n + beta,
    the indices carrying nonzero entries, and every maximal cone containing them."""

    alpha: tuple[Coord, ...]
    lattice_point: tuple[int, ...]
    support: tuple[int, ...]
    witness_cones: tuple[ConeRef, ...]


@dataclass(frozen=True)
class Branch:
    """A residue class of one maximal cone; stable label across parameter values.

    floors records the integer parts dropped while reducing the raw cone
    coordinates, zero outside the cone, so the unreduced solution is
    element.alpha + floors coordinatewise.
    """

    cone: ConeRef
    residue: tuple[int, ...]
    floors: tuple[int, ...]
    element: BoxElement


@dataclass(frozen=True)
class CollisionClass:
    alpha: tuple[Coord, ...]
    branches: tuple[Branch, ...]
    # offsets of each branch's unreduced solution against the first branch;
    # integer vectors since the reduced exponents agree
    differences: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DeltaCorrespondence:
    """Pairing of the box sets at beta and at beta_delta = Re(beta) + delta*Im(beta).

    Each triple is (element at beta, element at beta_delta, point sum((alpha_delta)_i v_i)).
    """

    delta: Fraction
    beta: tuple[Coord, ...]
    beta_delta: tuple[Fraction, ...]
    triples: tuple[tuple[BoxElement, BoxElement, tuple[Fraction, ...]], ...]


def alpha_key(alpha: Sequence[Coord]) -> tuple:
    return tuple((re_part(a), im_part(a)) for a in alpha)


def normalize_beta(fan: StackyFan, beta: Sequence) -> tuple[Coord, ...]:
    if len(beta) != fan.rank:
        raise ValueError(f"beta must have {fan.rank} coordinates, got {len(beta)}")
    out = []
    for b in beta:
        g = as_gaussian(b)
        out.append(scalar_from_parts(g.re, g.im))
    return tuple(out)


def _witnesses(fan: StackyFan, support: tuple[int, ...], cone: ConeRef) -> tuple[ConeRef, ...]:
    wits = tuple(mc for mc in fan.max_cones if set(support) <= set(mc))
    return wits if wits else (cone,)


def _cone_branches(fan, cone, beta):
    """(residue, floors, BoxElement) triples in residue enumeration order.

    With S V T = D the Smith form of the generator matrix V, the residues r
    of Z^d / V Z^d give the lattice points n0 = S^-1 r, and the cone
    coordinates of n0 + beta are (adj n0 + adj beta) / det.  adj beta is
    formed once, over a common denominator of beta's parts; each residue
    then costs integer products and one Fraction per coordinate and part.
    V's inverse and Smith data come from the fan's cone table.
    """
    d = fan.rank
    cone = tuple(cone)
    named = tuple(i + 1 for i in cone)
    if len(cone) != d:
        raise NotFullDimensional(f"box: cone {named} is not full-dimensional in rank {d}")
    try:
        inv = _cone_inverse(fan, cone)
    except DependentGenerators:
        raise NotFullDimensional(f"box: generators of cone {named} are linearly dependent") from None
    adj, det = inv.rows, inv.den
    diag, s_inv = _cone_smith(fan, cone)
    gens = [fan.rays[i] for i in cone]
    re = [re_part(b) for b in beta]
    im = [im_part(b) for b in beta]
    den = math.lcm(*(x.denominator for x in re + im))
    big = det * den
    b_re = scaled_numerators(re, den)
    b_im = scaled_numerators(im, den)
    adj_re = [sum(a * b for a, b in zip(row, b_re)) for row in adj]
    adj_im = [sum(a * b for a, b in zip(row, b_im)) for row in adj]
    out = []
    for residue in itertools.product(*[range(x) for x in diag]):
        n0 = [sum(a * b for a, b in zip(row, residue)) for row in s_inv]
        alpha = [Fraction(0)] * fan.k
        floors = []
        for pos, i in enumerate(cone):
            num = den * sum(a * b for a, b in zip(adj[pos], n0)) + adj_re[pos]
            f = num // big
            alpha[i] = scalar_from_parts(Fraction(num - f * big, big), Fraction(adj_im[pos], big))
            floors.append(f)
        point = tuple(
            n0[r] - sum(floors[pos] * gens[pos][r] for pos in range(d)) for r in range(d)
        )
        support = tuple(i for i in range(fan.k) if alpha[i] != 0)
        elem = BoxElement(tuple(alpha), point, support, _witnesses(fan, support, cone))
        padded = [0] * fan.k
        for pos, i in enumerate(cone):
            padded[i] = floors[pos]
        out.append((residue, tuple(padded), elem))
    return out


def box_of_cone(fan: StackyFan, cone, beta) -> tuple[BoxElement, ...]:
    """All alpha with Re in [0,1), supported in the cone, solving a lattice
    translate of beta; exactly |det| of them."""
    b = normalize_beta(fan, beta)
    elems = [e for _, _, e in _cone_branches(fan, cone, b)]
    return tuple(sorted(elems, key=lambda e: alpha_key(e.alpha)))


def box_of_fan(fan: StackyFan, beta) -> tuple[BoxElement, ...]:
    """Union over the maximal cones, deduplicated by exact alpha equality:
    the element of each collision class's first branch."""
    return tuple(cls.branches[0].element for cls in collisions(fan, beta))


def collisions(fan: StackyFan, beta) -> tuple[CollisionClass, ...]:
    """Partition of the per-cone branches by equal reduced exponent vectors."""
    b = normalize_beta(fan, beta)
    groups: dict[tuple, list[Branch]] = {}
    for mc in fan.max_cones:
        for residue, floors, e in _cone_branches(fan, mc, b):
            groups.setdefault(alpha_key(e.alpha), []).append(Branch(mc, residue, floors, e))
    classes = []
    for key in sorted(groups):
        branches = tuple(sorted(groups[key], key=lambda br: (br.cone, br.residue)))
        if len({br.element.lattice_point for br in branches}) > 1:
            raise RuntimeError("internal: equal alpha with distinct lattice points")
        base = branches[0].floors
        diffs = tuple(
            tuple(x - y for x, y in zip(br.floors, base)) for br in branches
        )
        classes.append(CollisionClass(branches[0].element.alpha, branches, diffs))
    return tuple(classes)


def _alpha_delta(alpha: Sequence[Coord], delta: Fraction) -> tuple[Fraction, ...]:
    """Per-coordinate fractional parts of Re + delta*Im."""
    values = (re_part(a) + delta * im_part(a) for a in alpha)
    return tuple(v - math.floor(v) for v in values)


def correspondence_at(fan: StackyFan, beta, delta: Fraction) -> DeltaCorrespondence:
    """The pairing of the box sets at beta and at Re(beta) + delta*Im(beta)."""
    b = normalize_beta(fan, beta)
    return _correspondence(fan, b, box_of_fan(fan, b), delta)


def _correspondence(fan: StackyFan, b, source, delta: Fraction) -> DeltaCorrespondence:
    """correspondence_at for a normalized beta whose box set is already built."""
    beta_delta = tuple(re_part(x) + delta * im_part(x) for x in b)
    target = box_of_fan(fan, beta_delta)
    index = {alpha_key(e.alpha): i for i, e in enumerate(target)}
    used = set()
    triples = []
    for e in source:
        values = _alpha_delta(e.alpha, delta)
        j = index.get(tuple((v, Fraction(0)) for v in values))
        if j is None or j in used:
            raise RuntimeError("internal: stabilized elements do not biject")
        used.add(j)
        te = target[j]
        if te.support != e.support:
            raise RuntimeError("internal: support changed under stabilization")
        point = tuple(
            sum((values[i] * fan.rays[i][r] for i in range(fan.k)), start=Fraction(0))
            for r in range(fan.rank)
        )
        if minimal_cone(fan, point) != e.support:
            raise RuntimeError("internal: point support differs from exponent support")
        triples.append((e, te, point))
    if len(used) != len(target):
        raise RuntimeError("internal: stabilized elements do not biject")
    return DeltaCorrespondence(delta, b, beta_delta, tuple(triples))


def stabilize(fan: StackyFan, beta) -> DeltaCorrespondence:
    """The correspondence at the largest delta = 2^-j <= 1/16 below every wall.

    A coordinate r + i*m of a source element, m != 0, has the image
    r + delta*m.  It first reaches an integer at delta = (1 - r)/m for m > 0
    and at delta = (r or 1)/(-m) for m < 0: from r = 0 it drops below 0 at
    once and its fractional part 1 + delta*m falls to 0 there.  Below the
    least such bound every floor and support equals its delta -> 0+ limit:
    the floor is -1 exactly where Re alpha_i = 0 and Im alpha_i < 0, and the
    support is supp alpha.  Two images cannot coincide there.  Equal images
    share a support, which spans one face of a simplicial cone; both
    imaginary parts write Im beta in that face's independent generators, so
    they agree, and then so do the real parts.  The checks in
    _correspondence still guard the bijection.
    """
    b = normalize_beta(fan, beta)
    source = box_of_fan(fan, b)
    wall = Fraction(1)
    for e in source:
        for a in e.alpha:
            r, m = re_part(a), im_part(a)
            if m > 0:
                wall = min(wall, (1 - r) / m)
            elif m < 0:
                wall = min(wall, (r or 1) / -m)
    delta = Fraction(1, 16)
    while delta >= wall:
        delta /= 2
    return _correspondence(fan, b, source, delta)
