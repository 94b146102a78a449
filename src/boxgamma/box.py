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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .fan import ConeRef, StackyFan, _cone_residues, _full_cone, _memo, _minimal_face, _valid
from .linalg import Coord, GaussianRational, Param, _ZERO, _dot, _integral, format_gaussian, format_rational
from .linalg import parse_rational, read_exact, read_param

@dataclass(frozen=True)
class BoxElement:
    """One solution alpha, its lattice point n with sum(alpha_i v_i) = n + beta,
    and the indices carrying nonzero entries, a face of the fan: the face
    table (fan._faces) gives the maximal cones holding it."""

    alpha: tuple[Coord, ...]
    lattice_point: tuple[int, ...]
    support: tuple[int, ...]


@dataclass(frozen=True)
class Branch:
    """A residue class of one maximal cone; stable label across parameter values.

    residue is the class's representative n0 in the cone's Hermite box
    (fan._cone_residues), which the unique row Hermite form fixes, and
    floors records the integer parts dropped while reducing the cone
    coordinates of n0 + beta, zero outside the cone, so the unreduced
    solution is element.alpha + floors coordinatewise and
    sum((alpha_i + floors_i) v_i) = residue + beta.
    """

    cone: ConeRef
    residue: tuple[int, ...]
    floors: tuple[int, ...]
    element: BoxElement


@dataclass(frozen=True)
class CollisionClass:
    """The branches whose reduced exponents equal alpha; kring.wall_report
    forms the offsets between their unreduced solutions."""

    alpha: tuple[Coord, ...]
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class DeltaCorrespondence:
    """Pairing of the box sets at beta and at beta_delta = Re(beta) + delta*Im(beta).

    Each triple is (element at beta, its image at beta_delta, point sum((alpha_delta)_i v_i)).
    positions holds each triple's target position among the collision classes at beta_delta,
    the quotient's summands; it follows from the rest, so equality and repr ignore it.
    """

    delta: Fraction
    beta: tuple[Coord, ...]
    beta_delta: tuple[Fraction, ...]
    triples: tuple[tuple[BoxElement, BoxElement, tuple[Fraction, ...]], ...]
    positions: tuple[int, ...] = field(default=(), compare=False, repr=False)


def alpha_key(alpha: Sequence[Coord]) -> tuple:
    return tuple((a.real, a.imag or _ZERO) for a in alpha)  # a Fraction's imag is the int 0


def normalize_beta(fan: StackyFan, beta: Sequence) -> tuple[Coord, ...]:
    """beta as canonical scalars, each entry an int, a Fraction, a
    GaussianRational or what parse_gaussian reads; see linalg.read_param."""
    return read_param(beta, "box", "beta", fan.rank).values


def _cone_branches(fan, cone, param, common):
    """(key, residue, floors, BoxElement) quadruples in residue enumeration order.

    The residues are the lattice points n0 of the cone's Hermite box,
    0 <= n0_r < H_rr (fan._cone_residues), one per class of Z^d modulo the
    generators.  The cone coordinates of n0 + beta are
    (T n0 + T beta) / t for the cone's ConeInverse rows T and den t, and
    beta's form param (linalg.Param): integer products, and one Fraction
    per real part (Im alpha is the same for every residue).  The cone's
    inverse (fan._full_cone, "box:") and Hermite diagonal come from the
    fan's cone table.  key holds Re alpha_i and Im alpha_i, interleaved, as
    integers over common * den, for common a multiple of t: over one such
    denominator the keys compare as alpha_key of the exponents does.
    """
    d = fan.rank
    inv = _full_cone(fan, cone, "box")
    den = param.den
    big, scale = inv.den * den, common // inv.den
    t_re, t_im = ([_dot(row, b) for row in inv.rows] for b in (param.re, param.im))
    ims = [Fraction(x, big) for x in t_im]
    out = []
    for n0 in itertools.product(*map(range, _cone_residues(fan, cone))):
        alpha, key, floors = [_ZERO] * fan.k, [0] * (2 * fan.k), [0] * fan.k
        for pos, i in enumerate(cone):
            num = den * _dot(inv.rows[pos], n0) + t_re[pos]
            f = floors[i] = num // big
            r = num - f * big
            alpha[i] = GaussianRational(Fraction(r, big), ims[pos]) if t_im[pos] else Fraction(r, big)
            key[2 * i], key[2 * i + 1] = r * scale, t_im[pos] * scale
        point = tuple(n0[r] - sum(floors[i] * fan.rays[i][r] for i in cone) for r in range(d))
        support = tuple(i for i in range(fan.k) if key[2 * i] or key[2 * i + 1])
        elem = BoxElement(tuple(alpha), point, support)
        out.append((tuple(key), n0, tuple(floors), elem))
    return out


def box_of_cone(fan: StackyFan, cone, beta) -> tuple[BoxElement, ...]:
    """All alpha with Re in [0,1), supported in the cone, solving a lattice
    translate of beta; exactly |det| of them."""
    cone = read_exact(cone, _integral, "box", "cone")
    for pos, i in enumerate(cone, start=1):
        if not 0 <= i < fan.k:
            raise ValueError(f"box: entry {pos} of cone is {i}, not in 0..{fan.k - 1}")
    param = read_param(beta, "box", "beta", fan.rank)
    branches = sorted(_cone_branches(fan, cone, param, _full_cone(fan, cone, "box").den))
    return tuple(e for _, _, _, e in branches)


def box_of_fan(fan: StackyFan, beta) -> tuple[BoxElement, ...]:
    """Union over the maximal cones, deduplicated by exact alpha equality:
    the element of each collision class's first branch."""
    return tuple(cls.branches[0].element for cls in collisions(fan, beta))


def collisions(fan: StackyFan, beta) -> tuple[CollisionClass, ...]:
    """Partition of the per-cone branches by equal reduced exponent vectors,
    built once per parameter (the fan's parameter memo)."""
    return _classes(fan, read_param(beta, "box", "beta", fan.rank))[2]


def _classes(fan: StackyFan, param: Param) -> tuple[int, tuple, tuple[CollisionClass, ...]]:
    """(den, keys, classes) at beta's form param, from the fan's
    parameter memo: the classes sorted, and each one's integer key over den."""
    return _memo(fan._table.params, param, "collisions", _collisions, fan, param)


def _collisions(fan: StackyFan, param: Param) -> tuple[int, tuple, tuple[CollisionClass, ...]]:
    """The classes, grouped and sorted by the branches' integer keys over one
    denominator for the fan and beta: the lcm of the maximal cones'
    ConeInverse dens times that of beta's parts."""
    common = math.lcm(*(_full_cone(fan, mc, "box").den for mc in fan.max_cones))
    groups: dict[tuple, list[Branch]] = {}
    for mc in fan.max_cones:
        for key, residue, floors, e in _cone_branches(fan, mc, param, common):
            groups.setdefault(key, []).append(Branch(mc, residue, floors, e))
    keys = sorted(groups)
    classes = []
    for key in keys:
        branches = tuple(sorted(groups[key], key=lambda br: (br.cone, br.residue)))
        if len({br.element.lattice_point for br in branches}) > 1:
            raise RuntimeError("internal: equal alpha with distinct lattice points")
        classes.append(CollisionClass(branches[0].element.alpha, branches))
    return common * param.den, tuple(keys), tuple(classes)


def correspondence_at(fan: StackyFan, beta, delta) -> DeltaCorrespondence:
    """The pairing of the box sets at beta and at Re(beta) + delta*Im(beta),
    for an exact rational delta, read as linalg.read_exact reads a rational.
    A "box:" DomainError names delta and the first source alpha whose image
    loses support: a coordinate Re alpha_i + delta*Im alpha_i is an integer."""
    (delta,) = read_exact((delta,), parse_rational, "box", "delta")
    return _correspondence(fan, read_param(beta, "box", "beta", fan.rank), delta)[0]


def _correspondence(fan: StackyFan, param: Param, delta):
    """correspondence_at for beta's form param, with each triple's target position among the
    classes at beta_delta; also beta_delta's form and its (den, keys, classes).
    InvalidFan (fan._valid) for a fan validate rejects, once its box set is built.

    alpha_i goes to frac(x_i), x_i = Re alpha_i + delta*Im alpha_i = (R q + p M) / (den q) for
    delta = p / q and the class key's (R, M) over den, and n to n - sum(floor(x_i) v_i), keeping
    the support.  A branch's raw cone coordinates are affine in beta: its image is the same
    branch at beta_delta, with floors + floor(x_i).  So each class at beta maps to the class at
    beta_delta of the image exponent, with the same branches; sorted by their integer keys, they
    are in alpha_key's order.

    The "do not biject" guard, on the sorted classes, cannot fire once every element has passed
    the support check, at any delta.  An image has at most its source's support: a real alpha_i
    is its own image.  Say the images of e1 and e2 are equal and e1 kept its support S.  Then S
    lies in supp(e2), a face of a simplicial cone, and both imaginary parts write Im beta in that
    face's independent generators: they agree on S and vanish off it, so e2's coordinates off S
    are real, nonzero and kept, and supp(e2) = S.  The real parts then agree mod 1, so e1 = e2,
    which the box set excludes."""
    p, q = delta.numerator, delta.denominator
    nums = [r * q + p * m for r, m in zip(param.re, param.im)]
    g = math.gcd(param.den * q, *nums)  # over the least common denominator
    bd = Param(param.den * q // g, tuple(x // g for x in nums), (0,) * len(nums))
    den, keys, sources = _classes(fan, param)
    _valid(fan, "the stabilization")
    xd = den * q
    triples, images, classes = [], [], []
    for key, cls in zip(keys, sources):
        e = cls.branches[0].element
        alpha = list(e.alpha)  # a real alpha_i in [0, 1) is its own image
        image, shift = [0] * (2 * fan.k), [0] * fan.k
        n = e.lattice_point
        for i in range(fan.k):
            xn = key[2 * i] * q + p * key[2 * i + 1]
            if key[2 * i + 1]:
                f = shift[i] = xn // xd
                xn -= f * xd
                alpha[i] = Fraction(xn, xd)
                n = tuple(x - f * c for x, c in zip(n, fan.rays[i]))
            image[2 * i] = xn
        if tuple(i for i in range(fan.k) if image[2 * i]) != e.support:
            named = ", ".join(map(format_gaussian, e.alpha))
            raise DomainError(f"box: at delta {format_rational(delta)} the image of alpha=({named}) loses support")
        # sum((alpha_delta)_i v_i) = n + beta_delta, as _cone_branches solves it
        point = [x * bd.den + y for x, y in zip(n, bd.re)]
        if _minimal_face(fan, point) != e.support:
            raise RuntimeError("internal: point support differs from exponent support")
        target = BoxElement(tuple(alpha), n, e.support)
        triples.append((e, target, tuple(Fraction(x, bd.den) for x in point)))
        images.append(tuple(image))
        branches = tuple(
            Branch(br.cone, br.residue, tuple(x + y for x, y in zip(br.floors, shift)), target)
            for br in cls.branches
        )
        classes.append(CollisionClass(target.alpha, branches))
    order = sorted(range(len(images)), key=images.__getitem__)
    if any(images[i] == images[j] for i, j in zip(order, order[1:])):
        raise RuntimeError("internal: stabilized elements do not biject")
    entry = (xd, tuple(images[j] for j in order), tuple(classes[j] for j in order))
    positions = tuple(sorted(range(len(order)), key=order.__getitem__))  # order's inverse
    return DeltaCorrespondence(delta, param.values, bd.values, tuple(triples), positions), bd, entry


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
    they agree, and then so do the real parts.  Each image is its branch at
    beta_delta (_correspondence), so the images are onto and the box set at
    beta_delta is not built: when beta_delta != beta, the collision classes
    _correspondence writes there go into the fan's memo under beta_delta,
    which the quotient at beta_delta then reads.  r and m are read as the
    classes' integer keys over one denominator.  Built once per parameter
    (the fan's memo), with positions: each target's place among the classes
    at beta_delta, the quotient's summands, as kring and the series read it.
    """
    return _stabilized(fan, read_param(beta, "box", "beta", fan.rank))


def _stabilized(fan: StackyFan, param: Param) -> DeltaCorrespondence:
    """stabilize at beta's form param, from the fan's parameter memo."""
    return _memo(fan._table.params, param, "stabilize", _stabilize, fan, param)


def _stabilize(fan: StackyFan, param: Param) -> DeltaCorrespondence:
    den, keys, _ = _classes(fan, param)
    wn = wd = 1  # the least bound wn / wd
    for key in keys:
        for r, m in zip(key[::2], key[1::2]):
            if m:
                n, d = (den - r, m) if m > 0 else (r or den, -m)
                if n * wd < wn * d:
                    wn, wd = n, d
    j = 4  # halve delta = 2^-j while delta >= wn / wd
    while wd >= wn << j:
        j += 1
    corr, bd, entry = _correspondence(fan, param, Fraction(1, 1 << j))
    if bd != param:
        _memo(fan._table.params, bd, "collisions", lambda: entry)
    return corr
