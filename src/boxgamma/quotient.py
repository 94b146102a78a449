"""Deformed Stanley-Reisner modules and their quotients by the degree ideal.

A module over the subring generated by the marked rays decomposes into
summands indexed by the box elements of the parameter.  Inside the summand of
alpha, points are monomials m >= 0 supported together with alpha in a common
maximal cone, via p = sum((alpha_i + m_i) v_i); the correspondence is a
bijection because cone coordinates are unique.  Quotients by the ideal
(Z_1..Z_d), Z_j = sum_i g_j(v_i) [v_i], are computed degree by degree in |m|
by the library's one integer elimination on sparse rows (linalg._rref),
each reduced row divided by its content; Fractions appear only in the
classes of the monomials kept.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .box import BoxElement, _classes, _collisions, alpha_key
from .errors import (
    DimensionOvershoot,
    NoStabilizationWindow,
    ShadowNotSubmodule,
    UnboundedDegree,
)
from .fan import StackyFan, _faces, _mask, _memo, _tangent_test, normalized_volume, validate
from .linalg import Coord, Param, _ZERO, _dot, _rref, parse_rational, read_exact, read_int

_ONE = Fraction(1)


@dataclass(frozen=True)
class ModuleSpec:
    """Real rational shift chi and optional shadow direction xi restricting to
    points whose translate admits xi as a tangent direction.  chi is read
    once into form, its Param, which the stages read."""

    fan: StackyFan
    chi: tuple[Fraction, ...]
    xi: Optional[tuple[Fraction, ...]] = None
    form: Param = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name, point in (("chi", self.chi), ("xi", self.xi)):
            if point is not None:
                exact = read_exact(point, parse_rational, "quotient", name, self.fan.rank)
                object.__setattr__(self, name, exact)
        object.__setattr__(self, "form", Param.of(self.chi))


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
    """The graded quotient; build_quotient hands one instance to every caller
    with the same fan and spec.  entries holds each marker's D_i as its
    nonzero (row, column, value), sorted.  dims holds each summand's
    dimension and bases the index in basis of its base element (degree 0,
    monomial 0) or None, both in the order of alphas.  Views built on first
    read: dmats, each D_i dense (no library path reads it), and summand_dims,
    dims keyed by alpha_key (its keys hash Fraction pairs)."""

    spec: ModuleSpec
    basis: tuple[BasisElement, ...]
    dim: int
    entries: tuple[tuple[tuple[int, int, Fraction], ...], ...]
    dims: tuple[int, ...] = field(repr=False)
    alphas: tuple[BoxElement, ...] = ()
    bases: tuple[Optional[int], ...] = field(default=(), repr=False)

    @functools.cached_property
    def summand_dims(self) -> Mapping:
        return MappingProxyType({alpha_key(e.alpha): n for e, n in zip(self.alphas, self.dims)})

    @functools.cached_property
    def dmats(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return _dense(self, _ZERO, Fraction)


def _dense(q: QuotientAlgebra, zero, read) -> tuple:
    """Each D_i of q as a dense matrix of read(value), zero off its entries."""
    cells = [{(a, b): read(x) for a, b, x in entries} for entries in q.entries]
    return tuple(tuple(tuple(c.get((a, b), zero) for b in range(q.dim)) for a in range(q.dim)) for c in cells)


def _check_graded(fan: StackyFan) -> tuple[int, ...]:
    """validate's report.deg: fan.deg, or the one an eligible fan infers;
    UnboundedDegree when there is none or it is not positive on the support."""
    deg = validate(fan).deg
    if deg is None:
        raise UnboundedDegree("quotient: fan carries no degree functional")
    if any(_dot(deg, fan.rays[i]) <= 0 for i in fan.fan_indices()):
        raise UnboundedDegree("quotient: degree functional is not positive on the support")
    return deg


def graded_piece(spec: ModuleSpec, m: int) -> GradedPiece:
    """Lattice points n with n + chi in the support, passing the shadow
    filter, of degree m; requires a positive degree functional.  Built once
    per (fan, chi, xi, m), in the graded memo of the fan's table
    (see fan._ConeTable), under chi as given: the points depend on chi itself.
    m is read as the int it equals, so m = 1.0 and m = 1 share one piece;
    ValueError names an m that equals no integer."""
    n = read_int(m, "quotient", "the degree m")
    return _memo(spec.fan._table.graded, spec.chi, (spec.xi, n), _graded_piece, spec, n)


def _graded_piece(spec: ModuleSpec, m: int) -> GradedPiece:
    """The degree-m points n_alpha + sum c_i v_i over the box elements alpha
    at chi and the monomials c of their face blocks; deg is a positive
    integer on every ray, so |c| <= m - deg(n_alpha).  The box set at chi is
    read from the graded memo beside the pieces (see fan._ConeTable).  On a
    fan validate rejects, two box elements may give one point."""
    fan = spec.fan
    deg = _check_graded(fan)
    tangent = None if spec.xi is None else _tangent_test(fan, spec.xi)
    points = set()
    for cls in _memo(fan._table.graded, spec.chi, "collisions", _collisions, fan, spec.form)[2]:
        a = cls.branches[0].element
        block = _block(spec, a, tangent)
        for t in range(m - _dot(deg, a.lattice_point) + 1):
            for mono in block._monomials(t):
                n = tuple(n0 + _dot(mono, col) for n0, col in zip(a.lattice_point, block.coords))
                if _dot(deg, n) == m:
                    points.add(n)
    return GradedPiece(m, tuple(sorted(points)))


def _markers(mask: int) -> list[int]:
    """The markers of a bitmask, ascending: fan._mask's inverse."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _times(m: tuple[int, ...], i: int) -> tuple[int, ...]:
    """x_i m."""
    return m[:i] + (m[i] + 1,) + m[i + 1 :]


class _Unclosed(Exception):
    """(monomial, ray): the monomial passes the shadow filter, x_ray times it not."""


class _Summand:
    """Degree-by-degree state of the summands on one face S = supp(alpha).
    walk[t] maps each admissible degree-t monomial m to its face
    S + supp(m), a bitmask (see fan._faces); m is admissible iff that is a
    face of the fan, as every maximal cone holding it holds S.  So walk[t]
    is x_i m over m in walk[t - 1] and the markers i of the cover of m's
    face, and the face of x_i m is m's with bit i set.  moves[t][c] lists
    the (ray, degree-t column) pairs of x_ray times the degree-(t-1)
    monomial in column c, rays in the same order, classes[t][c2] the
    nonzero quotient coordinates of the monomial in column c2.  Kept: the
    walk, free columns' moves, their targets' classes, the free monomials
    below the last degree.  The shadow filter keeps m iff its face is in
    tangent: T_S, the passing faces holding S, the block's signature in the
    fan's blocks memo (two kept per face), all passing faces, or None
    without xi.  m sorts by (sum m_i v_i, m): alpha enters by its support."""

    def __init__(self, spec: ModuleSpec, alpha_elem: BoxElement, tangent):
        self.fan = spec.fan
        self.tangent = tangent
        self.coords = tuple(zip(*self.fan.rays))  # coordinate r of every marker
        self.walk = [{(0,) * self.fan.k: _mask(alpha_elem.support)}]
        self.pieces: dict[int, dict[int, tuple[int, ...]]] = {}
        self.moves: dict[int, dict[int, list[tuple[int, int]]]] = {}
        self.classes: dict[int, dict[int, list[tuple[int, Fraction]]]] = {}
        self.quot: dict[int, list[int]] = {}

    def _monomials(self, t: int):
        cover = _faces(self.fan)
        while len(self.walk) <= t:
            last = self.walk[-1].items()
            self.walk.append({_times(m, i): f | 1 << i for m, f in last for i in _markers(cover[f])})
        found = {
            m: tuple(_dot(m, col) for col in self.coords)
            for m, face in self.walk[t].items()
            if self.tangent is None or face in self.tangent
        }
        return sorted(found, key=lambda m: (found[m], m))

    def extend(self, t: int) -> int:
        """Compute degree t, after t - 1, unless built, and return the dimension
        of its quotient; raising _Unclosed stores no degree."""
        if t in self.quot:
            return len(self.quot[t])
        fan = self.fan
        cover = _faces(fan)
        mons = self._monomials(t)
        col = {m: c for c, m in enumerate(mons)}
        moves, rows = {}, []
        for c_prev, mprev in self.pieces.get(t - 1, {}).items():
            targets = []
            for i in _markers(cover[self.walk[t - 1][mprev]]):
                c = col.get(_times(mprev, i))
                if c is None:
                    raise _Unclosed(mprev, i)
                targets.append((i, c))
            moves[c_prev] = targets
            # Z_j applied to mprev, its nonzero entries; an empty row is dropped by _rref
            for j in range(fan.rank):
                rows.append({c: fan.rays[i][j] for i, c in targets if fan.rays[i][j]})
        ech = _rref(rows)
        quot = [c for c in range(len(mons)) if c not in ech]
        free = self.quot.get(t - 1, [])
        self.moves[t] = {c: moves[c] for c in free}
        # a free column is its own class, a pivot one minus its reduced row
        self.classes[t] = {
            c2: [(q, Fraction(-x, ech[c2][c2])) for q, x in ech[c2].items() if q != c2]
            if c2 in ech else [(c2, _ONE)]
            for c in free for _, c2 in moves[c]
        }
        if t:
            self.pieces[t - 1] = {c: self.pieces[t - 1][c] for c in free}
        self.pieces[t] = dict(enumerate(mons))
        self.quot[t] = quot
        return len(quot)


def _block(spec: ModuleSpec, alpha: BoxElement, tangent) -> _Summand:
    """The block of alpha's face S, from the fan's blocks memo, under its
    signature T_S: the faces of tangent holding S, or None without xi."""
    face = _mask(alpha.support)
    signature = None if tangent is None else frozenset(f for f in tangent if f & face == face)
    signatures = spec.fan._table.blocks.setdefault(face, {})
    return _memo(signatures, signature, "block", _Summand, spec, alpha, signature)


def build_quotient(spec: ModuleSpec) -> QuotientAlgebra:
    """Quotient Q of the chi-shifted module M by (Z_1..Z_d), degree by degree,
    up to the first degree t >= g with Q_t = 0 (g = 0, or rank with a shadow
    direction); every later degree of Q is 0.  Proof: the ray operators
    commute with the Z_j, so if Q_t = 0 and every degree-(t+1) monomial is
    x_i times a degree-t one, M_(t+1) = sum_i x_i sum_j Z_j M_(t-1) lies in
    (ZM)_(t+1) and Q_(t+1) = 0.  Without a shadow every monomial of positive
    degree is such a multiple.  The shadow filter reads the face
    supp(alpha) + supp(m) alone (fan._tangent_test): the maximal cones
    containing sum (alpha_i + m_i) v_i are those holding that face.  So a
    monomial with no passing m - e_i is the 0/1 vector of at most rank
    rays, of degree at most g.  Each degree is checked
    against the normalized volume (DimensionOvershoot); ending below it
    raises NoStabilizationWindow.  An offset is deg(n) for the report's
    deg, or t on a fan without one.  Built once per (fan, chi, xi) (the
    fan's parameter memo), from the block of each face S = supp(alpha)
    (_block), kept in the fan's blocks memo under its signature T_S, the
    passing faces holding S, two signatures per face: a block reads xi
    only through T_S.  graded_piece reads the same blocks."""
    return _memo(spec.fan._table.params, spec.form, spec.xi, _build_quotient, spec)


def _build_quotient(spec: ModuleSpec) -> QuotientAlgebra:
    fan = spec.fan
    deg = validate(fan).deg
    # the shadow filter, xi solved once per build
    tangent = None if spec.xi is None else _tangent_test(fan, spec.xi)
    # box_of_fan's elements, from the form, which is not read again
    alphas = tuple(cls.branches[0].element for cls in _classes(fan, spec.form)[2])
    vol = normalized_volume(fan)
    summands = [_block(spec, a, tangent) for a in alphas]
    g = 0 if spec.xi is None else fan.rank
    cum = t = 0
    while True:
        try:
            contrib = sum(s.extend(t) for s in summands)
        except _Unclosed as exc:
            xi = ", ".join(map(str, spec.xi))
            raise ShadowNotSubmodule(
                f"quotient: the shadow direction xi=({xi}) does not give a submodule: monomial "
                f"{exc.args[0]} passes it, its product with ray {exc.args[1] + 1} does not"
            ) from None
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

    basis, index, bases, dims = [], {}, [], []  # index: (summand, degree, column) -> basis position
    for s_i, (a, s) in enumerate(zip(alphas, summands)):
        # the base element: degree 0 holds the monomial 0 alone, unless the shadow drops it
        bases.append(len(basis) if s.quot[0] else None)
        # a shared block may hold later degrees, all of dimension 0
        for deg_t in range(t):
            for c in s.quot[deg_t]:
                m = s.pieces[deg_t][c]
                n = tuple(n0 + _dot(m, col) for n0, col in zip(a.lattice_point, s.coords))
                offset = deg_t if deg is None else _dot(deg, n)
                index[(s_i, deg_t, c)] = len(basis)
                basis.append(BasisElement(offset, n, a.alpha, m, deg_t))
        dims.append(sum(len(s.quot[deg_t]) for deg_t in range(t)))

    # D_i sends a basis monomial to the reduced class of its move along ray i;
    # the last degree has no basis element, so every move is tabled
    entries = [[] for _ in range(fan.k)]
    for (s_i, deg_t, c), g_idx in index.items():
        s = summands[s_i]
        for i, c2 in s.moves[deg_t + 1][c]:
            entries[i] += [(index[s_i, deg_t + 1, q], g_idx, value) for q, value in s.classes[deg_t + 1][c2]]

    return QuotientAlgebra(
        spec=spec,
        basis=tuple(basis),
        dim=len(basis),
        entries=tuple(tuple(sorted(e)) for e in entries),  # (row, column) pairs are distinct
        dims=tuple(dims),
        alphas=alphas,
        bases=tuple(bases),
    )
