"""Spectrum of the deformed Grothendieck ring attached to a stacky fan.

The ring is Artinian and its maximal ideals correspond to the reduced
exponent vectors alpha of the box set through y_i = exp(2*pi*i*alpha_i).
Point multiplicities are read off the graded quotient's summand dimensions,
transported through the small-parameter correspondence when the parameter
has an imaginary part.  Collisions of per-cone branches onto one spectrum
point mark the non-semisimple locus; each colliding pair carries the integer
offset between the two unreduced solutions as an exact witness.
"""

import cmath
import itertools
import sys
from dataclasses import dataclass
from typing import Sequence

from .box import Branch, CollisionClass, _classes, _stabilized, collisions
from .errors import PhaseOverflow
from .fan import StackyFan
from .linalg import Coord, format_gaussian, read_param
from .quotient import ModuleSpec, build_quotient


@dataclass(frozen=True)
class KPoint:
    """One point of the spectrum with its collision class and multiplicity."""

    y: tuple[complex, ...]
    alpha_class: CollisionClass
    multiplicity: int


@dataclass(frozen=True)
class WallRecord:
    """Two branches landing on the same spectrum point.

    difference is second's unreduced solution minus first's, an integer
    vector, so sum(d_i v_i) = second.residue - first.residue, each residue
    the branch's point in its cone's Hermite box; both reduce to the shared alpha.
    """

    alpha: tuple[Coord, ...]
    first: Branch
    second: Branch
    difference: tuple[int, ...]


def unit_phase(a: Coord) -> complex:
    """exp(2*pi*i*a), exactly 1.0 when a is exactly zero; PhaseOverflow names
    an a whose value's modulus overflows or falls below sys.float_info.min."""
    if a == 0:
        return complex(1.0)
    try:
        y = cmath.exp(2j * cmath.pi * complex(a))
        if abs(y) >= sys.float_info.min:
            return y
        way = "underflows"
    except OverflowError:
        way = "overflows"
    raise PhaseOverflow(f"kring: exp(2 pi i alpha) {way} at alpha={format_gaussian(a)}")


def spectrum(fan: StackyFan, beta: Sequence) -> tuple[KPoint, ...]:
    """All spectrum points in lexicographic exponent order.

    The multiplicity of a point is the dimension of the graded quotient
    summand at the stabilized real parameter paired with its exponent
    vector, so the multiplicities always sum to the normalized volume.  The
    stabilization's triples are in collision-class order, as its source box
    set is the classes' projection, and each target is found by its position
    among the classes at beta_delta, which are the quotient's summands.
    """
    param = read_param(beta, "box", "beta", fan.rank)
    corr = _stabilized(fan, param)
    dims = build_quotient(ModuleSpec(fan, corr.beta_delta)).dims
    classes = _classes(fan, param)[2]
    try:
        return tuple(
            KPoint(tuple(unit_phase(a) for a in cls.alpha), cls, dims[pos])
            for cls, pos in zip(classes, corr.positions, strict=True)
        )
    except PhaseOverflow:  # where both happen, an exponent that overflows is named first
        for a in sorted((a for c in classes for a in c.alpha), key=lambda a: a.imag):
            unit_phase(a)
        raise


def wall_report(fan: StackyFan, beta: Sequence) -> tuple[WallRecord, ...]:
    """One record per colliding branch pair; empty exactly off the walls."""
    records = []
    for cls in collisions(fan, beta):
        for first, second in itertools.combinations(cls.branches, 2):
            diff = tuple(x - y for x, y in zip(second.floors, first.floors))
            records.append(WallRecord(cls.alpha, first, second, diff))
    return tuple(records)


def is_semisimple(fan: StackyFan, beta: Sequence) -> bool:
    return all(p.multiplicity == 1 for p in spectrum(fan, beta))
