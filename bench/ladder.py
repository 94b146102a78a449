"""The fixed fans the benchmark runs on, and the seeded parameter draws.

Parameters are drawn as the strings the command-line files use ("p/q",
"p/q+r/si") and handed to the library through its own parser, so the
in-process workloads and the subprocess workload feed the program the same
kind of input.
"""

import itertools
from fractions import Fraction

from boxgamma.fan import StackyFan, triangulate_from_heights


def _cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    rays = [(1,) + tuple(p) for p in points]
    heights = [
        sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)
    ]
    return triangulate_from_heights(rays, heights)


def _simplex_points(dim, side):
    return [p for p in itertools.product(range(side + 1), repeat=dim) if sum(p) <= side]


def _weighted_projective(weights):
    """Complete fan of P(1, w_1, ..., w_n): rays -sum w_i e_i and e_1..e_n,
    one maximal cone per omitted ray; |det| of the cone omitting ray i is w_i."""
    n = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(1 if r == i else 0 for r in range(n)) for i in range(n)]
    return StackyFan(rank=n, rays=tuple(rays), max_cones=tuple(itertools.combinations(range(n + 1), n)))


F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))

# the ladder: seed examples up to 10-ray fans of rank 3 and 4
LADDER = {
    "F1": F1,
    "F2": F2,
    "SQUARE": SQUARE,
    "HEX5": _cone_over([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)]),
    "tri2": _cone_over(_simplex_points(2, 2)),
    "tri3": _cone_over(_simplex_points(2, 3)),
    "simplex3x2": _cone_over(_simplex_points(3, 2)),
}

# stacky weighted projective fans: box sets and quotients of size 6 to 15
WEIGHTED = {
    "P(" + ",".join(map(str, w)) + ")": _weighted_projective(w)
    for w in ((1, 2, 3), (1, 3, 5), (1, 5, 7), (1, 1, 2, 3), (1, 2, 3, 5), (1, 3, 4, 7))
}

FANS = {**LADDER, **WEIGHTED}

# evaluation points where the series converge (|x^m| = 1e-2 per relation)
X_POINTS = {"F1": (1.0, 10.0, 1.0), "SQUARE": (1.0, 0.1, 0.1, 1.0)}


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rational(rng) -> Fraction:
    """A non-integer in (-3, 3) with denominator 7, 11 or 13.

    Such parameters are generic: their box sets have full size and no branch
    collisions.  On a wall (an integral parameter, say) the quotient reaches
    higher degrees and one op costs up to ten times as much, which would make
    a run's figures depend on how many wall draws its seed happened to make.
    """
    q = rng.choice((7, 11, 13))
    return Fraction(rng.choice([p for p in range(1 - 3 * q, 3 * q) if p % q]), q)


def _gaussian_text(rng, tiny_re: bool) -> str:
    im = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), rng.randint(2, 5))
    re = im * Fraction(rng.choice((-1, 1)), rng.randint(20, 1000)) if tiny_re else _rational(rng)
    sign = "+" if im > 0 else "-"
    return f"{_text(re)}{sign}{_text(abs(im))}i"


def draw_beta(rng, rank: int, kind: str) -> tuple[str, ...]:
    """One parameter of the given kind: "zero", "rational", "fractional"
    (rational in (0, 1)) or "gaussian"."""
    if kind == "zero":
        return ("0",) * rank
    if kind == "rational":
        return tuple(_text(_rational(rng)) for _ in range(rank))
    if kind == "fractional":
        return tuple(_text(_rational(rng) % 1) for _ in range(rank))
    if kind == "gaussian":
        # half the draws have |Re| << |Im| in every coordinate: the regime
        # where a small delta decides the chamber
        tiny_re = rng.random() < 0.5
        return tuple(_gaussian_text(rng, tiny_re) for _ in range(rank))
    raise ValueError(f"unknown parameter kind {kind!r}")
