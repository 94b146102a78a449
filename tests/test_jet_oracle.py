"""reciprocal_gamma_jet at complex l against mpmath.

The reference jet is mpmath's Taylor expansion of eps -> 1/Gamma(l + 1 + eps)
at 40 digits.  The points cover the poles, half-integers, the strip
Re l in [-25, 25] with |Im l| up to 30, and both sides of the Stirling cut,
where the upward walk of log_gamma_jet starts already past Re 20.  Unlike
the derivative residual, which evaluates both sides at one Stirling point,
this oracle sees a fault in the Stirling tail itself.
"""

import functools
import random
from fractions import Fraction

import mpmath as mp

import boxgamma.gkz as gkz
from boxgamma.gkz import reciprocal_gamma_jet

ORDER = 6
TOLERANCE = 1e-12


def oracle_points():
    rng = random.Random(20120)
    poles = [complex(-k) for k in (1, 2, 3, 7, 13, 25)]
    halves = [complex(k + 0.5) for k in (-25, -9, -3, -1, 0, 4, 19)]
    # l + 1 just below, on and just above the cut at Re 20
    cut = [complex(re, im) for re in (18.99, 19.0, 19.01) for im in (0.0, -0.5)]
    strip = [complex(rng.uniform(-25, 25), rng.uniform(-30, 30)) for _ in range(21)]
    return poles + halves + cut + strip


@functools.lru_cache(maxsize=None)
def reference_jets():
    with mp.workdps(40):
        return tuple(
            tuple(complex(c) for c in mp.taylor(lambda e: mp.rgamma(mp.mpc(l) + 1 + e), 0, ORDER - 1))
            for l in oracle_points()
        )


def worst_error():
    """The largest coefficient error over the points, each relative to its
    reference jet's max-norm, and the l where it occurs."""
    errors = (
        (max(abs(a - b) for a, b in zip(reciprocal_gamma_jet(l, ORDER), ref)) / max(map(abs, ref)), l)
        for l, ref in zip(oracle_points(), reference_jets())
    )
    return max(errors, key=lambda pair: pair[0])


def test_jets_match_mpmath_at_complex_l():
    assert len(oracle_points()) == 40
    err, l = worst_error()
    assert err <= TOLERANCE, f"jet error {err:.3g} at l={l!r}"


def test_oracle_sees_a_wrong_stirling_constant():
    # B_2 = 1/5 instead of 1/6 changes every Stirling tail
    saved = gkz._BERNOULLI
    try:
        gkz._BERNOULLI = (Fraction(1, 5),) + saved[1:]
        gkz._stirling_constants.cache_clear()
        err, _ = worst_error()
        assert err > TOLERANCE
    finally:
        gkz._BERNOULLI = saved
        gkz._stirling_constants.cache_clear()
