"""The series Phi_0 on both triangulations of SQUARE against Horn sums
summed by mpmath, and on F1 against the span of the powers of the roots of
its quadric.

SQUARE's markers have one relation, h = (1, -1, -1, 1).  Heights (0, 1, 1,
0) and (1, 0, 0, 1) triangulate them in the two ways the flop relates,
each with its own convergent region: x_0 x_3 / (x_1 x_2) large, and small.
At a generic beta each maximal cone sigma gives one summand of the
quotient, whose component of Phi_0 is the scalar Horn series

    sum_k x^(gamma + k h) prod_i rgamma(gamma_i + k h_i + 1),

gamma the solution of sum_i gamma_i a_i = beta with gamma_i = 0 off sigma.
Each component is matched with the sum of the cone whose gamma is the
component's source box element plus an integer vector, and compared on its
own.  The reference takes no jet, so a fault in the Stirling tail shows:
every l_i of one coordinate shares a fractional part, so their Stirling
walks end at one point and a wrong constant only rescales each component,
which a comparison up to the span of the sums would not see.

F1's markers (1, 0), (1, 1), (1, 2) take beta = (0, -s) to the powers
t^s of the roots t of x_0 + x_1 t + x_2 t^2: a root is homogeneous of
degree 0 in x and of degree -1 in the weights (0, 1, 2), and solves the
box operator x_0 x_2 - x_1^2.  So each component of Phi_0 is a linear
combination of t_1^s and t_2^s, on any branch that stays put over the
points.  The check is a span fit, so it cannot see a Stirling fault.
"""

import dataclasses
import functools
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import boxgamma.gkz as gkz
from boxgamma.box import alpha_key
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.gkz import build_gkz, gamma_series
from exact_oracles import solve_simplicial_coords

SQUARE_MARKERS = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
SQUARE = triangulate_from_heights(SQUARE_MARKERS, (0, 1, 1, 0))
FLOP = triangulate_from_heights(SQUARE_MARKERS, (1, 0, 0, 1))
RELATION = (1, -1, -1, 1)
BETAS = [
    (Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)),
    (Fraction(-5, 7), Fraction(3, 11), Fraction(-1, 13)),
]
# each triangulation's base point, inside its convergent region
PHASES = {
    "SQUARE": (SQUARE, (1, 0.1 + 0.05j, 0.1 - 0.02j, 1 + 0.3j)),
    "FLOP": (FLOP, (0.1 + 0.05j, 1, 1 + 0.3j, 0.1 - 0.02j)),
}
BOUND = 40
# the Horn sums run over k in [-K, K]: on one side of 0 each term has a pole
# at the coordinate off the cone and is 0, on the other each is below 1e-2
# of the last, so nothing a double can hold is left out
K = 40
TOLERANCE = 1e-12


def cloud(base):
    """Four points x = base * (1 + 0.2 w), w seeded in the complex unit square."""
    rng = random.Random(2012)
    return [
        tuple(b * (1 + 0.2 * complex(rng.random(), rng.random())) for b in base)
        for _ in range(4)
    ]


def cone_gammas(fan, beta):
    """gamma of each maximal cone: sum_i gamma_i a_i = beta, gamma_i = 0 off
    the cone, solved exactly."""
    out = []
    for cone in fan.max_cones:
        coords = solve_simplicial_coords([fan.rays[i] for i in cone], beta)
        gamma = [Fraction(0)] * fan.k
        for i, c in zip(cone, coords):
            gamma[i] = c
        out.append(tuple(gamma))
    return out


@functools.lru_cache(maxsize=None)
def horn_sum(gamma, x):
    """sum_k x^(gamma + k h) prod_i rgamma(gamma_i + k h_i + 1) at 30 digits,
    x^l as exp(sum_i l_i log x_i) on the principal branch, as the series
    takes it."""
    with mp.workdps(30):
        logs = [mp.log(mp.mpc(c)) for c in x]
        total = mp.mpc(0)
        for k in range(-K, K + 1):
            l = [mp.mpf(g.numerator) / g.denominator + k * h for g, h in zip(gamma, RELATION)]
            term = mp.exp(sum(li * lg for li, lg in zip(l, logs)))
            for li in l:
                term *= mp.rgamma(li + 1)
            total += term
        return complex(total)


def worst_error(phase, beta):
    """The largest error of Phi_0 over the phase's cloud, component by
    component against its cone's Horn sum, relative to the max-norm of the
    sums; the instance is built on a fresh copy of the fan, so no cached jet
    is read."""
    fan, base = PHASES[phase]
    inst = build_gkz(dataclasses.replace(fan), beta)
    q = inst.quotient
    gammas = cone_gammas(fan, beta)
    worst = 0.0
    for x in cloud(base):
        value = gamma_series(inst, (0,) * fan.rank, x, BOUND).value
        want = [0j] * q.dim
        bases = {alpha_key(e.alpha): i for e, i in zip(q.alphas, q.bases)}
        for src, tgt, _ in inst.correspondence.triples:
            matches = [
                g for g in gammas
                if all((gi - a.real).denominator == 1 for gi, a in zip(g, src.alpha))
            ]
            assert len(matches) == 1
            want[bases[alpha_key(tgt.alpha)]] = horn_sum(matches[0], x)
        scale = max(map(abs, want))
        worst = max(worst, max(abs(a - b) for a, b in zip(value, want)) / scale)
    return worst


@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_phi0_matches_the_horn_sums(phase, beta):
    fan = PHASES[phase][0]
    assert build_gkz(fan, beta).quotient.dim == len(fan.max_cones) == 2
    err = worst_error(phase, beta)
    assert err <= TOLERANCE, f"Phi_0 error {err:.3g}"


def test_oracle_sees_a_wrong_stirling_constant():
    # B_2 = 1/5 instead of 1/6 rescales each component of Phi_0
    saved = gkz._BERNOULLI
    try:
        gkz._BERNOULLI = (Fraction(1, 5),) + saved[1:]
        gkz._stirling_constants.cache_clear()
        assert worst_error("SQUARE", BETAS[0]) > TOLERANCE
    finally:
        gkz._BERNOULLI = saved
        gkz._stirling_constants.cache_clear()


F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F1_BASE = (1, -8 - 4j, 1)
F1_EXPONENTS = [Fraction(1, 3), Fraction(-1, 3), Fraction(5, 3), Fraction(2, 7)]


def f1_cloud():
    """Eight points x = F1_BASE * (1 + 0.1 w), each w_j seeded in the
    complex square [-1, 1] + i[-1, 1]."""
    rng = random.Random(7)
    return [
        tuple(b * (1 + 0.1 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for b in F1_BASE)
        for _ in range(8)
    ]


def root_span_residual(s):
    """The largest max-norm residual, relative to the component's max-norm,
    of a least-squares fit of each component of Phi_0 over f1_cloud in
    span{t_1^s, t_2^s}, t the roots of x_0 + x_1 t + x_2 t^2 taken on the
    principal branch.  Built on a fresh copy of F1, so no cached window or
    jet is read."""
    inst = build_gkz(dataclasses.replace(F1), (Fraction(0), -s))
    rows, values = [], []
    for x0, x1, x2 in f1_cloud():
        disc = np.sqrt(complex(x1 * x1 - 4 * x0 * x2))
        rows.append([((-x1 + sign * disc) / (2 * x2)) ** float(s) for sign in (1, -1)])
        values.append(gamma_series(inst, (0, 0), (x0, x1, x2), BOUND).value)
    basis, values = np.array(rows), np.array(values)
    worst = 0.0
    for y in values.T:
        coeffs = np.linalg.lstsq(basis, y, rcond=None)[0]
        worst = max(worst, np.max(np.abs(basis @ coeffs - y)) / np.max(np.abs(y)))
    return worst


@pytest.mark.parametrize("s", F1_EXPONENTS, ids=str)
def test_phi0_on_f1_lies_in_the_span_of_the_root_powers(s):
    err = root_span_residual(s)
    assert err <= TOLERANCE, f"span residual {err:.3g}"


def test_root_span_sees_a_dropped_window_offset(monkeypatch):
    """Without the smallest-norm offset of each window the series loses its
    term nearest each box element, and the fit fails."""
    window = gkz._window

    def dropped(*args):
        offsets, norms = window(*args)
        drop = norms.index(min(norms))
        return offsets[:drop] + offsets[drop + 1:], norms[:drop] + norms[drop + 1:]

    monkeypatch.setattr(gkz, "_window", dropped)
    for s in (F1_EXPONENTS[0], F1_EXPONENTS[2]):
        assert root_span_residual(s) > TOLERANCE
