"""The algebra path on integers: from the box set to the spectrum, beta,
beta_delta and every exponent are integer numerators over one denominator
per (fan, beta), and Fractions are formed only for public fields.  The
results equal the Fraction-keyed route of tests/exact_oracles.py, and one
warm op hashes no Fraction."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgamma.box import alpha_key, box_of_fan, correspondence_at, stabilize
from boxgamma.errors import DomainError
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.kring import spectrum, wall_report
from boxgamma.linalg import GaussianRational, read_param
from boxgamma.quotient import ModuleSpec, build_quotient
from exact_oracles import (
    fraction_correspondence,
    fraction_keyed_maps,
    fraction_keyed_spectrum,
    fraction_keyed_wall_report,
    fraction_stabilize,
)


def weighted_projective(*weights):
    """Complete fan of P(1, w_1, ..., w_n); the cone omitting ray i has |det| w_i."""
    n = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(int(r == i) for r in range(n)) for i in range(n)]
    return StackyFan(rank=n, rays=tuple(rays), max_cones=tuple(itertools.combinations(range(n + 1), n)))


HEX5_POINTS = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
P1347 = weighted_projective(1, 3, 4, 7)
# the ladder's small fans and weighted projective ones
FANS = {
    "F1": StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2))),
    "F2": StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2))),
    "SQUARE": SQUARE,
    "HEX5": triangulate_from_heights(
        [(1,) + p for p in HEX5_POINTS],
        [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(HEX5_POINTS)],
    ),
    "P(1,2,3)": weighted_projective(1, 2, 3),
    "P(1,1,2,3)": weighted_projective(1, 1, 2, 3),
    "P(1,3,4,7)": P1347,
}

# integral parts put a rational beta on walls and give a Gaussian entry
# Re alpha_i = 0 (with Im alpha_i < 0 the image's floor is -1); tiny ones
# give |Re| << |Im|; the rest are plain rationals
real_part = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(Fraction(-1, 1000), Fraction(1, 1000), max_denominator=10**5),
    st.fractions(-3, 3, max_denominator=12),
)
imaginary_part = st.fractions(-3, 3, max_denominator=12).filter(bool)
entry = st.one_of(real_part, st.builds(GaussianRational, real_part, imaginary_part))


def outcome(call):
    """call()'s result with its repr, or the type and text of the error it raises."""
    try:
        value = call()
    except (DomainError, RuntimeError) as exc:
        return type(exc), str(exc)
    return value, repr(value)


def quotient_maps(fan, chi, xi):
    """The quotient's summand_dims and its bases keyed by alpha_key as lists
    of items: what the pins hash."""
    q = build_quotient(ModuleSpec(fan, chi, xi))
    bases = [(alpha_key(e.alpha), i) for e, i in zip(q.alphas, q.bases) if i is not None]
    return [list(q.summand_dims.items()), bases]


def oracle_maps(fan, chi, xi):
    return [list(m.items()) for m in fraction_keyed_maps(build_quotient(ModuleSpec(fan, chi, xi)))]


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(FANS)), data=st.data())
def test_integer_path_matches_the_fraction_route(name, data):
    """stabilize, correspondence_at, build_quotient's maps (with and without
    a shadow direction), spectrum and wall_report equal the Fraction-keyed
    route on a fresh copy of the fan, field for field and by repr: rational,
    Gaussian, |Re| << |Im| and wall parameters, at the stabilizing delta and
    at deltas below, at and above it."""
    fan = dataclasses.replace(FANS[name])

    def fresh():
        return dataclasses.replace(FANS[name])

    beta = tuple(data.draw(entry) for _ in range(fan.rank))
    got = outcome(lambda: stabilize(fan, beta))
    assert got == outcome(lambda: fraction_stabilize(fresh(), beta))
    if isinstance(got[0], type):
        return
    corr = got[0]
    deltas = st.one_of(
        st.sampled_from([corr.delta, corr.delta / 1024, 2 * corr.delta, Fraction(1, 3), Fraction(0)]),
        st.fractions(-2, 2, max_denominator=64),
    )
    delta = data.draw(deltas)
    assert outcome(lambda: correspondence_at(fan, beta, delta)) == outcome(
        lambda: fraction_correspondence(fresh(), beta, delta)
    )
    shadow = tuple(x.real for x in read_param(beta, "box", "beta", fan.rank).values)
    for xi in (None, shadow):
        got = outcome(lambda: quotient_maps(fan, corr.beta_delta, xi))
        assert got == outcome(lambda: oracle_maps(fresh(), corr.beta_delta, xi))
    assert outcome(lambda: spectrum(fan, beta)) == outcome(lambda: fraction_keyed_spectrum(fresh(), beta))
    assert outcome(lambda: wall_report(fan, beta)) == outcome(
        lambda: fraction_keyed_wall_report(fresh(), beta)
    )


def one_op(fan, beta, hashes):
    """The library calls of one algebra_sweep op, each with the number of
    entries it added to hashes."""
    counts = {}
    for stage, call in (
        ("box_of_fan", lambda: box_of_fan(fan, beta)),
        ("stabilize", lambda: stabilize(fan, beta)),
        ("build_quotient", lambda: build_quotient(ModuleSpec(fan, stabilize(fan, beta).beta_delta))),
        ("spectrum", lambda: spectrum(fan, beta)),
    ):
        start = len(hashes)
        call()
        counts[stage] = len(hashes) - start
    return counts


@pytest.mark.parametrize("fan", [SQUARE, P1347], ids=["SQUARE", "P(1,3,4,7)"])
def test_a_warm_op_hashes_no_fraction(monkeypatch, fan):
    """After a first op has filled the fan's cone table, an op at a new
    Gaussian beta builds its box set, stabilization, quotient and spectrum
    and reads each through the parameter memo without hashing a Fraction:
    the memo is keyed by integers and the quotient's summands are found by
    position.  A Fraction hashed per lookup again makes this fail."""
    fan = dataclasses.replace(fan)

    def gaussian(k):
        return tuple(
            GaussianRational(Fraction(k + r, 7 + 2 * r), Fraction((-1) ** r, 3 + r))
            for r in range(fan.rank)
        )

    hashes = []
    one_op(fan, gaussian(0), hashes)
    real_hash = Fraction.__hash__

    def counting(self):
        hashes.append(self)
        return real_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    counts = one_op(fan, gaussian(1), hashes)
    monkeypatch.undo()
    assert counts == {"box_of_fan": 0, "stabilize": 0, "build_quotient": 0, "spectrum": 0}
