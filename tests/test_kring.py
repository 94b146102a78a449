import cmath
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgamma.box import alpha_key, stabilize
from boxgamma.errors import DomainError, PhaseOverflow
from boxgamma.fan import StackyFan, normalized_volume
from boxgamma.gkz import build_gkz, gamma_series
from boxgamma.kring import (
    is_semisimple,
    spectrum,
    unit_phase,
    wall_report,
)
from boxgamma.linalg import GaussianRational, read_param
from boxgamma.quotient import ModuleSpec, build_quotient
from exact_oracles import FACE_FANS, draw_beta, minimal_non_faces, relabel

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))


def e2pi(x: float) -> complex:
    return cmath.exp(2j * math.pi * x)


def match_points(points, expected, tol=1e-12):
    """Every expected y-vector matches exactly one computed point within tol."""
    remaining = list(points)
    for exp_y in expected:
        hits = [
            p
            for p in remaining
            if all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(p.y, exp_y))
        ]
        assert len(hits) == 1, f"expected point {exp_y} matched {len(hits)} times"
        remaining.remove(hits[0])
    assert not remaining


def test_unit_phase():
    assert unit_phase(Fraction(0)) == 1.0
    assert abs(unit_phase(Fraction(1, 2)) + 1) < 1e-15
    assert abs(unit_phase(Fraction(1, 4)) - 1j) < 1e-15
    damped = unit_phase(GaussianRational(Fraction(0), Fraction(1)))
    assert abs(damped - math.exp(-2 * math.pi)) < 1e-15


@pytest.mark.parametrize("im,alpha", [(-300, "2/3-600i"), (300, "2/3-300i")])
def test_phase_overflow_is_a_domain_error(im, alpha):
    """A Gaussian beta with a large imaginary part puts an exponent at
    Im alpha < -113, where exp(2 pi i alpha) leaves the float range: the
    error names the stage and the exponent, not a bare OverflowError."""
    with pytest.raises(PhaseOverflow) as err:
        spectrum(F1, (GaussianRational(Fraction(1, 3), im), 0))
    assert str(err.value) == f"kring: exp(2 pi i alpha) overflows at alpha={alpha}"


@pytest.mark.parametrize("beta", [("1/3+60i", "0"), ("1/3+10i", "-100i")])
def test_phase_underflow_is_a_domain_error(beta):
    """An exponent at Im alpha > 113 puts exp(2 pi i alpha) below the
    smallest normal float, where it would print as -0: beta = (1/3 + 60i, 0)
    and (1/3 + 10i, -100i) both have the exponent 2/3 + 120i and none that
    overflows, and the error names it.  (At beta = (1/3 + 300i, 0) both
    happen, and the overflow is named, see above.)"""
    with pytest.raises(PhaseOverflow) as err:
        spectrum(F1, beta)
    assert str(err.value) == "kring: exp(2 pi i alpha) underflows at alpha=2/3+120i"


def test_unit_phase_keeps_normal_values():
    """At Im a = 112 the modulus exp(-224 pi) is still a normal float."""
    y = unit_phase(GaussianRational(Fraction(1, 3), Fraction(112)))
    assert abs(y) == pytest.approx(math.exp(-224 * math.pi), rel=1e-12)
    assert abs(y) >= sys.float_info.min


def test_spectrum_generic_weighted_plane():
    beta = (Fraction(1, 3), Fraction(1, 5))
    pts = spectrum(F2, beta)
    assert len(pts) == 4
    assert all(p.multiplicity == 1 for p in pts)
    a, b = 1 / 3, 1 / 5
    expected = [
        (1.0, e2pi(-a / 2 + b), e2pi(-a / 2)),
        (1.0, e2pi(-a / 2 + b + 0.5), e2pi(-a / 2 + 0.5)),
        (e2pi(a - 2 * b), 1.0, e2pi(-b)),
        (e2pi(a), e2pi(b), 1.0),
    ]
    match_points(pts, expected)
    assert is_semisimple(F2, beta)


def test_spectrum_on_walls():
    pts = spectrum(F2, (0, 0))
    assert [p.multiplicity for p in pts] == [3, 1]
    assert pts[0].y == (1.0, 1.0, 1.0)
    assert pts[1].y[0] == 1.0
    assert abs(pts[1].y[1] + 1) < 1e-12
    assert abs(pts[1].y[2] + 1) < 1e-12
    assert not is_semisimple(F2, (0, 0))

    half = spectrum(F2, (0, Fraction(1, 2)))
    assert sorted(p.multiplicity for p in half) == [2, 2]
    assert not is_semisimple(F2, (0, Fraction(1, 2)))


def test_spectrum_shared_ray_fan():
    pts = spectrum(F1, (Fraction(1, 4), 0))
    assert len(pts) == 2
    assert all(p.multiplicity == 1 for p in pts)
    assert is_semisimple(F1, (Fraction(1, 4), 0))

    origin = spectrum(F1, (0, 0))
    assert len(origin) == 1
    assert origin[0].multiplicity == 2
    assert origin[0].y == (1.0, 1.0, 1.0)
    assert not is_semisimple(F1, (0, 0))


def test_spectrum_complex_parameter():
    i_unit = GaussianRational(0, 1)
    pts = spectrum(F1, (i_unit, 0))
    assert [p.multiplicity for p in pts] == [1, 1]
    # classes sort as (0, 2i, -i) then (i, 0, 0)
    damped, grown = pts[0], pts[1]
    assert damped.y[0] == 1.0
    assert abs(damped.y[1] - math.exp(-4 * math.pi)) < 1e-12
    assert abs(damped.y[2] - math.exp(2 * math.pi)) < 1e-9
    assert abs(grown.y[0] - math.exp(-2 * math.pi)) < 1e-12
    assert grown.y[1] == 1.0
    assert grown.y[2] == 1.0


def test_wall_report_generic_empty():
    assert wall_report(F2, (Fraction(1, 3), Fraction(1, 5))) == ()


def test_wall_report_single_wall():
    records = wall_report(F2, (Fraction(2, 3), Fraction(1, 3)))
    assert len(records) == 1
    rec = records[0]
    assert {rec.first.cone, rec.second.cone} == {(0, 2), (1, 2)}
    assert rec.difference == (0, 0, 0)
    assert alpha_key(rec.alpha) == alpha_key((0, 0, Fraction(2, 3)))


def test_wall_report_triple_crossing():
    records = wall_report(F2, (0, 1))
    assert len(records) == 3
    diffs = {(rec.first.cone, rec.second.cone): rec.difference for rec in records}
    assert diffs[((0, 1), (0, 2))] == (-2, -1, -1)
    assert diffs[((0, 1), (1, 2))] == (0, 0, 0)
    assert diffs[((0, 2), (1, 2))] == (2, 1, 1)


def test_minimal_non_faces():
    assert minimal_non_faces(F1) == ((0, 2),)
    assert minimal_non_faces(F2) == ((0, 1, 2),)


def test_ring_relations():
    betas = [
        (0, 0),
        (Fraction(1, 3), Fraction(1, 5)),
        (Fraction(2, 3), Fraction(1, 3)),
        (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5)),
    ]
    for fan in (F1, F2):
        non_faces = minimal_non_faces(fan)
        for beta in betas:
            pts = spectrum(fan, beta)
            assert sum(p.multiplicity for p in pts) == normalized_volume(fan)
            keys = [alpha_key(p.alpha_class.alpha) for p in pts]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            b = read_param(beta, "box", "beta", fan.rank).values
            for p in pts:
                # monomial relations pinned to the parameter
                for r in range(fan.rank):
                    lhs = 1
                    for idx in range(fan.k):
                        lhs = lhs * p.y[idx] ** fan.rays[idx][r]
                    z = complex(float(b[r].real), float(b[r].imag))
                    rhs = cmath.exp(2j * math.pi * z)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
                # rays outside a witness cone contribute the exact unit
                witness = p.alpha_class.branches[0].cone
                for idx in fan.fan_indices():
                    if idx not in witness:
                        assert p.y[idx] == 1.0
                # hence every minimal non-face kills the point
                for face in non_faces:
                    prod = 1
                    for idx in face:
                        prod = prod * (1 - p.y[idx])
                    assert abs(prod) <= 1e-10


@pytest.mark.deep
@pytest.mark.parametrize("name", sorted(FACE_FANS))
@settings(deadline=None)
@given(kind=st.sampled_from(("zero", "rational", "gaussian")), data=st.data())
def test_an_integer_shift_of_beta_keeps_the_spectrum(name, kind, data):
    """The ring reads beta only through exp(2 pi i beta), so for n in Z^d the
    multiset of (alpha, branch count, multiplicity) of spectrum(fan, beta + n)
    is the one at beta, on the ladder and the P(w), at zero, rational and
    Gaussian beta; no reference value is needed."""
    fan = FACE_FANS[name]
    beta = draw_beta(data, fan.rank, kind)
    n = data.draw(st.lists(st.integers(-3, 3), min_size=fan.rank, max_size=fan.rank))
    shifted = [
        GaussianRational(b.re + c, b.im) if isinstance(b, GaussianRational) else b + c for b, c in zip(beta, n)
    ]

    def points(beta):
        return Counter(
            (alpha_key(p.alpha_class.alpha), len(p.alpha_class.branches), p.multiplicity)
            for p in spectrum(fan, beta)
        )

    assert points(shifted) == points(beta)


@pytest.mark.deep
@pytest.mark.parametrize("name", sorted(FACE_FANS))
@settings(deadline=None)
@given(kind=st.sampled_from(("zero", "rational", "gaussian")), data=st.data())
def test_a_marker_relabelling_keeps_the_spectrum(name, kind, data):
    """Renaming the markers by a permutation (the cones mapped with it)
    permutes each exponent vector alpha and changes nothing else: the
    multiset of (alpha read back in the old order, branch count,
    multiplicity) of the spectrum and the sorted summand dimensions of the
    quotient at beta_delta are those of the fan as given, on the ladder and
    the P(w), at zero, rational and Gaussian beta."""
    fan = FACE_FANS[name]
    beta = draw_beta(data, fan.rank, kind)
    perm = data.draw(st.permutations(range(fan.k)))
    moved = relabel(fan, perm)

    def points(fan, order):
        return Counter(
            (alpha_key([p.alpha_class.alpha[i] for i in order]), len(p.alpha_class.branches), p.multiplicity)
            for p in spectrum(fan, beta)
        )

    def dims(fan):
        return sorted(build_quotient(ModuleSpec(fan, stabilize(fan, beta).beta_delta)).dims)

    assert points(moved, perm) == points(fan, range(fan.k))
    assert dims(moved) == dims(fan)


def series_outcome(fan, beta):
    """The name of the error gamma_series raises at v = 0, x = 1, B = 1, or "ok"."""
    try:
        gamma_series(build_gkz(fan, beta), (0,) * fan.rank, (1.0,) * fan.k, 1)
    except DomainError as err:
        return type(err).__name__
    return "ok"


@pytest.mark.deep
@pytest.mark.parametrize("name", ["F1", "SQUARE"])
@settings(deadline=None)
@given(kind=st.sampled_from(("zero", "rational", "gaussian")), data=st.data())
def test_a_marker_relabelling_keeps_the_missing_base_element(name, kind, data):
    """Whether the shadow quotient lacks a base element for some target, so
    that the series raises NoBaseElement, does not depend on the markers'
    order: every relabelling of F1 and SQUARE gives the outcome of the fan
    as given, at zero, rational and Gaussian beta."""
    fan = FACE_FANS[name]
    beta = draw_beta(data, fan.rank, kind)
    want = series_outcome(fan, beta)
    assert want in ("ok", "NoBaseElement")
    for perm in itertools.permutations(range(fan.k)):
        assert series_outcome(relabel(fan, perm), beta) == want, perm


@pytest.mark.parametrize("name,beta", [("F1", (-3, 0)), ("SQUARE", (-3, 0, 0))])
def test_every_relabelling_raises_no_base_element_where_the_fan_does(name, beta):
    """A beta outside the support cone, where the fan as given has no base
    element, has none under any relabelling either."""
    fan = FACE_FANS[name]
    assert {series_outcome(relabel(fan, p), beta) for p in itertools.permutations(range(fan.k))} == {"NoBaseElement"}
