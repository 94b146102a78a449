import cmath
import functools
import itertools
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgamma.box import alpha_key, box_of_fan
from boxgamma.cli import SEED_FILES, parse_fan, parse_x
from boxgamma.errors import (
    DegenerateHeights,
    InvalidFan,
    NoBaseElement,
    SeriesOverflow,
    ZeroCoordinate,
)
from boxgamma.fan import (
    StackyFan,
    _marker_lattice,
    triangulate_from_heights,
    validate,
)
import boxgamma.linalg as linalg
from boxgamma.gkz import (
    _times_linear,
    _window_offsets,
    _window_plan,
    build_gkz,
    enumerate_L,
    exp_jet,
    gamma_series,
    gamma_series_derivative,
    log_gamma_jet,
    reciprocal_gamma_jet,
    solution_system,
    suggest_x,
    verify_euler,
    verify_term_shift,
)
from boxgamma.linalg import GaussianRational
from boxgamma.quotient import ModuleSpec, graded_piece
from exact_oracles import ball_by_image, oracle_tangent_member, solve_simplicial_coords

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def ladder_heights(points):
    """The lifting heights |p|^2 + (i^2 + 1)/101 of lattice points p."""
    return [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]


def cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifted by
    ladder_heights."""
    return triangulate_from_heights([(1,) + tuple(p) for p in points], ladder_heights(points))


HEX5_POINTS = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))


def triangle_points(side):
    return [(a, b) for a in range(side + 1) for b in range(side + 1 - a)]


HEX5 = cone_over(HEX5_POINTS)
TRI2 = cone_over(triangle_points(2))
TRI3 = cone_over(triangle_points(3))
SIMPLEX3X2 = cone_over([p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2])

BETA_ZERO = (Fraction(0), Fraction(0))
BETA_QUARTER = (Fraction(1, 4), Fraction(0))
BETA_COMPLEX = (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))
BETA_SQUARE = (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))

X_F1 = (1.0, 10.0, 1.0)
X_SQUARE = (1.0, 0.1, 0.1, 1.0)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "gamma_jet_golden.json")


def f1_instances():
    return [build_gkz(F1, b) for b in (BETA_ZERO, BETA_QUARTER, BETA_COMPLEX)]


def all_instances():
    return f1_instances() + [build_gkz(SQUARE, BETA_SQUARE)]


def low_degree_points(instance, cap):
    spec0 = ModuleSpec(instance.fan, tuple(Fraction(0) for _ in range(instance.fan.rank)))
    vs = []
    for m in range(cap + 1):
        vs.extend(graded_piece(spec0, m).points)
    return vs


def test_golden_jets():
    with open(GOLDEN_PATH) as fh:
        data = json.load(fh)
    for entry in data["entries"]:
        l = Fraction(entry["l"])
        want = entry["coeffs"]
        for order in range(1, data["order"] + 1):
            jet = reciprocal_gamma_jet(complex(float(l)), order)
            assert len(jet) == order
            for got, ref in zip(jet, want):
                assert abs(got.imag) < 1e-12
                assert abs(got.real - ref) <= 1e-10 * max(1.0, abs(ref))


def test_rgamma_functional_equation():
    # 1/Gamma(l+1) = (l+1) * 1/Gamma(l+2) transported to jets:
    # rg(l) == (l+1+eps) * rg(l+1)
    for re in (-2.5, -1.0, 0.3, 2.0):
        for im in (0.0, 0.7, -1.3):
            l = complex(re, im)
            left = reciprocal_gamma_jet(l, 5)
            right = _times_linear(reciprocal_gamma_jet(l + 1, 5), l + 1)
            for a, b in zip(left, right):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def linear_factor_reference(jet, a, order):
    """(a + eps) * jet truncated to order, every coefficient summed in, zero
    or not: out[t] gets a * jet[t] and out[t + 1] gets jet[t]."""
    out = [0j] * order
    for t, c in enumerate(jet[:order]):
        out[t] += a * c
        if t + 1 < order:
            out[t + 1] += c
    return tuple(out)


def test_linear_factor_step_keeps_every_float():
    """reciprocal_gamma_jet multiplies its dropped factors back in by
    _times_linear, the Pochhammer step the series evaluator takes at
    m_i < 0.  By repr its jets equal those multiplied back by (a + eps) *
    jet with every coefficient summed in from +0j, at poles (where the
    constant term is an exact 0.0), half-integers and complex l, with both
    signs of a zero imaginary part, at orders 1 to 8."""
    ls = [complex(k) for k in range(-8, 3)] + [complex(k + 0.5) for k in range(-8, 3)]
    ls += [complex(k / 3, im) for k in range(-12, 6) for im in (0.0, -0.0, 0.7, -1.3)]
    for l, order in itertools.product(ls, range(1, 9)):
        m0 = max(0, math.ceil(1.5 - l.real))
        jet = exp_jet(tuple(-c for c in log_gamma_jet(l + 1 + m0, order)), order)
        for j in range(m0):
            jet = linear_factor_reference(jet, l + 1 + j, order)
        assert repr(reciprocal_gamma_jet(l, order)) == repr(jet), (l, order)


@pytest.mark.parametrize(
    "l,order,message",
    [
        (0.5, 0, "series: the jet order is 0, not a positive integer"),
        (math.nan, 2, "series: the jet argument l is nan, not a finite number"),
        (-math.inf, 2, "series: the jet argument l is -inf, not a finite number"),
        (True, 2, "series: the jet argument l is True, not a finite number"),
        (None, 2, "series: the jet argument l is None, not a finite number"),
        ("1", 2, "series: the jet argument l is '1', not a finite number"),
        ([1], 2, "series: the jet argument l is [1], not a finite number"),
    ],
    ids=["order 0", "nan", "inf", "bool", "None", "str", "list"],
)
def test_reciprocal_gamma_jet_names_its_domain(l, order, message):
    with pytest.raises(ValueError) as info:
        reciprocal_gamma_jet(l, order)
    assert str(info.value) == message


def test_exp_jet_matches_taylor():
    z = complex(0.3, -1.1)
    jet = exp_jet((0j, z), 6)
    fact = 1.0
    for t in range(6):
        if t:
            fact *= t
        want = z**t / fact
        assert abs(jet[t] - want) < 1e-13 * max(1.0, abs(want))


def test_enumerate_window_f1():
    inst = build_gkz(F1, BETA_ZERO)
    (alpha,) = box_of_fan(inst.fan, BETA_ZERO)
    ls = enumerate_L(inst, alpha, (0, 0), 4)
    assert tuple(lv.offset for lv in ls) == ((-1, 2, -1), (0, 0, 0), (1, -2, 1))
    ls = enumerate_L(inst, alpha, inst.fan.rays[0], 4)
    assert {lv.offset for lv in ls} == {(-1, 0, 0), (0, -2, 1)}
    ls = enumerate_L(inst, alpha, (0, 0), 0)
    assert tuple(lv.offset for lv in ls) == ((0, 0, 0),)


WINDOW_FANS = {
    "F1": (F1, (Fraction(1, 4), 0)),
    "SQUARE": (SQUARE, (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))),
    "HEX5": (HEX5, (Fraction(2, 7), Fraction(5, 11), Fraction(1, 13))),
    "TRI2": (TRI2, (Fraction(3, 7), Fraction(1, 11), Fraction(6, 13))),
}


@functools.cache
def window_ball(name, B):
    return ball_by_image(WINDOW_FANS[name][0].rays, B)


@pytest.fixture(scope="module")
def window_instances():
    return {name: build_gkz(fan, beta) for name, (fan, beta) in WINDOW_FANS.items()}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(WINDOW_FANS)), B=st.integers(0, 6), data=st.data())
def test_enumerate_matches_l1_ball(window_instances, name, B, data):
    inst = window_instances[name]
    src = data.draw(st.sampled_from([s for s, _, _ in inst.correspondence.triples]))
    v = data.draw(st.tuples(*[st.integers(-4, 4)] * inst.fan.rank))
    target = tuple(-a - n for a, n in zip(v, src.lattice_point))
    want = window_ball(name, B).get(target, [])
    assert [lv.offset for lv in enumerate_L(inst, src, v, B)] == want


# the fans whose scans run the most levels, and HEX5, whose first level
# fixes one column of entry 2, so its closed-form bound meets both parities
# of rest + room
DEEP_FANS = {"tri3": TRI3, "simplex3x2": SIMPLEX3X2, "HEX5": HEX5}


@pytest.fixture(scope="module")
def deep_relations():
    """The relation bases of DEEP_FANS, each in the window scan's form."""
    return {name: _marker_lattice(fan)[2] for name, fan in DEEP_FANS.items()}


@functools.cache
def deep_ball(name, B):
    return ball_by_image(DEEP_FANS[name].rays, B)


def far_particular_solution(data, rays, relations):
    """A vector with entries in -1..1 moved by a relation-lattice element with
    coefficients up to 4, so the scan starts far off, and its image."""
    part = data.draw(st.lists(st.integers(-1, 1), min_size=len(rays), max_size=len(rays)))
    for h in relations:
        c = data.draw(st.integers(-4, 4))
        part = [x + c * y for x, y in zip(part, h)]
    return part, tuple(sum(x * v[r] for x, v in zip(part, rays)) for r in range(len(rays[0])))


def window_with_norms(offsets):
    return tuple(offsets), tuple(sum(map(abs, m)) for m in offsets)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(DEEP_FANS)), B=st.integers(0, 4), data=st.data())
def test_window_offsets_match_l1_ball_at_depth(deep_relations, name, B, data):
    """The pruned scan on 7, 6 and 2 relation rows gives exactly the
    brute-force window, in lexicographic order, with each offset's l1 norm
    beside it.  About a third of the windows drawn are nonempty, up to
    dozens of offsets."""
    rays, relations = DEEP_FANS[name].rays, deep_relations[name]
    part, image = far_particular_solution(data, rays, relations)
    want = window_with_norms(deep_ball(name, B).get(image, []))
    assert _window_offsets(part, _window_plan(relations, len(rays)), B) == want


def simplex_points(dim, side):
    return [(1,) + p for p in itertools.product(range(side + 1), repeat=dim) if sum(p) <= side]


# marker sets by the largest B their brute-force balls are built to; only
# the markers' relations are read, so no fan is triangulated.  "free" is
# TRI2's markers with an independent fourth coordinate on a marker of its
# own, which lies in no relation, and "basis" has no relation at all
WIDE_MARKERS = {
    "simplex3x3": (simplex_points(3, 3), 3),
    "simplex3x4": (simplex_points(3, 4), 2),
    "free": ([r + (0,) for r in TRI2.rays[:3]] + [(0, 0, 0, 1)] + [r + (0,) for r in TRI2.rays[3:]], 4),
    "basis": ([(1, 0, 0), (1, 1, 0), (1, 0, 1)], 4),
}


@functools.cache
def wide_window(name):
    rays, top = WIDE_MARKERS[name]
    relations = _marker_lattice(StackyFan(rank=len(rays[0]), rays=rays, max_cones=()))[2]
    return relations, _window_plan(relations, len(rays)), [ball_by_image(rays, B) for B in range(top + 1)]


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(WIDE_MARKERS)), data=st.data())
def test_window_scan_matches_l1_ball_on_wide_marker_sets(name, data):
    """The scan's offsets and norms equal the brute-force window on the
    rank-4 simplex markers (16 and 31 relation rows), with a free column and
    with no relation, at every B from 0 up to the ball's."""
    rays = WIDE_MARKERS[name][0]
    relations, plan, balls = wide_window(name)
    assert all(sum(h) == 0 for h in relations) and (name != "basis") is bool(relations)
    if name == "free":
        assert all(h[3] == 0 for h in relations) and plan[1] == (3,)
    part, image = far_particular_solution(data, rays, relations)
    for B, ball in enumerate(balls):
        assert _window_offsets(part, plan, B) == window_with_norms(ball.get(image, []))


def test_ladder_relations_have_degree_zero():
    for fan in (F1, SQUARE, HEX5, TRI2, TRI3, SIMPLEX3X2):
        relations = _marker_lattice(fan)[2]
        assert relations and all(sum(row) == 0 for row in relations)


@pytest.fixture(scope="module")
def tri3_zero():
    inst = build_gkz(TRI3, (0, 0, 0))
    ((src, _, _),) = inst.correspondence.triples
    return inst, src


def test_enumerate_tri3_matches_l1_ball(tri3_zero):
    inst, src = tri3_zero
    vs = [(0, 0, 0)] + [inst.fan.rays[j] for j in (0, 4, 9)]
    want = ball_by_image(inst.fan.rays, 6)
    for v in vs:
        target = tuple(-a - n for a, n in zip(v, src.lattice_point))
        assert [lv.offset for lv in enumerate_L(inst, src, v, 6)] == want[target]


def test_enumerate_tri3_window_eight(tri3_zero):
    inst, src = tri3_zero
    # 1849 is the brute-force count over the radius-8 ball (1.26M points,
    # too slow for the test suite)
    ls = enumerate_L(inst, src, (0, 0, 0), 8)
    assert len(ls) == 1849
    offsets = [lv.offset for lv in ls]
    assert offsets == sorted(set(offsets))
    for m in offsets:
        assert sum(abs(x) for x in m) <= 8
        assert all(sum(mi * ray[r] for mi, ray in zip(m, inst.fan.rays)) == 0 for r in range(3))


def test_enumerate_exact_relations():
    inst = build_gkz(F1, BETA_COMPLEX)
    fan = inst.fan
    for src, _, _ in inst.correspondence.triples:
        for v in ((0, 0), fan.rays[1]):
            for lv in enumerate_L(inst, src, v, 6):
                for i in range(fan.k):
                    d = lv.l[i].real - src.alpha[i].real
                    assert d.denominator == 1
                    assert lv.l[i].imag == src.alpha[i].imag
                for r in range(fan.rank):
                    sre = sum(lv.l[i].real * fan.rays[i][r] for i in range(fan.k))
                    sim = sum(lv.l[i].imag * fan.rays[i][r] for i in range(fan.k))
                    assert sre == inst.beta[r].real - v[r]
                    assert sim == inst.beta[r].imag


def test_term_shift_examples():
    inst = build_gkz(F1, BETA_ZERO)
    rep = verify_term_shift(inst, (0, 0), 2, 8)
    assert rep
    assert len(rep.boundary) <= 2
    assert verify_term_shift(inst, (0, 0), 2, 0)
    inst_q = build_gkz(F1, BETA_QUARTER)
    assert verify_term_shift(inst_q, (0, 0), 0, 8)


def test_term_shift_all_rays_low_degree():
    for inst in all_instances():
        for v in low_degree_points(inst, 1):
            for j in inst.fan.fan_indices():
                assert verify_term_shift(inst, v, j, 6)


def test_euler_exact():
    for inst in all_instances():
        assert verify_euler(inst)


def test_derivative_matches_shifted_series():
    cases = [
        (build_gkz(F1, BETA_ZERO), X_F1),
        (build_gkz(SQUARE, BETA_SQUARE), X_SQUARE),
    ]
    for inst, x in cases:
        for v in low_degree_points(inst, 1):
            for j in inst.fan.fan_indices():
                d = gamma_series_derivative(inst, v, x, 12, j)
                v2 = tuple(a + b for a, b in zip(v, inst.fan.rays[j]))
                s = gamma_series(inst, v2, x, 12)
                for a, b in zip(d.value, s.value):
                    assert abs(a - b) < 1e-8


def test_base_component_classical_at_zero():
    inst = build_gkz(F1, BETA_ZERO)
    sv = gamma_series(inst, (0, 0), X_F1, 12)
    q, tgt = inst.quotient, inst.correspondence.triples[0][1]
    base = q.bases[[alpha_key(e.alpha) for e in q.alphas].index(alpha_key(tgt.alpha))]
    assert abs(sv.value[base] - 1.0) < 1e-10


def scalar_gamma_series(inst, src, v, x, B):
    """Independent scalar route: libm gamma, poles sent to zero by hand."""
    total = 0.0 + 0j
    for lv in enumerate_L(inst, src, v, B):
        term = 1.0 + 0j
        for i, li in enumerate(lv.l):
            assert li.imag == 0
            lf = float(li.real)
            if lf < 0 and float(li.real).is_integer():
                term = 0j
                break
            term *= x[i] ** lf / math.gamma(lf + 1.0)
        total += term
    return total


def test_scalar_oracle_per_summand():
    inst = build_gkz(F1, BETA_QUARTER)
    q = inst.quotient
    assert all(d == 1 for d in q.summand_dims.values())
    sv = gamma_series(inst, (0, 0), X_F1, 12)
    bases = {alpha_key(e.alpha): i for e, i in zip(q.alphas, q.bases)}
    for src, tgt, _ in inst.correspondence.triples:
        want = scalar_gamma_series(inst, src, (0, 0), X_F1, 12)
        got = sv.value[bases[alpha_key(tgt.alpha)]]
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_empty_window_gives_zero_vector():
    inst = build_gkz(F1, BETA_ZERO)
    sv = gamma_series(inst, (9, 9), X_F1, 4)
    assert sv.value == (0j,) * inst.quotient.dim
    assert sv.tail_estimate == 0.0


def test_tail_reads_the_outermost_nonempty_shell():
    """On the F1 seed example at degree cap 1 no kept term of any window has
    norm 13, so the shell at B = 13 is empty; the tail comes from the
    largest norm present and bounds the true error against B = 60."""
    fan = parse_fan(SEED_FILES["fan_f1.json"])
    inst = build_gkz(fan, SEED_FILES["beta_f1.json"]["beta"])
    x = parse_x(SEED_FILES["x_f1.json"])[0]
    sy, ref = solution_system(inst, x, 13, 1), solution_system(inst, x, 60, 1)
    err = max(abs(a - b) for row, want in zip(sy.matrix, ref.matrix) for a, b in zip(row, want))
    assert 0 < err <= sy.tail_estimate
    assert all(gamma_series(inst, v, x, 13).tail_estimate > 0 for v in sy.vs)


def test_zero_coordinate_rejected():
    inst = build_gkz(F1, BETA_ZERO)
    for x, i in (((1.0, 0.0, 1.0), 2), ((0j, 1.0, 0.0), 1)):
        with pytest.raises(ZeroCoordinate) as err:
            gamma_series(inst, (0, 0), x, 4)
        assert str(err.value) == (
            f"series: coordinate {i} of x is zero; evaluation needs nonzero coordinates"
        )


@pytest.mark.parametrize(
    "x,offsets,message",
    [
        ((math.nan, 10.0, 1.0), None, "entry 1 of x is nan, not a finite complex number"),
        ((1.0, complex(1.0, math.inf), 1.0), None, "entry 2 of x is (1+infj), not a finite complex number"),
        (X_F1, (math.inf, 0.0, 0.0), "entry 1 of arg_offsets is inf, not a finite real number"),
        (X_F1, (0.0, 0.0, -math.nan), "entry 3 of arg_offsets is nan, not a finite real number"),
    ],
    ids=[
        "x0-None-coordinate 1 of x is (nan+0j)",
        "x1-None-coordinate 2 of x is (1+infj)",
        "x2-offsets2-coordinate 1 of arg_offsets is inf",
        "x3-offsets3-coordinate 3 of arg_offsets is nan",
    ],
)
def test_non_finite_x_is_named(x, offsets, message):
    inst = build_gkz(F1, BETA_ZERO)
    calls = (
        lambda: gamma_series(inst, (0, 0), x, 4, offsets),
        lambda: gamma_series_derivative(inst, (0, 0), x, 4, 1, offsets),
        lambda: solution_system(inst, x, 4, arg_offsets=offsets),
    )
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"series: {message}"


@pytest.mark.parametrize(
    "x,offsets,message",
    [
        ((1, 10**400, 1), None, f"entry 2 of x is {10**400!r}, not a finite complex number"),
        (X_F1, (0, 0, 10**400), f"entry 3 of arg_offsets is {10**400!r}, not a finite real number"),
    ],
    ids=["x", "arg_offsets"],
)
def test_huge_integer_coordinate_is_named(x, offsets, message):
    """An int beyond the float range is a ValueError naming its coordinate,
    not a bare OverflowError."""
    inst = build_gkz(F1, BETA_ZERO)
    with pytest.raises(ValueError) as err:
        gamma_series(inst, (0, 0), x, 4, offsets)
    assert str(err.value) == f"series: {message}"


def test_reciprocal_gamma_overflow_names_l():
    """1/Gamma(l + 1) at Im l = 600 is about e^935, beyond the float range:
    the jet raises SeriesOverflow naming l, and so does a series reaching
    it from beta = (1/3 + 300i, 0), not a bare OverflowError.  So do the
    jets whose log-Gamma part or walk back through the linear factors
    leaves the float range, which once came out as nan; far left of 0 the
    walk stops at the first product past it, not after -Re l factors."""
    for l in (600j, -400.5, 25 + 1e307j, 1e200 + 1e200j, -1e6 + 0.5j):
        with pytest.raises(SeriesOverflow) as err:
            reciprocal_gamma_jet(l, 2)
        assert str(err.value) == f"series: 1/Gamma(l + 1) overflows at l={l!r}"
    inst = build_gkz(F1, (GaussianRational(Fraction(1, 3), 300), 0))
    with pytest.raises(SeriesOverflow) as err:
        solution_system(inst, X_F1, 6, 1)
    assert str(err.value).startswith("series: 1/Gamma(l + 1) overflows at l=")


def test_missing_base_element_is_domain_error():
    inst = build_gkz(F1, (-3, 0))
    calls = (
        lambda: gamma_series(inst, (0, 0), X_F1, 4),
        lambda: gamma_series_derivative(inst, (0, 0), X_F1, 4, 1),
        lambda: solution_system(inst, X_F1, 4),
    )
    message = (
        "series: the shadow quotient has no base element for the target box "
        "element alpha=(0, 0, 0), n=(3, 0)"
    )
    # twice round: the second pass finds the point's series evaluator built
    for call in calls + calls:
        with pytest.raises(NoBaseElement) as err:
            call()
        assert str(err.value) == message


def test_ineligible_fan_rejected():
    with pytest.raises(InvalidFan):
        build_gkz(F2, BETA_ZERO)


def test_solution_system_ranks():
    inst = build_gkz(F1, BETA_ZERO)
    sy = solution_system(inst, X_F1, 15)
    assert sy.rank == inst.quotient.dim == 2
    assert not sy.rank_deficient
    assert sy.gap >= 1e3
    assert len(sy.matrix) == len(sy.vs)
    sq = build_gkz(SQUARE, BETA_SQUARE)
    sy2 = solution_system(sq, X_SQUARE, 15)
    assert sy2.rank == 2 and not sy2.rank_deficient


def test_solution_system_degenerate_truncation_flagged():
    inst = build_gkz(F1, BETA_ZERO)
    sy = solution_system(inst, X_F1, 0)
    assert sy.rank < inst.quotient.dim
    assert sy.rank_deficient


def test_doubling_convergence():
    for beta in (BETA_ZERO, BETA_QUARTER, BETA_COMPLEX):
        inst = build_gkz(F1, beta)
        s12 = gamma_series(inst, (0, 0), X_F1, 12)
        s24 = gamma_series(inst, (0, 0), X_F1, 24)
        diff = max(abs(a - b) for a, b in zip(s12.value, s24.value))
        assert diff < 1e-6


def test_shadow_membership():
    for inst in all_instances():
        q = inst.quotient
        xi = q.spec.xi
        for elem in q.basis:
            p = tuple(
                n + c.real + c.imag * 0
                for n, c in zip(elem.lattice_point, q.spec.chi)
            )
            assert oracle_tangent_member(inst.fan, p, xi)


def test_decomposition_unique_witness():
    for inst in all_instances():
        q = inst.quotient
        fan = inst.fan
        for m in range(7):
            for n in graded_piece(q.spec, m).points:
                w = tuple(
                    nr + cr.real for nr, cr in zip(n, q.spec.chi)
                )
                hits = set()
                for src, tgt, pt in inst.correspondence.triples:
                    supp = {i for i, a in enumerate(tgt.alpha) if a != 0}
                    diff = tuple(wr - pr.real for wr, pr in zip(w, pt))
                    for sigma in fan.max_cones:
                        if not supp <= set(sigma):
                            continue
                        try:
                            coords = solve_simplicial_coords(
                                [fan.rays[i] for i in sigma], list(diff)
                            )
                        except Exception:
                            continue
                        if all(
                            c.real >= 0
                            and c.real.denominator == 1
                            and c.imag == 0
                            for c in coords
                        ):
                            hits.add(alpha_key(tgt.alpha))
                            break
                assert len(hits) == 1


def test_nilpotent_and_commuting():
    for inst in all_instances():
        q = inst.quotient
        dim = q.dim

        def mul(a, b):
            return [
                [sum(a[r][t] * b[t][c] for t in range(dim)) for c in range(dim)]
                for r in range(dim)
            ]

        idx = sorted(inst.fan.fan_indices())
        for i in idx:
            power = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
            for _ in range(dim):
                power = mul(power, q.dmats[i])
            assert all(x == 0 for row in power for x in row)
        for i in idx:
            for j in idx:
                ab = mul(q.dmats[i], q.dmats[j])
                ba = mul(q.dmats[j], q.dmats[i])
                assert ab == ba


def test_suggest_x_values():
    """x_i = rho^(h_i - <c, v_i>): on F1 the heights (1, 0, 1) pair to 2 with
    the relation (1, -2, 1), so rho = 1e-2^(1/2), and c = (2/3, 0) solves
    V^T V c = V^T h = (2, 2), leaving (1/3, -2/3, 1/3)."""
    inst = build_gkz(F1, BETA_ZERO)
    x = suggest_x(inst, (1, 0, 1))
    assert x == (0.1 ** (1 / 3), 0.1 ** (-2 / 3), 0.1 ** (1 / 3))
    assert x == pytest.approx((0.4642, 4.642, 0.4642), rel=1e-4)
    assert x[0] * x[2] / x[1] ** 2 == pytest.approx(1e-2, rel=1e-14)
    # (1, 1, 1) pairs to 1 - 2 + 1 = 0 with the relation v1 - 2 v2 + v3 = 0
    message = r"^series: heights pair to zero with the relation-lattice generator \(1, -2, 1\)$"
    with pytest.raises(DegenerateHeights, match=message):
        suggest_x(inst, (1, 1, 1))
    # on SQUARE the best plane through the heights (0, 1, 1, 0) is 1/2
    sq = build_gkz(SQUARE, BETA_SQUARE)
    assert suggest_x(sq, (0, 1, 1, 0)) == (0.1 ** -0.5, 0.1 ** 0.5, 0.1 ** 0.5, 0.1 ** -0.5)
    uni = StackyFan(rank=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    assert suggest_x(build_gkz(uni, BETA_ZERO), (3, 5)) == (1.0, 1.0)


def test_suggest_x_balances_hex5():
    """With the ladder's heights, HEX5's point at beta = 0 spanned 3.3e-6 to
    0.98 and its degree <= 1 system read a tail of 1.6e3 at B = 12; balanced
    on the torus, its coordinates lie in [0.37, 2.24] and the system has
    full rank 5 with a tail below 1e-2."""
    inst = build_gkz(HEX5, (0, 0, 0))
    x = suggest_x(inst, ladder_heights(HEX5_POINTS))
    assert 0.36 < min(x) and max(x) < 2.25
    system = solution_system(inst, x, 12, 1)
    assert system.rank == inst.quotient.dim == 5 and not system.rank_deficient
    assert system.tail_estimate < 1e-2


def test_series_value_metadata():
    inst = build_gkz(F1, BETA_QUARTER)
    sv = gamma_series(inst, (0, 0), X_F1, 9)
    assert sv.truncation_bound == 9
    assert sv.v == (0, 0)
    assert sv.x == (1 + 0j, 10 + 0j, 1 + 0j)
    assert sv.tail_estimate >= 0.0


def test_build_gkz_forms_one_hnf_of_the_markers(monkeypatch):
    """validate, build_gkz at two parameters and suggest_x read the markers'
    (H, U) and the relation lattice from the fan's table: one Hermite form
    of the markers per fan, none per parameter."""
    fan = StackyFan(rank=2, rays=F1.rays, max_cones=F1.max_cones)
    formed = Counter()
    real = linalg.hermite_normal_form

    def counting(a):
        formed[tuple(map(tuple, a))] += 1
        return real(a)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("boxgamma") and vars(module).get("hermite_normal_form") is real:
            monkeypatch.setattr(module, "hermite_normal_form", counting)
    assert validate(fan).gkz_eligible
    inst = build_gkz(fan, (Fraction(1, 4), 0))
    build_gkz(fan, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(2, 5)))
    assert suggest_x(inst, (1, 0, 1)) == (0.1 ** (1 / 3), 0.1 ** (-2 / 3), 0.1 ** (1 / 3))
    assert formed[fan.rays] == 1
    assert _marker_lattice(fan)[2] == _marker_lattice(F1)[2] == ((1, -2, 1),)
