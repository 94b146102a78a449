import cmath
import functools
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgamma.box import alpha_key, box_of_fan
from boxgamma.errors import DegenerateHeights, InvalidFan, NoBaseElement, ZeroCoordinate
from boxgamma.fan import StackyFan, tangent_member, triangulate_from_heights
from boxgamma.gkz import (
    build_gkz,
    enumerate_L,
    exp_jet,
    gamma_series,
    gamma_series_derivative,
    linear_mul,
    poly_mul_trunc,
    reciprocal_gamma_jet,
    solution_system,
    suggest_x,
    verify_euler,
    verify_term_shift,
)
from boxgamma.linalg import GaussianRational, im_part, re_part
from boxgamma.quotient import ModuleSpec, graded_piece
from exact_oracles import solve_simplicial_coords

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


def triangle_points(side):
    return [(a, b) for a in range(side + 1) for b in range(side + 1 - a)]


HEX5 = cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)))
TRI2 = cone_over(triangle_points(2))
TRI3 = cone_over(triangle_points(3))

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
            right = linear_mul(reciprocal_gamma_jet(l + 1, 5), l + 1, 5)
            for a, b in zip(left, right):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_exp_jet_matches_taylor():
    z = complex(0.3, -1.1)
    jet = exp_jet((0j, z), 6)
    fact = 1.0
    for t in range(6):
        if t:
            fact *= t
        want = z**t / fact
        assert abs(jet[t] - want) < 1e-13 * max(1.0, abs(want))


def test_poly_mul_trunc():
    a = (1 + 0j, 2 + 0j, 3 + 0j)
    b = (4 + 0j, 5 + 0j)
    assert poly_mul_trunc(a, b, 3) == (4 + 0j, 13 + 0j, 22 + 0j)


def test_enumerate_window_f1():
    inst = build_gkz(F1, BETA_ZERO)
    (alpha,) = box_of_fan(inst.fan, BETA_ZERO)
    ls = enumerate_L(inst, alpha, (0, 0), 4)
    assert tuple(lv.offset for lv in ls) == ((-1, 2, -1), (0, 0, 0), (1, -2, 1))
    ls = enumerate_L(inst, alpha, inst.fan.rays[0], 4)
    assert {lv.offset for lv in ls} == {(-1, 0, 0), (0, -2, 1)}
    ls = enumerate_L(inst, alpha, (0, 0), 0)
    assert tuple(lv.offset for lv in ls) == ((0, 0, 0),)


def l1_ball(k, radius):
    """Every integer vector of length k and l1 norm at most radius."""
    if k == 0:
        yield ()
        return
    for first in range(-radius, radius + 1):
        for rest in l1_ball(k - 1, radius - abs(first)):
            yield (first,) + rest


def ball_by_image(rays, B):
    """Brute-force windows: the l1 ball of radius B grouped by sum m_i v_i,
    each group in lexicographic order."""
    d = len(rays[0])
    images = {}
    for m in l1_ball(len(rays), B):
        image = tuple(sum(mi * v[r] for mi, v in zip(m, rays) if mi) for r in range(d))
        images.setdefault(image, []).append(m)
    return {t: sorted(ms) for t, ms in images.items()}


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
                    d = re_part(lv.l[i]) - re_part(src.alpha[i])
                    assert d.denominator == 1
                    assert im_part(lv.l[i]) == im_part(src.alpha[i])
                for r in range(fan.rank):
                    sre = sum(re_part(lv.l[i]) * fan.rays[i][r] for i in range(fan.k))
                    sim = sum(im_part(lv.l[i]) * fan.rays[i][r] for i in range(fan.k))
                    assert sre == re_part(inst.beta[r]) - v[r]
                    assert sim == im_part(inst.beta[r])


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
    base = inst.quotient.base_index[alpha_key(inst.correspondence.triples[0][1].alpha)]
    assert abs(sv.value[base] - 1.0) < 1e-10


def scalar_gamma_series(inst, src, v, x, B):
    """Independent scalar route: libm gamma, poles sent to zero by hand."""
    total = 0.0 + 0j
    for lv in enumerate_L(inst, src, v, B):
        term = 1.0 + 0j
        for i, li in enumerate(lv.l):
            assert im_part(li) == 0
            lf = float(re_part(li))
            if lf < 0 and float(re_part(li)).is_integer():
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
    for src, tgt, _ in inst.correspondence.triples:
        want = scalar_gamma_series(inst, src, (0, 0), X_F1, 12)
        got = sv.value[q.base_index[alpha_key(tgt.alpha)]]
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_empty_window_gives_zero_vector():
    inst = build_gkz(F1, BETA_ZERO)
    sv = gamma_series(inst, (9, 9), X_F1, 4)
    assert sv.value == (0j,) * inst.quotient.dim
    assert sv.tail_estimate == 0.0


def test_zero_coordinate_rejected():
    inst = build_gkz(F1, BETA_ZERO)
    for x, i in (((1.0, 0.0, 1.0), 2), ((0j, 1.0, 0.0), 1)):
        with pytest.raises(ZeroCoordinate) as err:
            gamma_series(inst, (0, 0), x, 4)
        assert str(err.value) == (
            f"series: coordinate {i} of x is zero; evaluation needs nonzero coordinates"
        )


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
                n + re_part(c) + im_part(c) * 0
                for n, c in zip(elem.lattice_point, q.spec.chi)
            )
            assert tangent_member(inst.fan, p, xi)


def test_decomposition_unique_witness():
    for inst in all_instances():
        q = inst.quotient
        fan = inst.fan
        for m in range(7):
            for n in graded_piece(q.spec, m).points:
                w = tuple(
                    nr + re_part(cr) for nr, cr in zip(n, q.spec.chi)
                )
                hits = set()
                for src, tgt, pt in inst.correspondence.triples:
                    supp = {i for i, a in enumerate(tgt.alpha) if a != 0}
                    diff = tuple(wr - re_part(pr) for wr, pr in zip(w, pt))
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
                            re_part(c) >= 0
                            and re_part(c).denominator == 1
                            and im_part(c) == 0
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
    inst = build_gkz(F1, BETA_ZERO)
    assert suggest_x(inst, (1, 0, 1)) == (0.1, 1.0, 0.1)
    with pytest.raises(DegenerateHeights):
        suggest_x(inst, (1, 1, 1))
    sq = build_gkz(SQUARE, BETA_SQUARE)
    assert suggest_x(sq, (0, 1, 1, 0)) == (1.0, 0.1, 0.1, 1.0)
    uni = StackyFan(rank=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
    assert suggest_x(build_gkz(uni, BETA_ZERO), (3, 5)) == (1.0, 1.0)


def test_series_value_metadata():
    inst = build_gkz(F1, BETA_QUARTER)
    sv = gamma_series(inst, (0, 0), X_F1, 9)
    assert sv.truncation_bound == 9
    assert sv.v == (0, 0)
    assert sv.x == (1 + 0j, 10 + 0j, 1 + 0j)
    assert sv.tail_estimate >= 0.0
