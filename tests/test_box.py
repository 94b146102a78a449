import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgamma.box as box
from boxgamma.box import (
    BoxElement,
    alpha_key,
    box_of_cone,
    box_of_fan,
    collisions,
    correspondence_at,
    stabilize,
)
from boxgamma.errors import NotFullDimensional
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.kring import wall_report
from boxgamma.linalg import GaussianRational, im_part, re_part
from exact_oracles import det_rational, mat_inverse

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
HEX5_POINTS = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
HEX5 = triangulate_from_heights(
    [(1,) + p for p in HEX5_POINTS],
    [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(HEX5_POINTS)],
)

i_unit = GaussianRational(0, 1)


def check_reconstruction(fan, beta, elem: BoxElement):
    for r in range(fan.rank):
        total = sum(
            (elem.alpha[i] * fan.rays[i][r] for i in range(fan.k)),
            start=Fraction(0),
        )
        expected = elem.lattice_point[r] + beta[r]
        assert re_part(total) == re_part(expected)
        assert im_part(total) == im_part(expected)


def test_box_of_cone_f1_first_cone():
    (e,) = box_of_cone(F1, (0, 1), (Fraction(1, 4), 0))
    assert e.alpha == (Fraction(1, 4), Fraction(0), Fraction(0))
    assert e.lattice_point == (0, 0)
    assert e.support == (0,)
    assert e.witness_cones == ((0, 1),)


def test_box_of_cone_f1_second_cone():
    (e,) = box_of_cone(F1, (1, 2), (Fraction(1, 4), 0))
    assert e.alpha == (Fraction(0), Fraction(1, 2), Fraction(3, 4))
    assert e.lattice_point == (1, 2)
    check_reconstruction(F1, (Fraction(1, 4), Fraction(0)), e)


def test_box_of_cone_f2_index_two_cone():
    elems = box_of_cone(F2, (1, 2), (0, 0))
    assert len(elems) == 2
    by_alpha = {e.alpha: e for e in elems}
    assert by_alpha[(Fraction(0), Fraction(0), Fraction(0))].lattice_point == (0, 0)
    assert by_alpha[(Fraction(0), Fraction(1, 2), Fraction(1, 2))].lattice_point == (-1, 0)


def test_box_of_cone_rejects_low_dimensional():
    with pytest.raises(NotFullDimensional):
        box_of_cone(F1, (1,), (0, 0))


def test_box_of_fan_f1():
    elems = box_of_fan(F1, (Fraction(1, 4), 0))
    assert len(elems) == 2
    assert {e.alpha for e in elems} == {
        (Fraction(1, 4), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2), Fraction(3, 4)),
    }
    (zero_elem,) = box_of_fan(F1, (0, 0))
    assert zero_elem.alpha == (Fraction(0),) * 3
    assert zero_elem.witness_cones == ((0, 1), (1, 2))


def test_box_of_fan_f2_closed_forms():
    a, b = Fraction(1, 3), Fraction(1, 5)

    def frac(x):
        return x - (x.numerator // x.denominator)

    expected = {
        (Fraction(0), frac(-a / 2 + b), frac(-a / 2)),
        (Fraction(0), frac(-a / 2 + b + Fraction(1, 2)), frac(-a / 2 + Fraction(1, 2))),
        (frac(a - 2 * b), Fraction(0), frac(-b)),
        (frac(a), frac(b), Fraction(0)),
    }
    elems = box_of_fan(F2, (a, b))
    assert len(elems) == 4
    assert {e.alpha for e in elems} == expected
    for e in elems:
        check_reconstruction(F2, (a, b), e)


def test_point_pattern_flips_at_one_half():
    for delta in (Fraction(1, 4), Fraction(1, 3)):
        pts = {
            tuple(n + b for n, b in zip(e.lattice_point, (delta, Fraction(0))))
            for e in box_of_fan(F1, (delta, 0))
        }
        assert pts == {(delta, Fraction(0)), (1 + delta, Fraction(2))}
    pts = {
        tuple(n + b for n, b in zip(e.lattice_point, (Fraction(3, 4), Fraction(0))))
        for e in box_of_fan(F1, (Fraction(3, 4), 0))
    }
    assert pts == {(Fraction(3, 4), Fraction(0)), (Fraction(3, 4), Fraction(1))}


def brute_box(fan, cone, beta):
    """Enumerate lattice translates of beta inside the half-open parallelepiped."""
    gens = [fan.rays[i] for i in cone]
    d = fan.rank
    vinv = mat_inverse([[gens[j][r] for j in range(d)] for r in range(d)])
    lo = [sum(min(0, g[r]) for g in gens) for r in range(d)]
    hi = [sum(max(0, g[r]) for g in gens) for r in range(d)]
    found = set()
    from itertools import product

    ranges = [
        range(lo[r] - 2 - abs(int(re_part(beta[r]))), hi[r] + 3 + abs(int(re_part(beta[r]))))
        for r in range(d)
    ]
    for n in product(*ranges):
        coords = tuple(
            sum((vinv[i][r] * (n[r] + beta[r]) for r in range(d)), start=Fraction(0))
            for i in range(d)
        )
        if all(0 <= re_part(c) < 1 for c in coords):
            alpha = [Fraction(0)] * fan.k
            for pos, idx in enumerate(cone):
                c = coords[pos]
                alpha[idx] = c if im_part(c) else re_part(c)
            found.add((tuple(alpha_key(alpha)), n))
    return found


def test_brute_force_oracle_agreement():
    rng = random.Random(20260818)
    for trial in range(12):
        d = 2 if trial % 2 == 0 else 3
        while True:
            rays = tuple(
                tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)
            )
            det = det_rational([[rays[j][r] for j in range(d)] for r in range(d)])
            if det != 0 and abs(det) <= 8:
                break
        fan = StackyFan(rank=d, rays=rays, max_cones=(tuple(range(d)),))
        beta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d))
        elems = box_of_cone(fan, tuple(range(d)), beta)
        assert len(elems) == abs(det)
        got = {(alpha_key(e.alpha), e.lattice_point) for e in elems}
        assert got == brute_box(fan, tuple(range(d)), beta)
        for e in elems:
            check_reconstruction(fan, beta, e)


def test_collisions_f2():
    generic = collisions(F2, (Fraction(1, 3), Fraction(1, 5)))
    assert sorted(len(c.branches) for c in generic) == [1, 1, 1, 1]

    half = collisions(F2, (0, Fraction(1, 2)))
    assert sorted(len(c.branches) for c in half) == [2, 2]
    # the (0,0,1/2) class meets one cone with shifted raw coordinates
    by_alpha = {alpha_key(c.alpha): c.differences for c in half}
    assert by_alpha[alpha_key((Fraction(0), Fraction(0), Fraction(1, 2)))] == (
        (0, 0, 0),
        (1, 1, 1),
    )
    assert by_alpha[alpha_key((Fraction(0), Fraction(1, 2), Fraction(0)))] == (
        (0, 0, 0),
        (0, 0, 0),
    )

    origin = collisions(F2, (0, 0))
    assert sorted(len(c.branches) for c in origin) == [1, 3]
    big = next(c for c in origin if len(c.branches) == 3)
    assert {br.cone for br in big.branches} == {(0, 1), (1, 2), (0, 2)}
    assert big.alpha == (Fraction(0),) * 3


def test_stabilize_real_beta_is_identity():
    corr = stabilize(F1, (Fraction(1, 4), 0))
    assert corr.delta == Fraction(1, 16)
    assert corr.beta_delta == (Fraction(1, 4), Fraction(0))
    for src, tgt, point in corr.triples:
        assert src.alpha == tgt.alpha
        assert src.support == tgt.support
        assert point == tuple(
            sum((src.alpha[i] * F1.rays[i][r] for i in range(3)), start=Fraction(0))
            for r in range(2)
        )


def test_stabilize_imaginary_beta():
    corr = stabilize(F1, (i_unit, 0))
    d = corr.delta
    assert corr.beta_delta == (d, Fraction(0))
    by_support = {src.support: (src, tgt) for src, tgt, _ in corr.triples}
    src0, tgt0 = by_support[(0,)]
    assert src0.alpha == (i_unit, Fraction(0), Fraction(0))
    assert tgt0.alpha == (d, Fraction(0), Fraction(0))
    src1, tgt1 = by_support[(1, 2)]
    assert src1.alpha == (Fraction(0), GaussianRational(0, 2), GaussianRational(0, -1))
    assert tgt1.alpha == (Fraction(0), 2 * d, 1 - d)
    assert tgt1.lattice_point == (1, 2)


def pairing(corr):
    return [(alpha_key(s.alpha), t.lattice_point, t.support) for s, t, _ in corr.triples]


def test_stabilize_halved_delta_same_pairing():
    beta = (i_unit, 0)
    corr = stabilize(F1, beta)
    again = correspondence_at(F1, beta, corr.delta / 2)
    assert pairing(corr) == pairing(again)


def test_stabilize_f2_complex():
    beta = (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))
    corr = stabilize(F2, beta)
    assert len(corr.triples) == 4
    for src, tgt, point in corr.triples:
        assert src.support == tgt.support
        check_reconstruction(F2, corr.beta_delta, tgt)


def check_limit(corr):
    """The floors and supports at corr.delta are their delta -> 0+ limits."""
    d = corr.delta
    assert d <= Fraction(1, 16) and d.numerator == 1
    assert d.denominator & (d.denominator - 1) == 0
    for src, tgt, _ in corr.triples:
        for a, t in zip(src.alpha, tgt.alpha):
            r, m = re_part(a), im_part(a)
            val = r + d * m
            assert math.floor(val) == (-1 if r == 0 and m < 0 else 0)
            assert t == val - math.floor(val)
        assert tgt.support == tuple(i for i, a in enumerate(src.alpha) if a != 0)


def gaussian_coord():
    tiny = st.fractions(Fraction(-1, 10000), Fraction(1, 10000), max_denominator=10**6)
    rational = st.fractions(-3, 3, max_denominator=12)
    real = st.one_of(st.just(Fraction(0)), tiny, rational)
    return st.builds(GaussianRational, real, st.fractions(-9, 9, max_denominator=12))


@settings(max_examples=150, deadline=None)
@given(fan=st.sampled_from([F1, F2, SQUARE, HEX5]), data=st.data())
def test_stabilize_reaches_limit_chamber(fan, data):
    beta = tuple(data.draw(gaussian_coord()) for _ in range(fan.rank))
    corr = stabilize(fan, beta)
    check_limit(corr)
    assert pairing(correspondence_at(fan, beta, corr.delta / 2**20)) == pairing(corr)


def test_stabilize_tiny_real_part():
    beta = (GaussianRational(Fraction(1, 10000), -1), Fraction(0))
    corr = stabilize(F1, beta)
    assert corr.delta < Fraction(1, 10000)
    check_limit(corr)


def test_equal_alpha_with_distinct_lattice_points_raises(monkeypatch):
    """Branches of two cones with equal alpha must share their lattice
    point; every reader of the branch grouping checks it."""
    real = box._cone_branches

    def forged(fan, cone, beta):
        out = real(fan, cone, beta)
        if cone != fan.max_cones[-1]:
            return out
        moved = []
        for residue, floors, e in out:
            point = tuple(x + 1 for x in e.lattice_point)
            moved.append((residue, floors, dataclasses.replace(e, lattice_point=point)))
        return moved

    beta = (Fraction(0), Fraction(0))
    # at beta = 0 both cones of F1 have the branch alpha = 0
    assert [len(cls.branches) for cls in collisions(F1, beta)] == [2]
    monkeypatch.setattr(box, "_cone_branches", forged)
    for call in (box_of_fan, collisions, wall_report):
        with pytest.raises(RuntimeError, match="equal alpha with distinct lattice points"):
            call(F1, beta)
