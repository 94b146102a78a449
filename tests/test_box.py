import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from boxgamma.errors import DomainError, NotFullDimensional
from boxgamma.fan import StackyFan, _cone_residues, _faces, _mask, normalized_volume, triangulate_from_heights
from boxgamma.kring import wall_report
from boxgamma.linalg import GaussianRational, Param, cone_inverse
from exact_oracles import (
    det_rational,
    enumerated_correspondence,
    fraction_keyed_collisions,
    mat_inverse,
)

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
HEX5_POINTS = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
HEX5 = triangulate_from_heights(
    [(1,) + p for p in HEX5_POINTS],
    [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(HEX5_POINTS)],
)
# P(1, 2, 3) and P(1, 1, 2, 3): complete stacky fans, one cone per omitted ray
P123 = StackyFan(rank=2, rays=((-2, -3), (1, 0), (0, 1)), max_cones=((0, 1), (0, 2), (1, 2)))
P1123 = StackyFan(
    rank=3,
    rays=((-1, -2, -3), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
)
FANS = {"F1": F1, "F2": F2, "SQUARE": SQUARE, "HEX5": HEX5, "P(1,2,3)": P123, "P(1,1,2,3)": P1123}

i_unit = GaussianRational(0, 1)


def check_reconstruction(fan, beta, elem: BoxElement):
    for r in range(fan.rank):
        total = sum(
            (elem.alpha[i] * fan.rays[i][r] for i in range(fan.k)),
            start=Fraction(0),
        )
        expected = elem.lattice_point[r] + beta[r]
        assert total.real == expected.real
        assert total.imag == expected.imag


def test_box_of_cone_f1_first_cone():
    (e,) = box_of_cone(F1, (0, 1), (Fraction(1, 4), 0))
    assert e.alpha == (Fraction(1, 4), Fraction(0), Fraction(0))
    assert e.lattice_point == (0, 0)
    assert e.support == (0,)
    # the face table's cover of the support: the one maximal cone (0, 1)
    assert _faces(F1)[_mask(e.support)] == _mask((0, 1))


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


@pytest.mark.parametrize(
    "cone,pos,bad",
    [((0, -1), 2, -1), ((0, 5), 2, 5), ((3, 1), 1, 3), ((0, 1.5), 2, 1.5), ((0, None), 2, None)],
)
def test_box_of_cone_rejects_an_index_outside_the_markers(cone, pos, bad):
    """-1 would read the last ray and cache an inverse under (0, -1); 1.5
    would fail inside the cone table."""
    fan = dataclasses.replace(F1)
    kind = "in 0..2" if isinstance(bad, int) else "an integer"
    message = f"box: entry {pos} of cone is {bad!r}, not {kind}"
    with pytest.raises(ValueError) as info:
        box_of_cone(fan, cone, (Fraction(1, 4), 0))
    assert str(info.value) == message
    assert fan._table.inverses == {}


def test_box_of_fan_f1():
    elems = box_of_fan(F1, (Fraction(1, 4), 0))
    assert len(elems) == 2
    assert {e.alpha for e in elems} == {
        (Fraction(1, 4), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2), Fraction(3, 4)),
    }
    (zero_elem,) = box_of_fan(F1, (0, 0))
    assert zero_elem.alpha == (Fraction(0),) * 3
    assert _faces(F1)[_mask(zero_elem.support)] == _mask((0, 1, 2))


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
        range(lo[r] - 2 - abs(int(beta[r].real)), hi[r] + 3 + abs(int(beta[r].real)))
        for r in range(d)
    ]
    for n in product(*ranges):
        coords = tuple(
            sum((vinv[i][r] * (n[r] + beta[r]) for r in range(d)), start=Fraction(0))
            for i in range(d)
        )
        if all(0 <= c.real < 1 for c in coords):
            alpha = [Fraction(0)] * fan.k
            for pos, idx in enumerate(cone):
                c = coords[pos]
                alpha[idx] = c if c.imag else c.real
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
    # the (0,0,1/2) class meets one cone with shifted raw coordinates.
    # Cone (0,2) has |det| 1 and the one residue n0 = (0,0): n0 + beta =
    # (0, 1/2) = -1*v1 - 1/2*v3, floors (-1, 0, -1).  Cone (1,2) has the row
    # Hermite form ((2,0), (0,1)), residues (0,0) and (1,0): n0 = (1,0) gives
    # (1, 1/2) = 0*v2 - 1/2*v3, floors (0, 0, -1), so its difference against
    # the first branch is (1, 0, 0); each two-branch class has one wall
    by_alpha = {alpha_key(w.alpha): w.difference for w in wall_report(F2, (0, Fraction(1, 2)))}
    assert by_alpha == {
        alpha_key((Fraction(0), Fraction(0), Fraction(1, 2))): (1, 0, 0),
        alpha_key((Fraction(0), Fraction(1, 2), Fraction(0))): (0, 0, 0),
    }

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


def test_correspondence_equality_and_repr_ignore_positions():
    """positions follows from the triples, so two correspondences that
    differ in it alone are equal, hash alike and show one repr, and the
    test oracles' correspondences, built without it, equal the library's."""
    corr = stabilize(F1, (GaussianRational(0, Fraction(-1, 7)), GaussianRational(0, Fraction(2, 5))))
    assert corr.positions == (1, 0)
    for other in (dataclasses.replace(corr, positions=()), dataclasses.replace(corr, positions=(0, 1))):
        assert other == corr and hash(other) == hash(corr) and repr(other) == repr(corr)


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
            r, m = a.real, a.imag
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

    def forged(fan, cone, beta, common):
        out = real(fan, cone, beta, common)
        if cone != fan.max_cones[-1]:
            return out
        moved = []
        for key, residue, floors, e in out:
            point = tuple(x + 1 for x in e.lattice_point)
            moved.append((key, residue, floors, dataclasses.replace(e, lattice_point=point)))
        return moved

    beta = (Fraction(0), Fraction(0))
    # at beta = 0 both cones of F1 have the branch alpha = 0
    assert [len(cls.branches) for cls in collisions(F1, beta)] == [2]
    monkeypatch.setattr(box, "_cone_branches", forged)
    # a copy with an empty cone table, whose parameter memo cannot answer
    # without the forged branches
    fan = dataclasses.replace(F1)
    for call in (box_of_fan, collisions, wall_report):
        with pytest.raises(RuntimeError, match="equal alpha with distinct lattice points"):
            call(fan, beta)


@pytest.mark.parametrize("delta", [0.25, "1/4", None, GaussianRational(0, 1)])
def test_correspondence_at_needs_an_exact_delta(delta):
    """A float delta would give float exponents, quietly.  delta is read as
    every rational input is: "1/4" is the Fraction 1/4, the rest are refused."""
    if delta == "1/4":
        read = correspondence_at(F1, (i_unit, 0), delta)
        exact = correspondence_at(F1, (i_unit, 0), Fraction(1, 4))
        assert (read, repr(read)) == (exact, repr(exact))
        return
    with pytest.raises(ValueError) as info:
        correspondence_at(F1, (i_unit, 0), delta)
    assert str(info.value) == f"box: entry 1 of delta is {delta!r}, not a rational"


@pytest.mark.parametrize(
    "delta, alpha",
    [
        (0, "1/4+2/3i, 1/3i, 0"),
        (Fraction(9, 8), "0, 1/2+5/3i, 3/4-2/3i"),
        (3, "1/4+2/3i, 1/3i, 0"),
    ],
)
def test_correspondence_at_a_wall_is_a_domain_error(delta, alpha):
    """At F1's beta = (1/4+i, 1/3i) the source alphas are (0, 1/2+5/3i,
    3/4-2/3i) and (1/4+2/3i, 1/3i, 0).  An image coordinate r + delta*m is
    an integer, so the image loses support, at delta = 0 (1/3 delta), 9/8
    (3/4 - 2/3 delta, of the first alpha, and 1/4 + 2/3 delta) and 3 (1/3
    delta); delta = 1/2 is on no wall.  Such a delta is the caller's, not a
    fault: a "box:" DomainError names it and the first alpha that loses
    support."""
    beta = ("1/4+1i", "1/3i")
    assert correspondence_at(F1, beta, Fraction(1, 2)).delta == Fraction(1, 2)
    with pytest.raises(DomainError) as info:
        correspondence_at(F1, beta, delta)
    assert type(info.value) is DomainError
    assert str(info.value) == f"box: at delta {delta} the image of alpha=({alpha}) loses support"


def wall(fan, beta):
    """The least delta > 0 at which a coordinate r + delta*m of an image is
    an integer (m != 0), capped at 1: stabilize's bound."""
    bound = Fraction(1)
    for e in box_of_fan(fan, beta):
        for a in e.alpha:
            r, m = a.real, a.imag
            if m:
                bound = min(bound, (1 - r) / m if m > 0 else (r or 1) / -m)
    return bound


def correspondence_outcome(call):
    """call()'s correspondence with its repr, or the error's type and text."""
    try:
        corr = call()
    except (DomainError, RuntimeError) as exc:
        return type(exc), str(exc)
    return corr, repr(corr)


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(FANS)), data=st.data())
def test_closed_form_matches_enumeration(name, data):
    """The closed-form image equals the box set at beta_delta enumerated and
    matched on a fresh copy of the fan, at any delta: below, at and above
    the wall, and <= 0.  Integral real parts give Re alpha_i = 0 with
    Im alpha_i < 0, where the floor is -1."""
    fan = FANS[name]
    im = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=6))
    coord = st.builds(GaussianRational, st.integers(-2, 2).map(Fraction), im)
    beta = tuple(data.draw(coord) for _ in range(fan.rank))
    corr = stabilize(fan, beta)
    oracle = enumerated_correspondence(dataclasses.replace(fan), beta, corr.delta)
    assert (corr, repr(corr)) == (oracle, repr(oracle))
    w = wall(fan, beta)
    share = st.fractions(Fraction(1, 64), Fraction(63, 64), max_denominator=64)
    delta = data.draw(st.one_of(
        share.map(lambda t: t * w),
        st.just(w),
        st.fractions(Fraction(65, 64), 8, max_denominator=64).map(lambda t: t * w),
        st.fractions(-3, 0, max_denominator=12),
        st.integers(-2, 2),
    ))
    got = correspondence_outcome(lambda: correspondence_at(fan, beta, delta))
    fresh = dataclasses.replace(fan)
    assert got == correspondence_outcome(lambda: enumerated_correspondence(fresh, beta, delta))


# real parts: integral ones give Re alpha_i = 0 (with Im alpha_i < 0 the
# floor of the image is -1), tiny ones |Re| << |Im|, and plain rationals
real_part = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(Fraction(-1, 1000), Fraction(1, 1000), max_denominator=10**5),
    st.fractions(-3, 3, max_denominator=12),
)
gaussian_entry = st.builds(GaussianRational, real_part, st.fractions(-3, 3, max_denominator=12))


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(FANS)), data=st.data())
def test_stabilize_writes_the_classes_at_beta_delta(name, data):
    """The collision classes stabilize leaves in the memo under beta_delta
    equal collisions at beta_delta on a fresh copy of the fan, in value,
    repr and order: each branch's floors shifted by floor(x_i), and the
    classes sorted at beta_delta, not at beta."""
    fan = dataclasses.replace(FANS[name])
    beta = tuple(data.draw(gaussian_entry) for _ in range(fan.rank))
    assume(any(x.imag for x in beta))
    corr = stabilize(fan, beta)
    written = fan._table.params[Param.of(corr.beta_delta)]["collisions"][2]
    fresh = collisions(dataclasses.replace(fan), corr.beta_delta)
    assert (written, repr(written)) == (fresh, repr(fresh))


@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(FANS)), data=st.data())
def test_integer_keys_group_as_alpha_key(name, data):
    """collisions, grouped and sorted by integer numerators over one
    denominator per (fan, beta), equals the grouping by alpha_key's Fraction
    pairs, order included.  Integral rational entries put beta on walls,
    where branches of cones with different |det| collide."""
    fan = FANS[name]
    entry = st.one_of(real_part, gaussian_entry) if data.draw(st.booleans()) else real_part
    beta = tuple(data.draw(entry) for _ in range(fan.rank))
    got = collisions(dataclasses.replace(fan), beta)
    want = fraction_keyed_collisions(dataclasses.replace(fan), beta)
    assert (got, repr(got)) == (want, repr(want))


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(d=st.integers(1, 4), data=st.data())
def test_hermite_box_lists_each_residue_once(d, data):
    """The Hermite box of d independent integer vectors, 0 <= n_r < H_rr,
    holds prod H_rr = |det| points, no two of them equal modulo the vectors:
    their cone numerators differ mod den, the least common denominator of
    the vectors' inverse (ConeInverse.numerators)."""
    row = st.tuples(*[st.integers(-3, 3)] * d)
    gens = data.draw(st.lists(row, min_size=d, max_size=d).filter(lambda m: det_rational(m)))
    fan = StackyFan(rank=d, rays=tuple(gens), max_cones=(tuple(range(d)),))
    inv = cone_inverse(gens, d)
    diag = _cone_residues(fan, tuple(range(d)))
    points = list(itertools.product(*map(range, diag)))
    assert len(points) == math.prod(diag) == abs(det_rational(gens)) == normalized_volume(fan)
    classes = {tuple(x % inv.den for x in inv.numerators(n)) for n in points}
    assert len(classes) == len(points)


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(FANS)), data=st.data())
def test_branches_and_walls_reach_their_residues(name, data):
    """Every branch writes its residue plus beta in the cone's generators,
    sum((alpha_i + floors_i) v_i) = residue + beta, and every wall's
    difference d writes the step between its two residues,
    sum(d_i v_i) = second.residue - first.residue, at rational, wall
    (integral) and Gaussian beta."""
    fan = FANS[name]
    entry = st.one_of(real_part, gaussian_entry) if data.draw(st.booleans()) else real_part
    beta = tuple(data.draw(entry) for _ in range(fan.rank))

    def combination(coeffs):
        return tuple(sum(c * v[r] for c, v in zip(coeffs, fan.rays)) for r in range(fan.rank))

    for cls in collisions(fan, beta):
        for br in cls.branches:
            alpha = br.element.alpha
            raw = combination([a.real + f for a, f in zip(alpha, br.floors)])
            assert raw == tuple(n + b.real for n, b in zip(br.residue, beta))
            assert combination([a.imag for a in alpha]) == tuple(b.imag for b in beta)
    for rec in wall_report(fan, beta):
        step = tuple(y - x for x, y in zip(rec.first.residue, rec.second.residue))
        assert combination(rec.difference) == step
