"""The support and degree rules of the Gamma-series: a window entry whose
exponent has negative integers l_i on J, with supp(alpha) and J in no cone
or with |J| at least its summand's order, is skipped before its term is
formed.  Checked against the exact ray operators, and against the rules
read on exact exponents (exact_oracles.supported_terms).  Each kept term
is formed at its summand's order, and agrees with the term formed at order
dim."""

import dataclasses
import itertools

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import boxgamma.gkz as gkz
from boxgamma.errors import DomainError
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.gkz import (
    build_gkz,
    gamma_series,
    gamma_series_derivative,
    reciprocal_gamma_jet,
)
from boxgamma.linalg import GaussianRational
from boxgamma.quotient import ModuleSpec, build_quotient, graded_piece
from exact_oracles import summand_order, supported_terms

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


HEX5 = cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)))
TRI2 = cone_over([(a, b) for a in range(3) for b in range(3 - a)])
# F1's markers on the one cone (1, 3): marker 2 is not a ray
F1_EXTENDED = StackyFan(rank=2, rays=F1.rays, max_cones=((0, 2),))
FANS = {"F1": F1, "SQUARE": SQUARE, "HEX5": HEX5, "TRI2": TRI2, "F1_EXTENDED": F1_EXTENDED}
# the eligible fans of the benchmark ladder: its top summand degree is 2
SIMPLEX3X2 = cone_over([p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2])
LADDER = {"F1": F1, "SQUARE": SQUARE, "HEX5": HEX5, "TRI2": TRI2, "SIMPLEX3X2": SIMPLEX3X2}


def low_degree_points(fan, cap):
    spec0 = ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    return [v for m in range(cap + 1) for v in graded_piece(spec0, m).points]


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def betas(draw, rank):
    """Zero, integral, fractional or Gaussian beta."""
    kind = draw(st.sampled_from(("zero", "integral", "fractional", "gaussian")))
    if kind == "zero":
        return (Fraction(0),) * rank
    if kind == "integral":
        ints = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        return tuple(map(Fraction, ints))
    beta = draw(st.lists(FRACTIONS, min_size=rank, max_size=rank))
    if kind == "fractional":
        return tuple(beta)
    ims = draw(st.lists(FRACTIONS, min_size=rank, max_size=rank))
    return tuple(GaussianRational(re, im) if im else re for re, im in zip(beta, ims))


def window_entries(inst, t, v, B):
    """The offsets m of triple t that a series or a derivative at v reads:
    the window at v, and each entry s of the window at v + v_j as m = s + e_j."""
    src = inst.correspondence.triples[t][0]
    fan = inst.fan
    out = set(gkz._window(inst, src, v, B)[0])
    for j in fan.fan_indices():
        v2 = tuple(a + b for a, b in zip(v, fan.rays[j]))
        out.update(s[:j] + (s[j] + 1,) + s[j + 1 :] for s in gkz._window(inst, src, v2, B)[0])
    return out


def exact_product(inst, t, J):
    """prod_{i in J} D_i on triple t's base vector in the exact operators, or
    None when the shadow quotient has no base element for the triple."""
    q = inst.quotient
    index = q.bases[inst.correspondence.positions[t]]
    if index is None:
        return None
    vec = [Fraction(int(r == index)) for r in range(q.dim)]
    for i in J:
        vec = [sum(a * b for a, b in zip(row, vec)) for row in q.dmats[i]]
    return vec


@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_skipped_terms_are_exactly_zero(data):
    """Every window entry the rules skip has a non-ray marker in J, where
    1/Gamma(l_i + 1) = 0, or prod_{i in J} D_i = 0 on its base vector in
    exact arithmetic; J = {i : alpha_i = 0, m_i < 0} is read here from alpha
    and m, not from the rules.  Every entry with |J| at least its summand's
    order (exact_oracles.summand_order) is skipped, and its product is
    checked whatever markers J holds."""
    fan = FANS[data.draw(st.sampled_from(sorted(FANS)))]
    beta = data.draw(betas(fan.rank))
    try:
        inst = build_gkz(fan, beta)
    except DomainError:
        assume(False)
    v = data.draw(st.sampled_from(low_degree_points(fan, 1)))
    B = data.draw(st.sampled_from((2, 4, 6)))
    ev = gkz._evaluator(inst, (1.0,) * fan.k, None)
    rays = fan.fan_indices()
    for t, (src, _, _) in enumerate(inst.correspondence.triples):
        order = summand_order(inst, t)
        for m in window_entries(inst, t, v, B):
            J = [i for i, (a, mi) in enumerate(zip(src.alpha, m)) if a == 0 and mi < 0]
            by_degree = len(J) >= order
            assert ev.vanishes(t, m) or not by_degree, (beta, t, m, J)
            if not ev.vanishes(t, m):
                continue
            assert J
            if not by_degree and any(i not in rays for i in J):
                continue
            product = exact_product(inst, t, J)
            assert product is None or not any(product), (beta, t, m, J)


@pytest.mark.parametrize(
    "fan,beta",
    [
        (F1, (0, 0)),
        (F1, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))),
        (HEX5, (0, 0, 0)),
        (TRI2, (0, 0, 0)),
        (F1_EXTENDED, (Fraction(1, 2), 0)),
    ],
)
def test_evaluator_forms_only_kept_terms(fan, beta):
    """The terms the evaluator forms are exactly the kept window entries:
    none the rule zeroes, and every other one."""
    inst = build_gkz(fan, beta)
    vs = low_degree_points(fan, 1)
    x = (1.0,) * fan.k
    for v in vs:
        gamma_series(inst, v, x, 4)
        for j in sorted(fan.fan_indices()):
            gamma_series_derivative(inst, v, x, 4, j)
    ev = gkz._evaluator(inst, x, None)
    want = {(t, m) for t, m, _ in supported_terms(inst, vs, vs, 4)}
    assert set(ev.terms) == want
    triples = range(len(inst.correspondence.triples))
    entries = {(t, m) for t in triples for v in vs for m in window_entries(inst, t, v, 4)}
    assert want < entries


def test_degree_rule_skips_terms_the_support_rule_keeps():
    """On TRI2 at beta = 0 the one summand has top degree 1: an entry with
    two negative m_i on a face of the fan passes the support rule and is
    skipped by degree."""
    inst = build_gkz(TRI2, (0, 0, 0))
    ev = gkz._evaluator(inst, (1.0,) * TRI2.k, None)
    assert ev.orders == (2,) and inst.quotient.dim == 4
    faces = gkz._faces(TRI2)
    by_degree = [
        m for m in window_entries(inst, 0, (0, 0, 0), 4)
        if ev.vanishes(0, m) and gkz._mask(i for i, mi in enumerate(m) if mi < 0) in faces
    ]
    assert by_degree and all(sum(mi < 0 for mi in m) >= 2 for m in by_degree)


L_VALUES = st.one_of(
    st.integers(-6, 6).map(complex),  # Gamma's poles at the negative integers
    FRACTIONS.map(lambda f: complex(float(f))),
    st.tuples(FRACTIONS, FRACTIONS).map(lambda p: complex(float(p[0]), float(p[1]))),
)


@pytest.mark.deep
@settings(deadline=None)
@given(l=L_VALUES, orders=st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
def test_jet_prefix_does_not_depend_on_the_order(l, orders):
    """Coefficient n of a reciprocal-Gamma jet is the same float at every
    order above n, which lets a ray factor truncate the jet."""
    a, b = sorted(orders)
    assert repr(reciprocal_gamma_jet(l, a)) == repr(reciprocal_gamma_jet(l, b)[:a])


def assert_terms_at_order_dim(inst, x, B):
    """Form the series and derivatives of degree <= 1 at x, then compare
    each term the evaluator formed with the term an evaluator forms when
    every ray jet and R has order dim.  Where both sides take one route, a
    triple of order above 1 (vectors) or dim 1 (complex numbers), they are
    equal by repr; on a triple of order 1 below dim, the evaluator keeps the
    complex number on the base coordinate and folds each R constant into it
    where the reference transports a vector by it, so the base coordinate
    agrees to 1e-14 relative."""
    try:
        for v in low_degree_points(inst.fan, 1):
            gamma_series(inst, v, x, B)
            for j in sorted(inst.fan.fan_indices()):
                gamma_series_derivative(inst, v, x, B, j)
    except DomainError:  # NoBaseElement or SeriesOverflow: check the terms formed before
        pass
    ev = gkz._evaluator(inst, x, None)
    ref = gkz._SeriesEvaluator(inst, ev.xs, (0.0,) * len(x))
    ref.orders = (ref.dim,) * len(ev.orders)
    for (t, m), got in ev.terms.items():
        want = ref.term(t, m)
        if ev.orders[t] > 1 or ref.dim == 1:
            assert repr(got) == repr(want), (inst.beta, t, m)
        else:
            err = abs(got - want[ev.base(t)])
            assert err <= 1e-14 * max(map(abs, want)), (inst.beta, t, m, err)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_terms_at_beta_zero_equal_the_terms_at_order_dim(name):
    """beta = 0, where D != 0: on F1 and SQUARE the one summand has order
    dim = 2; on HEX5, TRI2 and SIMPLEX3X2 every summand's order is below dim."""
    fan = LADDER[name]
    inst = build_gkz(fan, (0,) * fan.rank)
    x = tuple((0.5, 1.0, -2.0, 0.25j)[i % 4] for i in range(fan.k))
    assert_terms_at_order_dim(inst, x, 2 if fan is SIMPLEX3X2 else 4)


@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_terms_equal_the_terms_at_order_dim(data):
    """Every term the evaluator forms at its summand's order agrees with the
    term formed at order dim (see assert_terms_at_order_dim), on the
    ladder's eligible fans and on F1_EXTENDED, whose marker 2, no ray, takes
    its factor from a jet of order 1."""
    fans = {**LADDER, "F1_EXTENDED": F1_EXTENDED}
    fan = fans[data.draw(st.sampled_from(sorted(fans)))]
    beta = data.draw(betas(fan.rank))
    try:
        inst = build_gkz(fan, beta)
    except DomainError:
        assume(False)
    x = tuple(data.draw(st.sampled_from((0.5, 1.0, -2.0, 0.25j))) for _ in range(fan.k))
    assert_terms_at_order_dim(inst, x, 2 if fan is SIMPLEX3X2 else 4)


@pytest.mark.parametrize("kind", ["rational", "gaussian"])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_positions_index_the_quotient_summands(name, kind):
    """Each positions[t] of the stabilization, which the evaluator and
    kring.spectrum read, is where triple t's target stands among the
    summands of the quotient at beta_delta, built on a fresh copy of the fan.
    The Gaussian beta, real parts 0, reorders the triples on every fan here."""
    fan = LADDER[name]
    beta = [Fraction(1, r + 3) for r in range(fan.rank)]
    if kind == "gaussian":
        ims = [Fraction(-1, 7)] * (fan.rank - 1) + [Fraction(2, 5)]
        beta = [GaussianRational(0, im) for im in ims]
    corr = build_gkz(fan, beta).correspondence
    alphas = build_quotient(ModuleSpec(dataclasses.replace(fan), corr.beta_delta)).alphas
    assert corr.positions == tuple(alphas.index(tgt) for _, tgt, _ in corr.triples)
    assert (corr.positions == tuple(sorted(corr.positions))) is (kind == "rational")
