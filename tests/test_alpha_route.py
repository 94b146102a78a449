"""The series terms through alpha: 1/Gamma(l_i + 1 + eps) at l = alpha + m
is reached from the one reciprocal-Gamma jet at alpha_i by Pochhammer steps,
R_{alpha_i,m_i}(eps) = Gamma(alpha_i + 1 + eps) / Gamma(l_i + 1 + eps).

Checked against the per-entry Stirling route, where each coordinate entry
takes its own reciprocal_gamma_jet at l_i; against mpmath's
x^l prod_i 1/Gamma(l_i + 1) on triples of order 1; float for float against
the sums of dim-long term vectors (exact_oracles.vector_summed), which a
triple of order 1 no longer forms; for independence from the order in
which windows were summed; and for a term beyond the float range, which
raises SeriesOverflow instead of yielding inf or nan."""

import cmath
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import boxgamma.gkz as gkz
from boxgamma.errors import DomainError, SeriesOverflow
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.gkz import (
    build_gkz,
    exp_jet,
    gamma_series,
    gamma_series_derivative,
    reciprocal_gamma_jet,
)
from boxgamma.linalg import GaussianRational
from boxgamma.quotient import ModuleSpec, graded_piece
from exact_oracles import poly_mul_trunc, vector_summed

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
# F1's markers on the one cone (1, 3): marker 2 is not a ray
F1_EXTENDED = StackyFan(rank=2, rays=F1.rays, max_cones=((0, 2),))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


HEX5 = cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)))
TRI2 = cone_over([(a, b) for a in range(3) for b in range(3 - a)])
FANS = {"F1": F1, "F1_EXTENDED": F1_EXTENDED, "SQUARE": SQUARE, "HEX5": HEX5, "TRI2": TRI2}
COORDS = (0.5, 1.0, -2.0, 0.25j, 0.75 + 0.25j)
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
TOLERANCE = 1e-11


@st.composite
def betas(draw, rank, kinds=("zero", "rational", "gaussian")):
    """Zero, rational or Gaussian beta, or a wall: rational with at least
    one integral entry."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return (Fraction(0),) * rank
    if kind == "wall":
        entries = st.one_of(st.integers(-2, 2).map(Fraction), FRACTIONS)
        beta = draw(st.lists(entries, min_size=rank, max_size=rank))
        assume(any(b.denominator == 1 for b in beta))
        return tuple(beta)
    re = draw(st.lists(FRACTIONS, min_size=rank, max_size=rank))
    if kind == "rational":
        return tuple(re)
    im = draw(st.lists(FRACTIONS, min_size=rank, max_size=rank))
    return tuple(GaussianRational(a, b) if b else a for a, b in zip(re, im))


def low_degree_points(fan, cap):
    spec0 = ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    return [v for m in range(cap + 1) for v in graded_piece(spec0, m).points]


def calls(fan):
    """(v, j) of every series (j None) and derivative of degree <= 1."""
    return [(v, j) for v in low_degree_points(fan, 1) for j in (None, *sorted(fan.fan_indices()))]


def run(inst, x, B, order):
    """Sum the given series and derivatives in order, up to the first
    DomainError (NoBaseElement or SeriesOverflow), and return the evaluator."""
    try:
        for v, j in order:
            if j is None:
                gamma_series(inst, v, x, B)
            else:
                gamma_series_derivative(inst, v, x, B, j)
    except DomainError:
        pass
    return gkz._evaluator(inst, x, None)


def stirling_term(ev, t, m, rays):
    """The term as the per-entry route forms it: x^l times 1/Gamma(l_i + 1)
    off the fan's ray indices rays, on the base vector transported by x_i^eps /
    Gamma(l_i + 1 + eps) at each ray, every jet its own evaluation at l_i;
    always a vector of length dim."""
    order = ev.orders[t]
    ls = [complex(float(re + mi), im) for (re, im), mi in zip(ev.parts[t], m)]
    scalar = cmath.exp(sum(l * lg for l, lg in zip(ls, ev.logs)))
    w = [complex(r == ev.base(t)) for r in range(ev.dim)]
    for i, l in enumerate(ls):
        if i in rays:
            jet = poly_mul_trunc(exp_jet((0j, ev.logs[i]), order), reciprocal_gamma_jet(l, order), order)
            w = gkz._apply_jet(ev.dmats[i], jet, w)
        else:
            scalar *= reciprocal_gamma_jet(l, 1)[0]
    return [scalar * c for c in w]


def relative_error(got, want):
    return max(abs(a - b) for a, b in zip(got, want)) / max(max(map(abs, want)), 1e-300)


def as_vector(ev, t, got):
    """A kept term as its vector: a triple of order 1 keeps the complex
    number on its base coordinate, where every other coordinate is 0."""
    if ev.orders[t] > 1:
        return got
    assert type(got) is complex
    return [got if r == ev.base(t) else 0j for r in range(ev.dim)]


@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_terms_match_the_stirling_route(data):
    """Every formed term agrees with the per-entry Stirling route to within
    1e-11 relative, on F1, F1_EXTENDED, SQUARE, HEX5 and TRI2 at zero,
    rational and Gaussian beta."""
    fan = FANS[data.draw(st.sampled_from(sorted(FANS)))]
    beta = data.draw(betas(fan.rank))
    try:
        inst = build_gkz(fan, beta)
    except DomainError:
        assume(False)
    x = tuple(data.draw(st.sampled_from(COORDS)) for _ in range(fan.k))
    ev = run(inst, x, data.draw(st.sampled_from((2, 4, 6))), calls(fan))
    for (t, m), got in ev.terms.items():
        try:
            want = stirling_term(ev, t, m, fan.fan_indices())
        except SeriesOverflow:
            continue
        assert relative_error(as_vector(ev, t, got), want) <= TOLERANCE, (beta, x, t, m)


def assert_sums_equal_the_vector_sums(inst, x, B):
    """Every series and derivative of degree <= 1 at x equals the vector
    route's sum by ==, on every value float and the tail estimate, or both
    raise the same DomainError."""
    for v, j in calls(inst.fan):
        try:
            got = gamma_series(inst, v, x, B) if j is None else gamma_series_derivative(inst, v, x, B, j)
        except DomainError as exc:
            with pytest.raises(type(exc)):
                vector_summed(inst, gkz._evaluator(inst, x, None), v, B, j)
            continue
        want = vector_summed(inst, gkz._evaluator(inst, x, None), v, B, j)
        assert got.value == want.value, (inst.beta, x, v, j)
        assert got.tail_estimate == want.tail_estimate, (inst.beta, x, v, j)


@pytest.mark.deep
@settings(deadline=None)
@given(st.data())
def test_sums_equal_the_vector_sums(data):
    """A triple of order 1 sums complex numbers on its base coordinate where
    the vector route sums dim-long vectors: the same floats, on F1,
    F1_EXTENDED, SQUARE, HEX5 and TRI2 at rational, Gaussian and wall beta."""
    fan = FANS[data.draw(st.sampled_from(sorted(FANS)))]
    beta = data.draw(betas(fan.rank, ("rational", "gaussian", "wall")))
    try:
        inst = build_gkz(fan, beta)
    except DomainError:
        assume(False)
    x = tuple(data.draw(st.sampled_from(COORDS)) for _ in range(fan.k))
    assert_sums_equal_the_vector_sums(inst, x, data.draw(st.sampled_from((2, 4, 6))))


@pytest.mark.parametrize("beta", [(0, Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3), 0)], ids=str)
def test_sums_equal_the_vector_sums_with_orders_mixed(beta):
    """On TRI2 at these walls triples of order 1 and 2 share one instance:
    the complex sums and the vector sums write disjoint coordinates of one
    value, and the tail reads the shells of both."""
    inst = build_gkz(TRI2, beta)
    x = tuple(COORDS[i % len(COORDS)] for i in range(TRI2.k))
    assert_sums_equal_the_vector_sums(inst, x, 6)
    assert set(gkz._evaluator(inst, x, None).orders) == {1, 2}


def exact_power_and_gammas(x, alpha, m):
    """x^l prod_i 1/Gamma(l_i + 1) at l = alpha + m, in mpmath at 40 digits
    from the exact l_i and the principal logarithm of x."""
    with mp.workdps(40):
        ls = [mp.mpc(mp.mpf(a.real.numerator) / a.real.denominator + mi,
                     mp.mpf(Fraction(a.imag).numerator) / Fraction(a.imag).denominator)
              for a, mi in zip(alpha, m)]
        value = mp.exp(sum(l * mp.log(mp.mpc(c)) for l, c in zip(ls, x)))
        for l in ls:
            value *= mp.rgamma(l + 1)
        return complex(value)


@pytest.mark.parametrize("name", sorted(FANS))
@pytest.mark.parametrize("kind", ["rational", "gaussian"])
def test_order_one_terms_match_mpmath(name, kind):
    """At generic beta every triple has order 1, and its term is x^l prod_i
    1/Gamma(l_i + 1) on the base vector: kept as the one complex number on
    the base coordinate, so exactly 0 elsewhere, and within 1e-12 relative
    of mpmath."""
    fan = FANS[name]
    beta = [Fraction(1, r + 3) for r in range(fan.rank)]
    if kind == "gaussian":
        beta = [GaussianRational(b, Fraction(-1, 7 + r)) for r, b in enumerate(beta)]
    inst = build_gkz(fan, beta)
    x = tuple(COORDS[i % len(COORDS)] for i in range(fan.k))
    ev = run(inst, x, 4, calls(fan))
    assert set(ev.orders) == {1} and ev.terms
    for (t, m), got in ev.terms.items():
        want = exact_power_and_gammas(x, inst.correspondence.triples[t][0].alpha, m)
        assert type(got) is complex and abs(got - want) <= 1e-12 * abs(want), (t, m)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_term_repr_does_not_depend_on_the_window_order(data):
    """A term's repr is the same in a fresh evaluator whichever windows were
    summed first: each R is built from m_i = 0 outward, one step at a time,
    and T_alpha e_t once per triple."""
    fan = FANS[data.draw(st.sampled_from(sorted(FANS)))]
    beta = data.draw(betas(fan.rank))
    try:
        reference = build_gkz(fan, beta)
    except DomainError:
        assume(False)
    x = tuple(data.draw(st.sampled_from(COORDS)) for _ in range(fan.k))
    order = calls(fan)
    shuffled = data.draw(st.permutations(order))
    want = run(reference, x, 4, order).terms
    got = run(build_gkz(fan, beta), x, 4, shuffled).terms
    shared = set(want) & set(got)
    assume(shared)
    for key in shared:
        assert repr(got[key]) == repr(want[key]), key


def test_term_beyond_the_float_range_raises():
    """On F1 at beta = (1/3 + 200i, 0), x^l and each 1/Gamma(alpha_i + 1)
    stay finite at x = (e^{-2i}, 1, e^{-2i}) but their product does not:
    SeriesOverflow names the term, where the per-entry route summed it to
    nan."""
    inst = build_gkz(F1, (GaussianRational(Fraction(1, 3), 200), 0))
    x = (cmath.exp(-2j), 1.0, cmath.exp(-2j))
    with pytest.raises(SeriesOverflow) as err:
        gamma_series(inst, (0, 0), x, 4)
    assert str(err.value).startswith(
        "series: the term overflows for the source box element alpha=(0, 2/3+400i, 2/3-200i) "
        "at offset m=(0, 0, -1)"
    )


@pytest.mark.parametrize("B", [40, 400])
def test_terms_far_out_stay_finite(B):
    """On F1 at beta = (1/3, 1/7) and x = (1, 1, 1) the window at B = 400
    reaches |m_i| = 172, where the Pochhammer products pass the float range
    (the per-entry route summed them to nan): every formed term is finite,
    and SeriesOverflow names the first that is not."""
    inst = build_gkz(F1, (Fraction(1, 3), Fraction(1, 7)))
    x = (1.0, 1.0, 1.0)
    try:
        value = gamma_series(inst, (0, 0), x, B).value
    except SeriesOverflow as exc:
        assert B == 400 and str(exc).startswith("series: the term overflows")
    else:
        assert B == 40 and all(map(cmath.isfinite, value))
    ev = gkz._evaluator(inst, x, None)
    assert set(ev.orders) == {1} and len(ev.terms) > 20
    assert all(type(w) is complex and cmath.isfinite(w) for w in ev.terms.values())
