"""The support rule of the Gamma-series: a window entry whose exponent has
negative integers l_i on J, with supp(alpha) and J in no cone, is skipped
before its term is formed.  Checked against the exact ray operators, and
against the rule read on exact exponents (exact_oracles.supported_terms)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import boxgamma.gkz as gkz
from boxgamma.errors import DomainError
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.gkz import build_gkz, gamma_series, gamma_series_derivative
from boxgamma.linalg import GaussianRational
from boxgamma.quotient import ModuleSpec, graded_piece
from exact_oracles import supported_terms

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
    index = q.bases[inst._positions[t]]
    if index is None:
        return None
    vec = [Fraction(int(r == index)) for r in range(q.dim)]
    for i in J:
        vec = [sum(a * b for a, b in zip(row, vec)) for row in q.dmats[i]]
    return vec


@settings(deadline=None)
@given(st.data())
def test_skipped_terms_are_exactly_zero(data):
    """Every window entry the rule skips has a non-ray marker in J, where
    1/Gamma(l_i + 1) = 0, or prod_{i in J} D_i = 0 on its base vector in
    exact arithmetic; J = {i : alpha_i = 0, m_i < 0} is read here from alpha
    and m, not from the rule."""
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
        for m in window_entries(inst, t, v, B):
            if not ev.vanishes(t, m):
                continue
            J = [i for i, (a, mi) in enumerate(zip(src.alpha, m)) if a == 0 and mi < 0]
            assert J
            if any(i not in rays for i in J):
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
