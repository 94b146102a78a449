"""The per-point series evaluator: one reciprocal-Gamma jet per (triple,
marker) at alpha, each window scanned once per fan from a plan built once
per fan and read at a smaller bound by filtering, each (v, B) series summed
once per point, values independent of what was evaluated before, and the
integer-offset term-shift check equal to its LVector formulation, with its
boundary LVectors built only when read."""

import dataclasses
import functools
import gc
import itertools
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgamma.gkz as gkz
from boxgamma.cli import SEED_FILES, main, parse_fan
from boxgamma.errors import NoBaseElement
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.gkz import (
    build_gkz,
    enumerate_L,
    gamma_series,
    gamma_series_derivative,
    solution_system,
    verify_term_shift,
)
from boxgamma.linalg import GaussianRational, Param
from boxgamma.quotient import ModuleSpec, graded_piece
from exact_oracles import ball_by_image, summand_order, supported_terms

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
PENTAGON = ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))
# the cone over it, triangulated by the heights |p|^2 + (i^2 + 1)/101
HEX5 = triangulate_from_heights(
    [(1, a, b) for a, b in PENTAGON],
    [a * a + b * b + Fraction(i * i + 1, 101) for i, (a, b) in enumerate(PENTAGON)],
)
# the cone over 2 * simplex, the cap-0 fan the lattice_window benchmark times,
# lifted by the same rule as HEX5
TRIANGLE2 = [(a, b) for a in range(3) for b in range(3 - a)]
TRI2 = triangulate_from_heights(
    [(1, a, b) for a, b in TRIANGLE2],
    [a * a + b * b + Fraction(i * i + 1, 101) for i, (a, b) in enumerate(TRIANGLE2)],
)
SIMPLEX3 = [p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2]
SIMPLEX3X2 = triangulate_from_heights(
    [(1, *p) for p in SIMPLEX3], [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(SIMPLEX3)]
)
X_F1 = (1.0, 10.0, 1.0)
X_F1_B = (0.75 + 0.25j, 8.0 - 1.5j, 1.25)
X_SQUARE = (1.0, 0.1, 0.1, 1.0)
X_SQUARE_B = (0.9 + 0.1j, 0.12 + 0.01j, 0.08 - 0.02j, 1.1)
TWO_PI = 6.283185307179586


def low_degree_points(fan, cap):
    spec0 = ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    return [v for m in range(cap + 1) for v in graded_piece(spec0, m).points]


@pytest.fixture
def jet_calls(monkeypatch):
    """Counts reciprocal_gamma_jet calls by their (l, order) key."""
    calls = Counter()
    real = gkz.reciprocal_gamma_jet

    def counting(l, order):
        calls[(l, order)] += 1
        return real(l, order)

    monkeypatch.setattr(gkz, "reciprocal_gamma_jet", counting)
    return calls


VERIFY_INPUTS = [("f1", "beta_f1", "x_f1"), ("square", "beta_square", "x_square")]


def run_gkz_verify(tmp_path, fan, beta, x):
    """gkz-verify at B = 12, vcap 2 on the seed examples' files."""
    main(["seed-examples", "--dir", str(tmp_path), "--out", str(tmp_path / "m.json")])
    return main([
        "gkz-verify",
        "--fan", str(tmp_path / f"fan_{fan}.json"),
        "--beta", str(tmp_path / f"{beta}.json"),
        "--x", str(tmp_path / f"{x}.json"),
        "--bound", "12",
        "--vcap", "2",
        "--out", str(tmp_path / "out.json"),
    ])


def alpha_jets(fan_name, beta_name, B, cap):
    """The jets gkz-verify at bound B and degree cap evaluates on the seed
    example files, counted by their (alpha_i, order) keys: one per marker i
    of each triple t with a term the support and degree rules keep, at
    alpha_i, of order_t (1 + the top degree of triple t's summand) at a ray
    and 1 at a marker that is not one."""
    fan = parse_fan(SEED_FILES[f"fan_{fan_name}.json"])
    inst = build_gkz(fan, SEED_FILES[f"{beta_name}.json"]["beta"])
    rays = fan.fan_indices()
    # the solution matrix's points, and each one's shifts, which the
    # derivative residuals compare with
    vs = low_degree_points(fan, cap)
    shifted = [tuple(a + b for a, b in zip(v, fan.rays[j])) for v in vs for j in rays]
    kept = {t for t, _, _ in supported_terms(inst, vs + shifted, vs, B)}
    return Counter(
        (complex(float(a.real), float(a.imag)), summand_order(inst, t) if i in rays else 1)
        for t in kept
        for i, a in enumerate(inst.correspondence.triples[t][0].alpha)
    )


@pytest.mark.parametrize("fan,beta,x", VERIFY_INPUTS)
def test_gkz_verify_computes_each_jet_once(jet_calls, tmp_path, fan, beta, x):
    """reciprocal_gamma_jet is called once per (triple, marker) at the
    point, at alpha_i and the order of that marker's jets, and only for a
    triple with a kept term; every exponent l = alpha + m reaches its
    1/Gamma(l_i + 1) by Pochhammer steps from alpha_i, so no jet is taken at
    any other l."""
    assert run_gkz_verify(tmp_path, fan, beta, x) == 0
    assert jet_calls == alpha_jets(fan, beta, 12, 2)


@pytest.mark.parametrize(
    "fan,beta,x,orders",
    [(*inputs, {1}) for inputs in VERIFY_INPUTS] + [("f1", "beta_zero", "x_f1", {2})],
)
def test_gkz_verify_keeps_vectors_only_above_order_1(monkeypatch, tmp_path, fan, beta, x, orders):
    """After gkz-verify's suite, a triple of order 1 (every triple at the
    seed examples' generic beta) has formed no dim-long vector: its T_alpha
    e_t and every kept term are one complex number on its base coordinate.
    At beta = 0 F1's one triple has order 2, and keeps vectors."""
    made = []
    real = gkz._evaluator

    def recording(instance, x, arg_offsets):
        made.append(real(instance, x, arg_offsets))
        return made[-1]

    monkeypatch.setattr(gkz, "_evaluator", recording)
    (tmp_path / "beta_zero.json").write_text('{"beta": ["0", "0"]}')
    assert run_gkz_verify(tmp_path, fan, beta, x) == 0
    (ev,) = set(made)
    assert set(ev.orders) == orders and len(ev.terms) > 5
    kept = [*ev.folded.values(), *ev.terms.values()]
    if orders == {1}:
        assert all(type(w) is complex for w in kept)
    else:
        assert all(type(w) is list and len(w) == ev.dim == 2 for w in kept)


@pytest.mark.parametrize("fan,beta,x", VERIFY_INPUTS)
def test_gkz_verify_sums_each_series_once(monkeypatch, tmp_path, fan, beta, x):
    """gkz-verify reaches most (v, B) from the solution matrix and again as a
    shifted series v + v_j; the evaluator sums each of them once."""
    calls = Counter()
    real = gkz._summed

    def counting(instance, ev, v, B, j=None):
        if j is None:
            calls[(v, B)] += 1
        return real(instance, ev, v, B, j)

    monkeypatch.setattr(gkz, "_summed", counting)
    assert run_gkz_verify(tmp_path, fan, beta, x) == 0
    assert len(calls) > 5
    assert set(calls.values()) == {1}


def test_gkz_verify_scans_each_window_once(monkeypatch, tmp_path):
    """One _window_offsets call per distinct (target, B) over the whole
    gkz-verify loop: the particular solution determines the target."""
    calls = Counter()
    real = gkz._window_offsets

    def counting(part, plan, B):
        calls[(tuple(part), B)] += 1
        return real(part, plan, B)

    monkeypatch.setattr(gkz, "_window_offsets", counting)
    assert run_gkz_verify(tmp_path, *VERIFY_INPUTS[1]) == 0
    assert len(calls) > 20
    assert set(calls.values()) == {1}


def test_window_plan_is_built_once_per_fan(monkeypatch):
    """The scan's plan depends on the fan alone: each fan builds it on its
    first scan, and every target, bound and instance on it reads it."""
    built, scanned = [], set()
    real_plan, real_scan = gkz._window_plan, gkz._window_offsets

    def planning(relations, k):
        built.append(relations)
        return real_plan(relations, k)

    def scanning(part, plan, B):
        scanned.add((tuple(part), B))
        return real_scan(part, plan, B)

    monkeypatch.setattr(gkz, "_window_plan", planning)
    monkeypatch.setattr(gkz, "_window_offsets", scanning)
    fans = [dataclasses.replace(HEX5), dataclasses.replace(HEX5), dataclasses.replace(SQUARE)]
    for fan in fans:
        for beta in ((0, 0, 0), (Fraction(1, 3), Fraction(1, 7), Fraction(2, 5))):
            inst = build_gkz(fan, beta)
            for B in (0, 2, 4):
                for v in low_degree_points(fan, 1):
                    for j in sorted(fan.fan_indices()):
                        verify_term_shift(inst, v, j, B)
            assert fan._table.plan is not None
    assert len(built) == len(fans) and len(scanned) > 100


def test_each_target_is_solved_once_per_fan(monkeypatch):
    """A particular solution depends on the fan and target alone: over the
    term-shift checks at B = 3, 4, 5 and 6 on one instance, each target is
    solved once, while each (target, B) is still scanned once, on a copy of
    HEX5, whose window table no other test has filled."""
    solved, scanned = Counter(), Counter()
    real_solve, real_scan = gkz.solve_with_hnf, gkz._window_offsets

    def solving(h, u, target):
        solved[tuple(target)] += 1
        return real_solve(h, u, target)

    def scanning(part, plan, B):
        scanned[(tuple(part), B)] += 1
        return real_scan(part, plan, B)

    monkeypatch.setattr(gkz, "solve_with_hnf", solving)
    monkeypatch.setattr(gkz, "_window_offsets", scanning)
    fan = dataclasses.replace(HEX5)
    inst = build_gkz(fan, (Fraction(2, 7), Fraction(5, 11), Fraction(1, 13)))
    for B in (3, 4, 5, 6):
        for v in low_degree_points(fan, 1):
            for j in sorted(fan.fan_indices()):
                verify_term_shift(inst, v, j, B)
    assert len(solved) > 20 and set(solved.values()) == {1}
    # a target is scanned at each B that can reach it, from its one solution
    assert set(scanned.values()) == {1} and len({part for part, _ in scanned}) == len(solved)


# the eligible ladder fans, each with the largest bound its l1 ball is built to
TABLE_FANS = {"F1": (F1, 5), "SQUARE": (SQUARE, 5), "HEX5": (HEX5, 4), "tri2": (TRI2, 4), "simplex3x2": (SIMPLEX3X2, 3)}


@functools.cache
def table_instance(name):
    fan = TABLE_FANS[name][0]
    return build_gkz(fan, (0,) * fan.rank)


def table_source(name):
    """A source box element of an instance on the fan; it names a target's
    lattice point n, so v = -target - n reaches the target."""
    return table_instance(name).correspondence.triples[0][0]


@functools.cache
def table_ball(name, B):
    return ball_by_image(TABLE_FANS[name][0].rays, B)


def read_window(fan, name, target, B):
    """The window at the target, read by an instance on the given copy of the fan."""
    src = table_source(name)
    inst = dataclasses.replace(table_instance(name), fan=fan)
    return gkz._window(inst, src, tuple(-t - n for t, n in zip(target, src.lattice_point)), B)


def target_of(src, v):
    return tuple(-a - n for a, n in zip(v, src.lattice_point))


def tops(fan):
    """The bound each target of the fan's window table was scanned at."""
    return {top for _, top, _ in fan._table.windows.values()}


# no max_examples here, so the "deep" profile (tests/conftest.py) raises it
@pytest.mark.deep
@settings(deadline=None)
@given(name=st.sampled_from(sorted(TABLE_FANS)), data=st.data())
def test_window_table_filters_the_largest_bound(name, data):
    """W(T, B) read after W(T, B') on one fan, at every B <= B' in a drawn
    order, equals a fresh scan at B on another copy and the l1 ball's
    window, offsets and norms in order; it is the entry's view at B, which
    a second read returns.  The target is the sum of B' signed markers, so
    W(T, B') is not empty, or any vector, often past B' max_i |v_i|_1,
    which no window reaches and the table does not keep."""
    fan, top = TABLE_FANS[name]
    wide = data.draw(st.integers(0, top))
    reach = max(sum(map(abs, r)) for r in fan.rays)
    if data.draw(st.booleans()):
        steps = data.draw(st.lists(st.tuples(st.sampled_from(fan.rays), st.sampled_from((-1, 1))), max_size=wide))
        target = tuple(sum(c * r[i] for r, c in steps) for i in range(fan.rank))
    else:
        target = data.draw(st.tuples(*[st.integers(-reach * wide, reach * wide)] * fan.rank))
    warm = dataclasses.replace(fan)
    read_window(warm, name, target, wide)
    far = sum(map(abs, target)) > reach * wide
    for B in data.draw(st.permutations(range(wide + 1))):
        got = read_window(warm, name, target, B)
        want = table_ball(name, B).get(target, [])
        fresh = read_window(dataclasses.replace(fan), name, target, B)
        assert got == fresh == (tuple(want), tuple(sum(map(abs, m)) for m in want))
        assert far or read_window(warm, name, target, B) is got is warm._table.windows[target][2][B]
    if far:
        assert target not in warm._table.windows
    else:
        _, scanned, views = warm._table.windows[target]
        assert scanned == wide and set(views) == set(range(wide + 1))


def test_second_beta_scans_only_targets_the_first_did_not_reach(monkeypatch):
    """Windows depend on the fan and target, not on beta: on one fan, the
    term-shift suite at a second beta scans exactly the targets within
    reach that the first suite did not read, and each target is solved
    once on the fan."""
    solved, scanned = Counter(), []
    real_solve, real_scan = gkz.solve_with_hnf, gkz._window_offsets

    def solving(h, u, target):
        solved[tuple(target)] += 1
        return real_solve(h, u, target)

    def scanning(part, plan, B):
        scanned.append(tuple(sum(c * r[i] for c, r in zip(part, HEX5.rays)) for i in range(HEX5.rank)))
        return real_scan(part, plan, B)

    reached, real_read = [], gkz._window

    def reading(instance, alpha, v, B):
        reached[-1].add(target_of(alpha, v))
        return real_read(instance, alpha, v, B)

    monkeypatch.setattr(gkz, "solve_with_hnf", solving)
    monkeypatch.setattr(gkz, "_window_offsets", scanning)
    monkeypatch.setattr(gkz, "_window", reading)
    fan, B = dataclasses.replace(HEX5), 4
    reach = B * max(sum(map(abs, r)) for r in fan.rays)
    for beta in ((Fraction(2, 7), Fraction(5, 11), Fraction(1, 13)), (Fraction(1, 3), Fraction(1, 7), Fraction(2, 5))):
        inst, before = build_gkz(fan, beta), len(scanned)
        reached.append(set())
        for v in low_degree_points(fan, 1):
            for j in sorted(fan.fan_indices()):
                verify_term_shift(inst, v, j, B)
        assert len(scanned[before:]) == len(set(scanned[before:]))
    new = {t for t in reached[1] - reached[0] if sum(map(abs, t)) <= reach}
    assert reached[0] & reached[1] and new
    assert set(scanned[len(scanned) - len(new):]) == new
    assert set(solved.values()) == {1} and set(solved) == set(fan._table.windows)


def test_unreachable_target_leaves_no_entry():
    """A target past B max_i |v_i|_1 has an empty window, which the fan's
    table does not keep; at a bound that reaches it, it is scanned and kept."""
    fan = dataclasses.replace(F1)
    inst = build_gkz(fan, (0, 0))
    ((src, _, _),) = inst.correspondence.triples
    v = (20, 0)
    target = tuple(-a - n for a, n in zip(v, src.lattice_point))
    assert enumerate_L(inst, src, v, 2) == ()
    assert target not in fan._table.windows
    assert enumerate_L(inst, src, v, 20) and fan._table.windows[target][1] == 20


def test_a_copied_fan_starts_with_an_empty_window_table():
    fan = dataclasses.replace(F1)
    verify_term_shift(build_gkz(fan, (Fraction(1, 4), 0)), (0, 0), 1, 6)
    assert fan._table.windows and fan._table.plan
    copy = dataclasses.replace(fan)
    assert copy == fan and copy._table.windows == {} and copy._table.plan is None


def test_instances_at_two_betas_share_one_view():
    """Two instances at different beta on one fan read the very same view
    for a (target, B) they share, at the top bound and below it."""
    fan = dataclasses.replace(F1)
    a, b = build_gkz(fan, (Fraction(1, 4), 0)), build_gkz(fan, (Fraction(1, 3), Fraction(1, 2)))
    sa, sb = a.correspondence.triples[0][0], b.correspondence.triples[0][0]
    assert a.beta != b.beta and sa != sb
    target = target_of(sa, (0, 0))
    vb = tuple(-t - n for t, n in zip(target, sb.lattice_point))
    for B in (6, 4):
        window = gkz._window(a, sa, (0, 0), B)
        assert window[0] and gkz._window(b, sb, vb, B) is window is fan._table.windows[target][2][B]


def test_a_second_read_below_top_returns_the_first_view(monkeypatch):
    """A read below the top bound builds its view once; the next read at
    that bound, from any instance on the fan, returns it and scans nothing."""
    fan = dataclasses.replace(HEX5)
    inst = build_gkz(fan, (0, 0, 0))
    src = inst.correspondence.triples[0][0]
    top = gkz._window(inst, src, (0, 0, 0), 5)
    first = gkz._window(inst, src, (0, 0, 0), 3)
    assert first[0] and len(first[0]) < len(top[0])
    monkeypatch.setattr(gkz, "_window_offsets", lambda part, plan, B: pytest.fail("scanned"))
    again = build_gkz(fan, (Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)))
    assert gkz._window(again, src, (0, 0, 0), 3) is first and gkz._window(inst, src, (0, 0, 0), 5) is top
    _, scanned, views = fan._table.windows[target_of(src, (0, 0, 0))]
    assert scanned == 5 and views.keys() == {3, 5} and views[3] is first and views[5] is top


def test_a_larger_bound_drops_the_smaller_views():
    """A read past the top bound scans once and replaces the entry, its
    views with it, keeping the particular solution; a later read below
    the new top builds its view again, equal to the dropped one."""
    fan = dataclasses.replace(HEX5)
    inst = build_gkz(fan, (0, 0, 0))
    src = inst.correspondence.triples[0][0]
    target = target_of(src, (0, 0, 0))
    old = {B: gkz._window(inst, src, (0, 0, 0), B) for B in (4, 2, 3)}
    part, _, views = fan._table.windows[target]
    assert views.keys() == {2, 3, 4}
    wide = gkz._window(inst, src, (0, 0, 0), 6)
    kept, scanned, views = fan._table.windows[target]
    assert kept is part and scanned == 6 and views == {6: wide}
    again = gkz._window(inst, src, (0, 0, 0), 3)
    assert again == old[3] and again is not old[3] and views.keys() == {3, 6}


def _suite(instance, x, offsets):
    """repr of every series, derivative and solution-system value at x."""
    fan = instance.fan
    out = []
    for v in low_degree_points(fan, 1):
        out.append(repr(gamma_series(instance, v, x, 10, arg_offsets=offsets)))
        for j in sorted(fan.fan_indices()):
            out.append(repr(gamma_series_derivative(instance, v, x, 10, j, arg_offsets=offsets)))
    out.append(repr(solution_system(instance, x, 10, 1, arg_offsets=offsets)))
    return out


@pytest.mark.parametrize(
    "fan,beta,points",
    [
        (
            F1,
            (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5)),
            [(X_F1, None), (X_F1, (0.0, TWO_PI, 0.0)), (X_F1_B, None), (X_F1_B, (0.0, 0.0, -TWO_PI))],
        ),
        (
            SQUARE,
            (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)),
            [(X_SQUARE, None), (X_SQUARE_B, (0.0, 0.0, TWO_PI, 0.0)), (X_SQUARE_B, None)],
        ),
    ],
)
def test_reused_instance_matches_fresh(fan, beta, points):
    shared = build_gkz(fan, beta)
    fresh = {p: _suite(build_gkz(fan, beta), *p) for p in points}
    # each point, then the first again: x1, x2, x1, ..., with and without offsets
    for p in points + points[:1] + points[::-1]:
        assert _suite(shared, *p) == fresh[p]


BETA_F1 = (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))
POINTS_F1 = ((X_F1, None), (X_F1, (0.0, TWO_PI, 0.0)), (X_F1_B, None))
CALLS = st.tuples(
    st.sampled_from(("series", "derivative", "shift", "boundary", "enumerate", "system")),
    # the index points of degree <= 1
    st.sampled_from(((0, 0), (1, 0), (1, 1), (1, 2))),
    st.sampled_from(sorted(F1.fan_indices())),
    st.sampled_from((4, 6)),
    st.sampled_from(POINTS_F1),
)


def run_call(instance, call):
    kind, v, j, B, (x, offsets) = call
    if kind == "series":
        return repr(gamma_series(instance, v, x, B, arg_offsets=offsets))
    if kind == "derivative":
        return repr(gamma_series_derivative(instance, v, x, B, j, arg_offsets=offsets))
    if kind == "shift":
        return repr(verify_term_shift(instance, v, j, B))
    if kind == "enumerate":
        triples = instance.correspondence.triples
        return repr(enumerate_L(instance, triples[j % len(triples)][0], v, B))
    return repr(solution_system(instance, x, B, 1, arg_offsets=offsets))


@functools.lru_cache(maxsize=None)
def fresh_call(call):
    return run_call(build_gkz(F1, BETA_F1), call)


@settings(max_examples=40, deadline=None)
@given(st.lists(CALLS, min_size=2, max_size=12))
def test_interleaved_calls_match_fresh_instances(calls):
    """Any order of series, derivatives, shift checks, enumerate_L calls,
    boundary reads and solution systems, across bounds, points and sheets,
    gives on one shared instance the repr a fresh instance gives: no memo
    changes a float.  A shift check's report is read (its repr builds the
    boundary) at the next "boundary" call, or after the last call, so the
    windows and the series values may have moved to another bound between
    the check and the read, each on its own."""
    shared = build_gkz(F1, BETA_F1)
    unread = []
    for call in calls:
        kind, v, j, B, _ = call
        if kind == "shift":
            unread.append((call, verify_term_shift(shared, v, j, B)))
        elif kind == "boundary":
            if unread:
                shift, rep = unread.pop(0)
                assert repr(rep) == fresh_call(shift)
        else:
            assert run_call(shared, call) == fresh_call(call)
    for shift, rep in unread:
        assert repr(rep) == fresh_call(shift)


def test_missing_base_element_raises_on_every_call():
    """The evaluator stores base vectors, never their absence."""
    inst = build_gkz(F1, (-3, 0))
    for _ in range(3):
        with pytest.raises(NoBaseElement, match=r"no base element .* n=\(3, 0\)"):
            gamma_series(inst, (0, 0), X_F1, 6)
        with pytest.raises(NoBaseElement):
            gamma_series_derivative(inst, (0, 0), X_F1, 6, 1)


def test_cache_leaves_equality_and_hash_alone():
    a = build_gkz(F1, (Fraction(1, 4), 0))
    before = hash(a)
    gamma_series(a, (0, 0), X_F1, 8)
    assert a._series and hash(a) == before
    assert "_series" not in repr(a)
    # a copy starts with its own empty cache and still equals the original
    copy = dataclasses.replace(a)
    assert copy._series == {} and copy == a and hash(copy) == before


def test_window_cache_keeps_the_last_bound():
    """An instance keeps no windows, its one cache being the series memo:
    the fan's table keeps the windows, scanned at the last and largest
    bound read, and leaves the instance's equality, hash and repr alone."""
    fan = dataclasses.replace(F1)
    a = build_gkz(fan, (Fraction(1, 4), 0))
    before = hash(a)
    assert [f.name for f in dataclasses.fields(a) if not f.compare] == ["_series"]
    for B in (4, 6):
        verify_term_shift(a, (0, 0), 1, B)
        assert fan._table.windows and tops(fan) == {B}
    assert hash(a) == before and "windows" not in repr(a) and dataclasses.replace(a) == a


def test_series_values_follow_the_window_bound():
    """The evaluator keeps the gamma_series values of the last bound it
    summed at, whatever bound a later call moves the windows to."""
    fan = dataclasses.replace(F1)
    a = build_gkz(fan, (Fraction(1, 4), 0))
    for B in (4, 6):
        gamma_series(a, (0, 0), X_F1, B)
        kept = gamma_series(a, (1, 0), X_F1, B)
        (entry,) = a._series.values()
        ev = entry["evaluator"]
        assert set(ev.values) == {B} and len(ev.values[B]) == 2
    verify_term_shift(a, (0, 0), 1, 8)
    moved = fan._table.windows[target_of(a.correspondence.triples[0][0], (0, 0))]
    assert moved[1] == 8 and set(ev.values) == {6}
    assert gamma_series(a, (1, 0), X_F1, 6) is kept and moved[1] == 8 and max(tops(fan)) == 8


@pytest.fixture
def lvector_runs(monkeypatch):
    """Counts _lvectors runs and the LVectors they build."""
    built = Counter()
    real = gkz._lvectors

    def counting(alpha, v, offsets):
        built["runs"] += 1
        built["vectors"] += len(offsets)
        return real(alpha, v, offsets)

    monkeypatch.setattr(gkz, "_lvectors", counting)
    return built


def test_term_shift_builds_its_boundary_on_first_read(lvector_runs):
    a = build_gkz(HEX5, (Fraction(2, 7), Fraction(3, 11), Fraction(5, 13)))
    rep = verify_term_shift(a, (0, 0, 0), 1, 5)
    assert rep.boundary_count > 0 and not lvector_runs
    first = rep.boundary
    assert lvector_runs["runs"] > 0 and lvector_runs["vectors"] == rep.boundary_count
    built = dict(lvector_runs)
    assert rep.boundary is first and len(first) == rep.boundary_count
    assert lvector_runs == built


def test_gkz_verify_builds_no_lvector(lvector_runs, tmp_path):
    assert run_gkz_verify(tmp_path, "f1", "beta_f1", "x_f1") == 0
    assert '"boundary_terms": 51,' in (tmp_path / "out.json").read_text()
    assert not lvector_runs


def test_term_shift_report_keeps_its_own_bound():
    """A report read after its instance moved to another bound lists the
    vectors of the bound it was made at."""
    beta = (Fraction(2, 7), Fraction(3, 11), Fraction(5, 13))
    fan = dataclasses.replace(HEX5)
    a = build_gkz(fan, beta)
    early = verify_term_shift(a, (0, 0, 0), 1, 4)
    later = verify_term_shift(a, (0, 0, 0), 1, 6)
    assert tops(fan) == {6}
    want = reference_term_shift(build_gkz(HEX5, beta), (0, 0, 0), 1, 4)
    assert (early.ok, early.boundary) == want
    fresh = verify_term_shift(build_gkz(HEX5, beta), (0, 0, 0), 1, 6)
    # equal exactly when (ok, boundary) are, across instances
    assert later == fresh and hash(later) == hash(fresh) and later != early


def test_unread_report_outlives_its_instance():
    """A report holds no instance: its boundary is built after the instance
    is collected, equal to the LVector reference."""
    beta = (Fraction(2, 7), Fraction(3, 11), Fraction(5, 13))
    a = build_gkz(HEX5, beta)
    rep = verify_term_shift(a, (0, 0, 0), 1, 5)
    collected = weakref.ref(a)
    del a
    gc.collect()
    assert collected() is None
    assert (rep.ok, rep.boundary) == reference_term_shift(build_gkz(HEX5, beta), (0, 0, 0), 1, 5)


def test_enumerate_L_rejects_a_foreign_element():
    fan = dataclasses.replace(F1)
    a = build_gkz(fan, (Fraction(1, 4), 0))
    src = a.correspondence.triples[0][0]
    assert enumerate_L(a, dataclasses.replace(src), (0, 0), 4)
    foreign = (
        dataclasses.replace(src, lattice_point=(src.lattice_point[0] + 1, src.lattice_point[1])),
        build_gkz(F1, (Fraction(1, 3), 0)).correspondence.triples[0][0],
    )
    def snapshot():
        return {t: (part, top, dict(views)) for t, (part, top, views) in fan._table.windows.items()}

    windows = snapshot()
    for alpha in foreign:
        with pytest.raises(ValueError, match="not a source box element of this instance"):
            enumerate_L(a, alpha, (0, 0), 4)
    assert windows and snapshot() == windows


def reference_term_shift(instance, v, j, B):
    """The term-shift check on LVectors from enumerate_L, window by window."""
    v = tuple(v)
    v2 = tuple(a + b for a, b in zip(v, instance.fan.rays[j]))
    ok = True
    boundary = []
    for src, _, _ in instance.correspondence.triples:
        left = {}
        for lv in enumerate_L(instance, src, v, B):
            m2 = tuple(o - (1 if i == j else 0) for i, o in enumerate(lv.offset))
            if sum(map(abs, m2)) <= B - 1:
                left[m2] = lv
            else:
                boundary.append(lv)
        right = {}
        for lv in enumerate_L(instance, src, v2, B):
            if sum(map(abs, lv.offset)) <= B - 1:
                right[lv.offset] = lv
            else:
                boundary.append(lv)
        ok = ok and set(left) == set(right)
    return ok, tuple(boundary)


@pytest.mark.parametrize(
    "fan,beta",
    [
        (F1, (Fraction(0), Fraction(0))),
        (F1, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5))),
        (SQUARE, (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))),
        (HEX5, (Fraction(2, 7), Fraction(3, 11), Fraction(5, 13))),
        (TRI2, (Fraction(3, 5), Fraction(1, 4), Fraction(2, 9))),
    ],
)
def test_term_shift_offsets_match_lvector_reference(fan, beta):
    inst = build_gkz(fan, beta)
    for v in low_degree_points(inst.fan, 1):
        for j in sorted(inst.fan.fan_indices()):
            for B in (0, 1, 4, 6):
                rep = verify_term_shift(inst, v, j, B)
                assert (rep.ok, rep.boundary) == reference_term_shift(inst, v, j, B)


def test_param_values_are_canonical_scalars():
    """A coordinate with Im 0 comes back as a Fraction, never as a
    GaussianRational, and a form's values give the form back."""
    form = Param(2, (1, 6, 1), (0, 0, 2))
    values = form.values
    assert values == (Fraction(1, 2), Fraction(3), GaussianRational(Fraction(1, 2), Fraction(1)))
    assert [type(x) for x in values] == [Fraction, Fraction, GaussianRational]
    assert Param.of(values) == form


class _Real(float):
    """A float subclass: its instances may carry state a float does not."""


@pytest.mark.parametrize(
    "x,offsets,reads",
    [
        (X_F1, None, 1),
        (X_F1, (0.0, TWO_PI, 0), 1),
        (list(X_F1), None, 3),
        ((1.0, 10, True), None, 3),  # refused on every call
        ((1.0, _Real(10.0), 1.0), None, 3),
        (X_F1, [0.0, TWO_PI, 0.0], 3),
    ],
    ids=["tuple", "tuple-offsets", "list", "bool", "float-subclass", "list-offsets"],
)
def test_kept_point_is_read_once(monkeypatch, x, offsets, reads):
    """Three series at one point read x once when the caller passes the very
    tuple of float, int or complex (and None or such offsets) the evaluator
    was built from; any other input is read on every call, a refused one
    too, and every call gives the repr or the error a fresh instance gives."""
    calls = []
    real = gkz._check_x

    def counting(fan, x):
        calls.append(x)
        return real(fan, x)

    monkeypatch.setattr(gkz, "_check_x", counting)

    def outcome(inst, v):
        try:
            return repr(gamma_series(inst, v, x, 6, arg_offsets=offsets))
        except ValueError as err:
            return str(err)

    vs = ((0, 0), (1, 0), (1, 1))
    inst = build_gkz(F1, BETA_F1)
    got = [outcome(inst, v) for v in vs]
    assert len(calls) == reads
    assert got == [outcome(build_gkz(F1, BETA_F1), v) for v in vs]
