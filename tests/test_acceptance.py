"""Acceptance gate: nine pinned criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
a summary line on success.
"""

import cmath
import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from boxgamma.box import (
    alpha_key,
    box_of_fan,
    correspondence_at,
    normalize_beta,
    stabilize,
)
from boxgamma.cli import main
from boxgamma.fan import StackyFan, normalized_volume, triangulate_from_heights
from boxgamma.gkz import (
    build_gkz,
    gamma_series,
    gamma_series_derivative,
    reciprocal_gamma_jet,
    solution_system,
    verify_euler,
    verify_term_shift,
)
from boxgamma.kring import spectrum
from boxgamma.linalg import GaussianRational, re_part
from boxgamma.quotient import (
    ModuleSpec,
    build_quotient,
    graded_piece,
    verify_def2_isomorphism,
)
from exact_oracles import det_rational, mat_inverse

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(
    rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2))
)
SQUARE = triangulate_from_heights(
    ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0)
)
UNIMODULAR = StackyFan(rank=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))

X_F1 = (1.0, 10.0, 1.0)
# same convergence scale |x^m| = 1e-2 as the 3-ray point, chosen so series
# entries stay O(1)
X_SQUARE = (1.0, 0.1, 0.1, 1.0)


def frac(x: Fraction) -> Fraction:
    x = Fraction(x)
    return x - math.floor(x)


def closed_forms(a: Fraction, b: Fraction):
    """The four spectrum exponent vectors of the weighted projective plane."""
    half = Fraction(1, 2)
    return (
        (Fraction(0), frac(-a / 2 + b), frac(-a / 2)),
        (Fraction(0), frac(-a / 2 + b + half), frac(-a / 2 + half)),
        (frac(a - 2 * b), Fraction(0), frac(-b)),
        (frac(a), frac(b), Fraction(0)),
    )


def partition_by_forms(beta, forms):
    """Map each spectrum class back to the labels 1..4 it collects."""
    part = set()
    for p in spectrum(F2, beta):
        key = alpha_key(p.alpha_class.alpha)
        labels = tuple(
            i + 1 for i, f in enumerate(forms) if alpha_key(f) == key
        )
        assert len(labels) == p.multiplicity
        part.add(labels)
    assert sum(len(t) for t in part) == 4
    return part


def test_criterion_1_spectrum_closed_forms():
    a, b = Fraction(1, 3), Fraction(1, 5)
    pts = spectrum(F2, (a, b))
    forms = closed_forms(a, b)
    assert len(pts) == 4
    assert sum(p.multiplicity for p in pts) == 4
    assert {alpha_key(p.alpha_class.alpha) for p in pts} == {
        alpha_key(f) for f in forms
    }
    for form in forms:
        target = [cmath.exp(2j * math.pi * float(c)) for c in form]
        best = min(
            (p.y for p in pts),
            key=lambda y: max(abs(u - w) for u, w in zip(y, target)),
        )
        rel = max(abs(u - w) / max(1.0, abs(w)) for u, w in zip(best, target))
        assert rel < 1e-12
    print("criterion 1 PASS: 4 spectrum points match the closed forms")


def test_criterion_2_wall_predicates():
    zero = Fraction(0)
    half = Fraction(1, 2)
    assert partition_by_forms((zero, zero), closed_forms(zero, zero)) == {
        (1, 3, 4),
        (2,),
    }
    assert partition_by_forms((zero, half), closed_forms(zero, half)) == {
        (1, 4),
        (2, 3),
    }
    grid_a = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 3)]
    grid_b = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 5), Fraction(1, 6)]
    for a, b in product(grid_a, grid_b):
        forms = closed_forms(a, b)
        predicates = {
            (1, 3): (-a / 2 + b).denominator == 1,
            (2, 3): (-a / 2 + b + half).denominator == 1,
            (1, 4): (-a / 2).denominator == 1,
            (2, 4): (-a / 2 + half).denominator == 1,
            (3, 4): b.denominator == 1,
        }
        for (i, j), flag in predicates.items():
            assert (forms[i - 1] == forms[j - 1]) is flag, (a, b, i, j)
        assert forms[0] != forms[1]
        partition_by_forms((a, b), forms)
    print("criterion 2 PASS: wall partitions and five predicates on 5x5 grid")


def brute_cone(fan, cone, beta):
    """Walk integer translates inside the half-open parallelepiped of a cone."""
    gens = [fan.rays[i] for i in cone]
    d = fan.rank
    vinv = mat_inverse([[gens[j][r] for j in range(d)] for r in range(d)])
    lo = [sum(min(0, g[r]) for g in gens) for r in range(d)]
    hi = [sum(max(0, g[r]) for g in gens) for r in range(d)]
    found = set()
    ranges = [
        range(lo[r] - 2 - abs(math.ceil(abs(beta[r]))), hi[r] + 3 + abs(math.ceil(abs(beta[r]))))
        for r in range(d)
    ]
    for n in product(*ranges):
        coords = [
            sum((vinv[i][r] * (n[r] + beta[r]) for r in range(d)), start=Fraction(0))
            for i in range(d)
        ]
        if all(0 <= c < 1 for c in coords):
            alpha = [Fraction(0)] * fan.k
            for pos, idx in enumerate(cone):
                alpha[idx] = coords[pos]
            found.add((alpha_key(alpha), n))
    return found


def random_cone_fan(rng):
    d = rng.choice([2, 3])
    while True:
        rays = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        det = det_rational([[rays[j][r] for j in range(d)] for r in range(d)])
        if det != 0 and abs(det) <= 6:
            return StackyFan(rank=d, rays=rays, max_cones=(tuple(range(d)),))


def random_complete_fan(rng):
    while True:
        wanted = rng.randint(3, 5)
        pool = set()
        while len(pool) < wanted:
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            if v != (0, 0):
                pool.add(v)
        rays = sorted(pool, key=lambda r: math.atan2(r[1], r[0]))
        k = len(rays)
        cones = []
        ok = True
        for i in range(k):
            u, w = rays[i], rays[(i + 1) % k]
            if u[0] * w[1] - u[1] * w[0] <= 0:
                ok = False
                break
            cones.append(tuple(sorted((i, (i + 1) % k))))
        if ok:
            return StackyFan(rank=2, rays=tuple(rays), max_cones=tuple(cones))


def random_rational(rng, span=3, den=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_complex_beta(rng, rank):
    return tuple(
        GaussianRational(
            random_rational(rng),
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 2), rng.randint(2, 5)),
        )
        for _ in range(rank)
    )


def test_criterion_3_box_examples():
    quarter = (Fraction(1, 4), Fraction(0))
    pts = {
        tuple(n + b for n, b in zip(e.lattice_point, quarter))
        for e in box_of_fan(F1, quarter)
    }
    assert pts == {(Fraction(1, 4), Fraction(0)), (Fraction(5, 4), Fraction(2))}
    zero = (Fraction(0), Fraction(0))
    pts0 = {
        tuple(Fraction(n) for n in e.lattice_point) for e in box_of_fan(F1, zero)
    }
    assert pts0 == {(Fraction(0), Fraction(0))}

    rng = random.Random(20260818)
    for trial in range(20):
        fan = random_cone_fan(rng) if trial % 2 else random_complete_fan(rng)
        beta = tuple(random_rational(rng) for _ in range(fan.rank))
        got = {(alpha_key(e.alpha), e.lattice_point) for e in box_of_fan(fan, beta)}
        want = set()
        for cone in fan.max_cones:
            want |= brute_cone(fan, cone, beta)
        assert got == want, (fan, beta)
    print("criterion 3 PASS: pinned box sets and 20 brute-force agreements")


def quotient_for(fan, beta):
    b = normalize_beta(fan, beta)
    corr = stabilize(fan, b)
    return build_quotient(ModuleSpec(fan, corr.beta_delta))


@pytest.fixture(scope="module")
def volume_instances():
    rng = random.Random(1202)
    fans = [F1, F2, UNIMODULAR]
    fans += [random_complete_fan(rng) for _ in range(5)]
    fans += [random_cone_fan(rng) for _ in range(5)]
    return [
        (fan, quotient_for(fan, random_complex_beta(rng, fan.rank))) for fan in fans
    ]


def test_criterion_4_dimension_equals_volume(volume_instances):
    assert len(volume_instances) == 13
    for fan, q in volume_instances:
        vol = normalized_volume(fan)
        assert q.dim == vol, fan
        assert sum(q.summand_dims.values()) == q.dim
    print("criterion 4 PASS: dim = volume on 13 instances, summands sum")


def pairing(corr):
    return sorted(
        (alpha_key(src.alpha), src.lattice_point, tgt.support, tgt.lattice_point)
        for src, tgt, _ in corr.triples
    )


def test_criterion_5_stabilization():
    rng = random.Random(907)
    cases = [(F1, random_complex_beta(rng, 2)) for _ in range(5)]
    cases += [(F2, random_complex_beta(rng, 2)) for _ in range(5)]
    for fan, beta in cases:
        b = normalize_beta(fan, beta)
        corr = stabilize(fan, b)
        halved = correspondence_at(fan, b, corr.delta / 2)
        assert pairing(corr) == pairing(halved), (fan.rays, beta)
        for src, tgt, _ in corr.triples:
            assert tgt.support == src.support
        assert verify_def2_isomorphism(fan, b, corr, 4)
    print("criterion 5 PASS: 10 stabilizations invariant, products intertwined")


@pytest.fixture(scope="module")
def gkz_instances():
    betas = [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(0)),
        (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(1, 5)),
    ]
    out = [(build_gkz(F1, b), X_F1) for b in betas]
    out.append(
        (build_gkz(SQUARE, (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))), X_SQUARE)
    )
    return out


def low_degree_points(instance, cap=2):
    fan = instance.fan
    spec0 = ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    vs = []
    for m in range(cap + 1):
        vs.extend(graded_piece(spec0, m).points)
    return vs


def test_criterion_6_gkz_verification(gkz_instances):
    for instance, x in gkz_instances:
        assert verify_euler(instance)
        worst = 0.0
        for v in low_degree_points(instance):
            for j in sorted(instance.fan.fan_indices()):
                assert verify_term_shift(instance, v, j, 8).ok
                deriv = gamma_series_derivative(instance, v, x, 15, j)
                v2 = tuple(a + b for a, b in zip(v, instance.fan.rays[j]))
                direct = gamma_series(instance, v2, x, 15)
                worst = max(
                    worst,
                    max(abs(p - q) for p, q in zip(deriv.value, direct.value)),
                )
        assert worst < 1e-8, instance.beta
        system = solution_system(instance, x, 15)
        assert system.rank == 2 == normalized_volume(instance.fan)
        assert system.gap >= 1e3
        assert not system.rank_deficient
    print("criterion 6 PASS: Euler, term shifts, residuals < 1e-8, rank = vol")


def test_criterion_7_jet_goldens():
    doc = json.loads(
        (Path(__file__).parent / "data" / "gamma_jet_golden.json").read_text()
    )
    top = doc["order"]
    assert top == 6
    for entry in doc["entries"]:
        l = Fraction(entry["l"])
        refs = entry["coeffs"]
        for order in range(1, top + 1):
            jet = reciprocal_gamma_jet(l, order)
            assert len(jet) == order
            for got, ref in zip(jet, refs):
                assert abs(got.imag) < 1e-12
                assert abs(got.real - ref) <= 1e-10 * max(1.0, abs(ref))
    print("criterion 7 PASS: jets match the 50-digit goldens to 1e-10")


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def is_zero(mat):
    return all(x == 0 for row in mat for x in row)


def test_criterion_8_nilpotency_commutativity(volume_instances, gkz_instances):
    quotients = [q for _, q in volume_instances]
    quotients += [instance.quotient for instance, _ in gkz_instances]
    for q in quotients:
        mats = [[list(row) for row in m] for m in q.dmats]
        for i, m in enumerate(mats):
            power = m
            steps = 1
            while not is_zero(power) and steps < q.dim:
                power = mat_mul(power, m)
                steps += 1
            assert is_zero(power), "not nilpotent within dim steps"
            for m2 in mats[i + 1 :]:
                assert mat_mul(m, m2) == mat_mul(m2, m)
    print("criterion 8 PASS: exact nilpotency and commutativity on all instances")


def test_criterion_9_cli_determinism(tmp_path):
    seed = tmp_path / "seed"
    assert main(["seed-examples", "--dir", str(seed), "--out", str(tmp_path / "m.json")]) == 0

    second = tmp_path / "seed2"
    assert main(["seed-examples", "--dir", str(second), "--out", str(tmp_path / "m2.json")]) == 0
    for name in sorted(p.name for p in seed.iterdir()):
        assert (seed / name).read_bytes() == (second / name).read_bytes()

    cases = [
        ["validate", "--fan", str(seed / "fan_f1.json")],
        ["validate", "--fan", str(seed / "fan_f2.json")],
        ["validate", "--fan", str(seed / "fan_square.json")],
        [
            "box",
            "--fan", str(seed / "fan_f1.json"),
            "--beta", str(seed / "beta_f1.json"),
            "--stabilize",
        ],
        [
            "box",
            "--fan", str(seed / "fan_f2.json"),
            "--beta", str(seed / "beta_f2.json"),
        ],
        [
            "cohomology",
            "--fan", str(seed / "fan_f1.json"),
            "--beta", str(seed / "beta_f1.json"),
        ],
        [
            "cohomology",
            "--fan", str(seed / "fan_square.json"),
            "--beta", str(seed / "beta_square.json"),
        ],
        [
            "kring",
            "--fan", str(seed / "fan_f2.json"),
            "--beta", str(seed / "beta_f2.json"),
        ],
        [
            "gkz-solve",
            "--fan", str(seed / "fan_f1.json"),
            "--beta", str(seed / "beta_f1.json"),
            "--x", str(seed / "x_f1.json"),
            "--bound", "10",
        ],
        [
            "gkz-solve",
            "--fan", str(seed / "fan_square.json"),
            "--beta", str(seed / "beta_square.json"),
            "--x", str(seed / "x_square.json"),
            "--bound", "10",
        ],
        [
            "gkz-verify",
            "--fan", str(seed / "fan_f1.json"),
            "--beta", str(seed / "beta_f1.json"),
            "--x", str(seed / "x_f1.json"),
            "--bound", "8",
        ],
        [
            "gkz-verify",
            "--fan", str(seed / "fan_square.json"),
            "--beta", str(seed / "beta_square.json"),
            "--x", str(seed / "x_square.json"),
            "--bound", "8",
        ],
    ]
    for i, args in enumerate(cases):
        first = tmp_path / f"a{i}.json"
        again = tmp_path / f"b{i}.json"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes(), args
    print("criterion 9 PASS: byte-identical reruns for every command")
