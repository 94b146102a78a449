"""The four workloads: their inputs, their ops, and the checks on each op.

A workload lists the items of one cycle.  For every op the runner calls
`prepare(item, rng)` (untimed: draws the seeded inputs), then `op(prep)`
(timed), then `check(prep, result, rng)` (untimed), which returns None when
every check passes and a short reason otherwise.  README.md says why each
workload and fan was chosen.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

from boxgamma import box, cli, gkz, kring, quotient
from boxgamma import fan as fanmod
from boxgamma.linalg import parse_gaussian

import oracles
from ladder import FANS, LADDER, X_POINTS, draw_beta

GAP_MIN = 1e3
RESIDUAL_MAX = 1e-8
PHASE_RTOL = 1e-12  # |y - exp(2 pi i alpha)| over max(1, |y|), for CLI floats


def _beta(texts):
    return tuple(parse_gaussian(t) for t in texts)


def _degree_points(fan, cap):
    spec0 = quotient.ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    return [p for m in range(cap + 1) for p in quotient.graded_piece(spec0, m).points]


def _shift(v, ray):
    return tuple(a + b for a, b in zip(v, ray))


def _pairing(corr):
    return sorted(
        (tuple(map(oracles.parts, s.alpha)), s.lattice_point, t.support, t.lattice_point)
        for s, t, _ in corr.triples
    )


class AlgebraSweep:
    """validate, box_of_fan + stabilize, build_quotient, spectrum + wall_report."""

    name = "algebra_sweep"
    budget_s = 30.0
    cycle_s = 5.5  # nominal seconds of one cycle on the reference machine

    def __init__(self, workdir):
        self.volumes = {n: oracles.volume(f) for n, f in FANS.items()}
        self.items = [(n, kind) for n in FANS for kind in ("rational", "gaussian")]

    def label(self, item):
        return f"{item[0]} {item[1]}"

    def prepare(self, item, rng):
        name, kind = item
        fan = FANS[name]
        texts = draw_beta(rng, fan.rank, kind)
        return name, fan, texts, _beta(texts)

    def op(self, prep):
        _, fan, _, beta = prep
        report = fanmod.validate(fan)
        elements = box.box_of_fan(fan, beta)
        corr = box.stabilize(fan, beta)
        q = quotient.build_quotient(quotient.ModuleSpec(fan, corr.beta_delta))
        return report, elements, corr, q, kring.spectrum(fan, beta), kring.wall_report(fan, beta)

    def check(self, prep, result, rng):
        name, fan, texts, beta = prep
        report, elements, corr, q, points, walls = result
        vol = self.volumes[name]
        bparts = [oracles.parse_scalar(t) for t in texts]
        if not report.valid or report.volume != vol:
            return "validate: volume differs from the determinant sum"
        for e in elements:
            alpha = [oracles.parts(a) for a in e.alpha]
            if not oracles.box_identity_holds(fan.rays, bparts, alpha, e.lattice_point):
                return "box: sum alpha_i v_i != n + beta"
        if len(corr.triples) != len(elements):
            return "stabilize: correspondence is not a bijection"
        if q.dim != vol or sum(q.summand_dims.values()) != vol:
            return "quotient: dim != normalized volume"
        if not oracles.nilpotent_and_commuting(q.dmats):
            return "quotient: ray operators not nilpotent and commuting"
        per_cone = {}
        for p in points:
            for br in p.alpha_class.branches:
                per_cone[br.cone] = per_cone.get(br.cone, 0) + 1
        if any(per_cone.get(c, 0) != oracles.cone_index(fan.rays, c) for c in fan.max_cones):
            return "collisions: a cone does not have |det| branches"
        if sum(p.multiplicity for p in points) != vol:
            return "spectrum: multiplicities do not sum to the volume"
        pairs = sum(len(p.alpha_class.branches) * (len(p.alpha_class.branches) - 1) // 2 for p in points)
        if len(walls) != pairs:
            return "wall_report: not one record per colliding pair"
        try:
            finer = box.correspondence_at(fan, beta, corr.delta / 1024)
        except RuntimeError as exc:
            return f"stabilize: no correspondence at delta/1024 ({exc})"
        if _pairing(finer) != _pairing(corr):
            return "stabilize: pairing at delta differs from delta/1024"
        return None


class SeriesConverged:
    """build_gkz plus the gkz-verify suite, on the fans where the series converge."""

    name = "series_converged"
    budget_s = 30.0
    cycle_s = 3.0  # nominal seconds of one cycle on the reference machine
    vcap = 1

    def __init__(self, workdir):
        kinds = {"F1": ("zero", "rational", "gaussian"), "SQUARE": ("rational", "gaussian")}
        self.items = [(n, kind, B) for n, ks in kinds.items() for kind in ks for B in (12, 15, 20)]
        self.volumes = {n: oracles.volume(LADDER[n]) for n in kinds}

    def label(self, item):
        return f"{item[0]} {item[1]} B={item[2]}"

    def prepare(self, item, rng):
        name, kind, B = item
        fan = LADDER[name]
        return name, fan, _beta(draw_beta(rng, fan.rank, kind)), X_POINTS[name], B

    def op(self, prep):
        _, fan, beta, x, B = prep
        inst = gkz.build_gkz(fan, beta)
        f = inst.fan
        shifts_ok = True
        worst = 0.0
        for v in _degree_points(f, self.vcap):
            for j in sorted(f.fan_indices()):
                shifts_ok = bool(gkz.verify_term_shift(inst, v, j, B)) and shifts_ok
                deriv = gkz.gamma_series_derivative(inst, v, x, B, j)
                direct = gkz.gamma_series(inst, _shift(v, f.rays[j]), x, B)
                worst = max(worst, max(abs(a - b) for a, b in zip(deriv.value, direct.value)))
        system = gkz.solution_system(inst, x, B, self.vcap)
        return shifts_ok, worst, system, gkz.verify_euler(inst), inst.quotient.dim

    def check(self, prep, result, rng):
        vol = self.volumes[prep[0]]
        shifts_ok, worst, system, euler, dim = result
        if not euler:
            return "Euler operators not exactly zero"
        if not shifts_ok:
            return "term shift sets differ"
        if not worst < RESIDUAL_MAX:
            return f"derivative residual {worst:.3g} >= {RESIDUAL_MAX:g}"
        if dim != vol or system.rank != vol or system.rank_deficient:
            return f"rank {system.rank}, dim {dim}, volume {vol}"
        if not system.gap >= GAP_MIN:
            return f"singular-value gap {system.gap:.3g} < {GAP_MIN:g}"
        return None


class LatticeWindow:
    """Exact term-shift suite (every v up to the degree cap, every ray) plus
    verify_euler; no floating-point series."""

    name = "lattice_window"
    budget_s = 30.0
    cycle_s = 2.0  # nominal seconds of one cycle on the reference machine
    samples = 2  # enumerate_L results per op compared with the l1-ball oracle
    windows = (3, 4, 5, 6)

    def __init__(self, workdir):
        self.items = [("HEX5", B, 1) for B in self.windows]
        self.items += [("tri2", B, 0) for B in self.windows]
        # simplex3x2 sits between the tri2 and HEX5 ops in cost; twice per
        # cycle, so the median op falls inside its cluster, not between two
        self.items += [("simplex3x2", 0, 0)] * 2
        # only beta = 0 keeps simplex3x2 inside the op budget; it is built once
        self.simplex = gkz.build_gkz(LADDER["simplex3x2"], _beta(("0",) * 4))
        self.fresh = {}

    def label(self, item):
        return f"{item[0]} B={item[1]} cap={item[2]}"

    def prepare(self, item, rng):
        name, B, cap = item
        if name == "simplex3x2":
            inst = self.simplex
        elif B == self.windows[0]:
            # one fresh instance per fan and cycle, shared by its B values;
            # beta in (0, 1)^3 keeps its box elements' lattice points near
            # the origin, so B rather than beta sets the size of the window
            beta = _beta(draw_beta(rng, LADDER[name].rank, "fractional"))
            inst = self.fresh[name] = gkz.build_gkz(LADDER[name], beta)
        else:
            inst = self.fresh[name]
        return inst, _degree_points(inst.fan, cap), B

    def op(self, prep):
        inst, vs, B = prep
        ok = True
        for v in vs:
            for j in sorted(inst.fan.fan_indices()):
                ok = bool(gkz.verify_term_shift(inst, v, j, B)) and ok
        return ok, gkz.verify_euler(inst)

    def check(self, prep, result, rng):
        inst, vs, B = prep
        shifts_ok, euler = result
        if not euler:
            return "Euler operators not exactly zero"
        if not shifts_ok:
            return "term shift sets differ"
        rays = inst.fan.rays
        beta = [oracles.parts(b) for b in inst.beta]
        sources = [src for src, _, _ in inst.correspondence.triples]
        for _ in range(self.samples):
            src = rng.choice(sources)
            v = rng.choice(vs)
            if rng.random() < 0.5:
                v = _shift(v, rays[rng.choice(sorted(inst.fan.fan_indices()))])
            got = gkz.enumerate_L(inst, src, v, B)
            target = tuple(-a - b for a, b in zip(v, src.lattice_point))
            if [tuple(lv.offset) for lv in got] != oracles.window_offsets(rays, target, B):
                return "enumerate_L differs from the l1-ball oracle"
            alpha = [oracles.parts(a) for a in src.alpha]
            for lv in got:
                l = [oracles.parts(x) for x in lv.l]
                if any(li != (a[0] + m, a[1]) for li, a, m in zip(l, alpha, lv.offset)):
                    return "enumerate_L: l != alpha + offset"
                for r in range(len(v)):
                    s = (sum(x[0] * w[r] for x, w in zip(l, rays)), sum(x[1] * w[r] for x, w in zip(l, rays)))
                    if s != (beta[r][0] - v[r], beta[r][1]):
                        return "enumerate_L: sum l_i v_i != beta - v"
        return None


def _fan_doc(fan):
    doc = {"rank": fan.rank, "rays": [list(v) for v in fan.rays]}
    doc["max_cones"] = [[i + 1 for i in c] for c in fan.max_cones]
    if fan.deg is not None:
        doc["deg"] = list(fan.deg)
    return doc


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


class CliRoundtrip:
    """One `python -m boxgamma.cli` subprocess per op, one at a time."""

    name = "cli_roundtrip"
    budget_s = 30.0
    cycle_s = 3.4  # nominal seconds of one cycle on the reference machine
    # (command, fan, parameter kind or window bound); gkz commands use the
    # seed-example files.  gkz-verify on SQUARE runs at two bounds, so the
    # ops that set op_p90_s form one cluster of two per cycle, not a single op.
    items = [
        ("validate", "F1", None),
        ("validate", "tri2", None),
        ("box", "F2", "gaussian"),
        ("box", "HEX5", "rational"),
        ("cohomology", "SQUARE", "rational"),
        ("cohomology", "tri2", "gaussian"),
        ("kring", "F2", "rational"),
        ("kring", "HEX5", "gaussian"),
        ("gkz-solve", "F1", 12),
        ("gkz-solve", "SQUARE", 12),
        ("gkz-verify", "F1", 12),
        ("gkz-verify", "SQUARE", 12),
        ("gkz-verify", "SQUARE", 15),
    ]
    seed_names = {"F1": "f1", "F2": "f2", "SQUARE": "square"}

    def __init__(self, workdir):
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        code = cli.main(["seed-examples", "--dir", workdir, "--out", os.path.join(workdir, "manifest.json")])
        if code != 0:
            raise RuntimeError("seed-examples failed")
        self.fan_files = {}
        for name in {it[1] for it in self.items}:
            path = os.path.join(workdir, f"fan_{self.seed_names.get(name, name)}.json")
            if name not in self.seed_names:
                _write_json(path, _fan_doc(LADDER[name]))
            self.fan_files[name] = path
        self.volumes = {n: oracles.volume(LADDER[n]) for n in self.fan_files}

    def label(self, item):
        return " ".join(str(x) for x in item if x is not None)

    def prepare(self, item, rng):
        command, name, kind = item
        argv = [command, "--fan", self.fan_files[name]]
        short = self.seed_names.get(name, name)
        texts = None
        if command.startswith("gkz-"):
            argv += ["--beta", os.path.join(self.dir, f"beta_{short}.json")]
            argv += ["--x", os.path.join(self.dir, f"x_{short}.json"), "--bound", str(kind), "--vcap", "1"]
        elif command != "validate":
            texts = draw_beta(rng, LADDER[name].rank, kind)
            path = os.path.join(self.dir, f"beta_op_{command}_{short}.json")
            _write_json(path, {"beta": list(texts)})
            argv += ["--beta", path]
            if command == "box":
                argv.append("--stabilize")
        return command, name, texts, argv

    def op(self, prep):
        return subprocess.run(
            [sys.executable, "-m", "boxgamma.cli", *prep[3]],
            cwd=self.dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=self.budget_s,
            check=False,
        )

    def check(self, prep, result, rng):
        if result.returncode != 0:
            return f"exit code {result.returncode}"
        return self.check_output(prep, json.loads(result.stdout))

    def check_output(self, prep, doc):
        command, name, texts, _ = prep
        fan = LADDER[name]
        vol = self.volumes[name]
        if command == "validate":
            ok = doc["valid"] and doc["volume"] == vol
        elif command == "box":
            beta = [oracles.parse_scalar(t) for t in texts]
            ok = len(doc["triples"]) == len(doc["elements"]) and all(
                oracles.box_identity_holds(fan.rays, beta, [oracles.parse_scalar(a) for a in e["alpha"]], e["n"])
                for e in doc["elements"]
            )
            ok = ok and all(t["source"]["support"] == t["target"]["support"] for t in doc["triples"])
        elif command == "cohomology":
            ok = doc["dim"] == vol == len(doc["basis"]) and sum(s["dim"] for s in doc["summands"]) == vol
        elif command == "kring":
            ok = sum(p["multiplicity"] for p in doc["points"]) == vol
            for p in doc["points"]:
                for a, y in zip(p["exponents"], p["y"]):
                    re_, im_ = oracles.parse_scalar(a)
                    want = complex(math.cos(2 * math.pi * re_), math.sin(2 * math.pi * re_))
                    want *= math.exp(-2 * math.pi * im_)
                    ok = ok and abs(complex(*y) - want) <= PHASE_RTOL * max(1.0, abs(want))
        elif command == "gkz-solve":
            gap = math.inf if doc["gap"] == "infinity" else doc["gap"]
            ok = doc["rank"] == doc["dim"] == vol and not doc["rank_deficient"] and gap >= GAP_MIN
        else:
            ok = (
                doc["passed"]
                and doc["euler_exact"]
                and doc["term_shift_ok"]
                and doc["max_residual"] < RESIDUAL_MAX
                and doc["rank"] == vol
            )
        return None if ok else f"{command}: output fails its checks"

    def run_in_process(self, prep):
        """The same command through cli.main in this process (traced runs)."""
        out = os.path.join(self.dir, "inprocess.json")
        code = cli.main([*prep[3], "--out", out])
        return code, out

    def check_in_process(self, prep, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        with open(out) as fh:
            return self.check_output(prep, json.load(fh))


WORKLOADS = {w.name: w for w in (AlgebraSweep, SeriesConverged, LatticeWindow, CliRoundtrip)}
