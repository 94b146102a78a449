"""Benchmark of the boxgamma pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is imported from the
checkout's own src/.  --workload all runs every workload in turn, each in a
fresh process.  Every workload is a closed loop: one caller runs one op at a
time.  --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a separate traced run.  Either way the last line of stdout is
one JSON object.  README.md defines the workloads and metrics.
"""

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("algebra_sweep", "series_converged", "lattice_window", "cli_roundtrip")
SETUP_REPEATS = 3
WARMUP_OPS = 2
OVERRUN_S = 60.0  # hard stop past --seconds when a cycle's ops keep timing out
TRACED_RUNS = 2  # a traced cycle costs about two untraced ones: each op runs twice
PROBES = 5  # interpreter and import probes in the traced cli_roundtrip run
# Median time of calibrate() on the reference machine (a shared 2-core
# x86_64 sandbox).  Times are reported at that speed: see scaled().
CAL_REF_S = 0.0033

# one BLAS thread, so numpy's SVD cannot oversubscribe the cores; set before
# numpy is imported, and inherited by every subprocess
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PER_LAYER = (
    "fan.validate.calls", "fan.validate.self_s",
    "fan.triangulate_from_heights.calls", "fan.triangulate_from_heights.self_s",
    "box.box_of_fan.calls", "box.box_of_fan.self_s",
    "box.stabilize.calls", "box.stabilize.self_s",
    "box.correspondence_at.calls",
    "box.collisions.calls", "box.collisions.self_s",
    "quotient.build_quotient.calls", "quotient.build_quotient.self_s",
    "quotient.build_quotient.dim_sum",
    "quotient.graded_piece.calls", "quotient.graded_piece.self_s",
    "kring.spectrum.self_s", "kring.wall_report.self_s",
    "gkz.enumerate_L.calls", "gkz.enumerate_L.self_s", "gkz.enumerate_L.vectors",
    "gkz.verify_term_shift.calls", "gkz.verify_term_shift.self_s",
    "gkz.reciprocal_gamma_jet.calls", "gkz.reciprocal_gamma_jet.distinct_keys",
    "gkz.reciprocal_gamma_jet.calls_per_key", "gkz.reciprocal_gamma_jet.self_s",
    "gkz.gamma_series.calls", "gkz.gamma_series.self_s",
    "gkz.gamma_series_derivative.calls", "gkz.gamma_series_derivative.self_s",
    "gkz.solution_system.self_s", "gkz.verify_euler.self_s",
    "gkz.build_gkz.calls", "gkz.build_gkz.self_s",
    "linalg.smith_normal_form.calls", "linalg.smith_normal_form.self_s",
    "linalg.solve_simplicial_coords.calls", "linalg.solve_simplicial_coords.self_s",
    "linalg.mat_inverse.calls", "linalg.mat_inverse.self_s",
    "linalg.integer_kernel_basis.calls", "linalg.integer_kernel_basis.self_s",
    "linalg.solve_integer.calls", "linalg.solve_integer.self_s",
    "linalg.singular_values.self_s",
    "op.self_s",
    "cli.interpreter_s", "cli.import_s", "cli.command_s", "cli.emit_json.self_s",
    "trace.overhead_frac", "trace.ops_per_cycle",
)
COUNT_STATS = ("calls", "vectors", "dim_sum", "distinct_keys")


class OpTimeout(BaseException):
    """Raised by the op timer; a BaseException so no `except Exception` in
    the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def calibrate():
    """Seconds for a fixed pure-Python Fraction loop that runs no boxgamma code.

    The CPU speed of a shared sandbox drifts by 10-20% within minutes, and
    the drift moves this loop and the ops alike.
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 13 - 6, i) * Fraction(3, i + 7)
    return perf_counter() - start


def scaled(durations, cals):
    """Each duration at the reference speed: times CAL_REF_S over the mean of
    the calibrations just before the previous op, this op and the next one.

    The speed drifts within seconds, so only calibrations next to the op
    track it (a median over nine ops tracked it worse).
    """
    out = []
    for k, d in enumerate(durations):
        window = cals[max(0, k - 1) : k + 2]
        out.append(d * CAL_REF_S / statistics.mean(window))
    return out


def timed(fn, prep, budget):
    """(seconds, result, error) of fn(prep) under the op budget."""
    signal.setitimer(signal.ITIMER_REAL, budget + 1.0)
    start = perf_counter()
    try:
        result = fn(prep)
        return perf_counter() - start, result, None
    except (OpTimeout, subprocess.TimeoutExpired):
        return perf_counter() - start, None, "timeout"
    except Exception as exc:  # a raising op is a failed op, not a crash
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def checked(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # malformed output fails the op's check
        return f"check raised {type(exc).__name__}: {exc}"


def rngs(seed, name):
    return random.Random(f"{seed}:{name}:ops"), random.Random(f"{seed}:{name}:checks")


def set_up(cls, seed, workdir):
    """Build the workload's inputs and run the warm-up ops; returns
    (workload, seconds)."""
    start = perf_counter()
    wl = cls(workdir)
    rng = random.Random(f"{seed}:{cls.name}:warmup")
    for item in wl.items[:WARMUP_OPS]:
        timed(wl.op, wl.prepare(item, rng), wl.budget_s)
    return wl, perf_counter() - start


def planned_cycles(wl, seconds, runs_per_op=1):
    """Whole cycles a run measures: as many as take `seconds` at the
    reference machine's speed.  A count fixed by --seconds rather than a
    deadline, so two runs with the same seed attempt the same ops, and fail
    the same ones, however fast the machine runs that day."""
    return max(1, round(seconds / (wl.cycle_s * runs_per_op)))


def measure(wl, seed, seconds):
    """The planned cycles over the items; one (item index, op seconds,
    failure or None, calibration seconds) per op."""
    rng, check_rng = rngs(seed, wl.name)
    records = []
    start = perf_counter()
    for _ in range(planned_cycles(wl, seconds)):
        for i, item in enumerate(wl.items):
            prep = wl.prepare(item, rng)
            cal = calibrate()
            dur, result, err = timed(wl.op, prep, wl.budget_s)
            records.append((i, dur, err or checked(wl.check, prep, result, check_rng), cal))
            if perf_counter() - start > seconds + OVERRUN_S:
                return records
    return records


def traced(wl, seed, seconds):
    """The planned cycles, each op run once untraced and once traced on the same
    inputs (alternating which goes first).  Returns the tracer, the records
    (item, untraced s, traced s, failure), the per-cycle totals, and whether
    every traced op's self times summed to its duration."""
    from spans import Tracer

    in_process = getattr(wl, "run_in_process", None)
    run = in_process or wl.op
    check = wl.check_in_process if in_process else (lambda p, r: wl.check(p, r, check_rng))
    tracer = Tracer()
    rng, check_rng = rngs(seed, wl.name)
    records, cycles = [], []
    sums_ok = True
    start = perf_counter()
    for cycle in range(planned_cycles(wl, seconds, TRACED_RUNS)):
        before = tracer.snapshot()
        tracer.keep = cycle == 0
        for i, item in enumerate(wl.items):
            prep = wl.prepare(item, rng)
            runs = {}
            for mode in ("plain", "traced") if cycle % 2 == 0 else ("traced", "plain"):
                if mode == "plain":
                    dur, result, err = timed(run, prep, wl.budget_s)
                else:
                    dur, out, err = timed(lambda p: tracer.run_op(run, p), prep, wl.budget_s)
                    result = None
                    if out is not None:
                        dur, self_sum, result = out
                        sums_ok = sums_ok and abs(self_sum - dur) <= 1e-6 * dur + 1e-9
                runs[mode] = (dur, err or checked(check, prep, result))
            fail = runs["plain"][1] or runs["traced"][1]
            records.append((i, runs["plain"][0], runs["traced"][0], fail))
            if perf_counter() - start > seconds + OVERRUN_S:
                break
        after = tracer.snapshot()
        cycles.append(tuple(a - b for a, b in zip(after, before)))
        if perf_counter() - start > seconds + OVERRUN_S:
            break
    return tracer, records, cycles, sums_ok


def cycle_counts(cycle):
    calls, _, extra = cycle
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update(extra)
    return out


def probe(code):
    times = []
    for _ in range(PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_metrics(wl, records, cycles):
    counts = cycle_counts(cycles[0])
    selfs = {}
    for name in {n for _, s, _ in cycles for n in s}:
        selfs[name] = statistics.median(c[1].get(name, 0.0) for c in cycles)
    plain = sum(r[1] for r in records)
    values = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if stat in COUNT_STATS:
            values[metric] = counts.get(metric, 0)
        elif stat == "self_s":
            values[metric] = selfs.get(layer, 0.0)
    keys = values["gkz.reciprocal_gamma_jet.distinct_keys"]
    values["gkz.reciprocal_gamma_jet.calls_per_key"] = (
        values["gkz.reciprocal_gamma_jet.calls"] / keys if keys else 0.0
    )
    values["trace.overhead_frac"] = (sum(r[2] for r in records) - plain) / plain
    values["trace.ops_per_cycle"] = len(wl.items)
    values["cli.interpreter_s"] = values["cli.import_s"] = values["cli.command_s"] = 0.0
    if hasattr(wl, "run_in_process"):
        interpreter = probe("pass")
        values["cli.interpreter_s"] = interpreter
        values["cli.import_s"] = probe("import boxgamma.cli") - interpreter
        values["cli.command_s"] = statistics.median(r[1] for r in records)
    units = {"self_s": "s", "overhead_frac": "ratio", "calls_per_key": "ratio"}
    return {
        m: {"value": values[m], "unit": "s" if m.startswith("cli.") else units.get(m.rsplit(".", 1)[1], "count")}
        for m in PER_LAYER
    }


def write_out(name, doc):
    """Write one output document under OUT; returns its path."""
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def report_checks(wl, outcomes):
    """One line per item: ops run, ops passed, and each failure reason."""
    for i, item in enumerate(wl.items):
        mine = [f for j, f in outcomes if j == i]
        reasons = Counter(f for f in mine if f)
        line = f"check {wl.label(item)}: {len(mine)} ops, {mine.count(None)} passed"
        print(line + "".join(f"; {n} x {r}" for r, n in sorted(reasons.items())))


def run_one(args):
    if not (SRC / "boxgamma" / "__init__.py").is_file():
        print(f"no boxgamma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    cals = [calibrate() for _ in range(3)]
    start = perf_counter()
    import boxgamma
    import boxgamma.cli  # noqa: F401  (not imported by the package itself)

    import_s = perf_counter() - start
    if SRC not in Path(boxgamma.__file__).resolve().parents:
        print(f"boxgamma was imported from {boxgamma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _alarm)
    workdir = str(OUT / f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(set_up(WORKLOADS[args.workload], args.seed, workdir))
            cals += [calibrate() for _ in range(3)]
        wl = setups[-1][0]
        setup_s = import_s + statistics.median(s for _, s in setups)
        if args.counts_only:
            _, _, cycles, _ = traced(wl, args.seed, 0)
            print(json.dumps(cycle_counts(cycles[0]), sort_keys=True))
            return 0
        if args.trace:
            return run_traced(wl, args)
        start = perf_counter()
        records = measure(wl, args.seed, args.seconds)
        wall_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = [d for _, d, _, _ in records]
    durations = scaled(raw, [c for *_, c in records])
    failed = sum(1 for _, _, f, _ in records if f)
    who = resource.RUSAGE_CHILDREN if hasattr(wl, "run_in_process") else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s * CAL_REF_S / statistics.median(cals), "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_p90_s": (statistics.quantiles(durations, n=10)[8], "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    report_checks(wl, [(i, f) for i, _, f, _ in records])
    path = write_out(
        f"ops-{args.workload}-seed{args.seed}.json",
        {
            "fields": ["item", "seconds", "unscaled_seconds", "failure"],
            "ops": [[wl.label(wl.items[r[0]]), d, r[1], r[2]] for r, d in zip(records, durations)],
        },
    )
    print(f"{args.workload} every op's time and check outcome: {path}")
    print(f"{args.workload} speed: calibration median {statistics.median(c for *_, c in records):.6g} s "
          f"against {CAL_REF_S} s on the reference machine; times below are scaled to it")
    print(f"{args.workload} unscaled: setup_s = {setup_s:.6g} s, ops_per_s = {len(raw) / sum(raw):.6g} 1/s, "
          f"op_p50_s = {statistics.median(raw):.6g} s, op_p90_s = {statistics.quantiles(raw, n=10)[8]:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    print(f"{args.workload} measured {len(records) // len(wl.items)} cycles in {wall_s:.4g} s of wall time")
    print(f"{args.workload} samples = {len(records)} ops, {len(records) - int(0.9 * len(records))} beyond p90")
    print(json.dumps({
        "correct": True,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def run_traced(wl, args):
    tracer, records, cycles, sums_ok = traced(wl, args.seed, args.seconds)
    mine = cycle_counts(cycles[0])
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "1", "--counts-only"],
        stdout=subprocess.PIPE, check=True, timeout=170,
    )
    counts_ok = json.loads(child.stdout.decode().splitlines()[-1]) == json.loads(json.dumps(mine))
    path = write_out(
        f"trace-{args.workload}-seed{args.seed}.json",
        {"fields": ["id", "parent", "op", "name", "start", "end"], "spans": tracer.spans},
    )
    metrics = layer_metrics(wl, records, cycles)
    failed = sum(1 for *_, f in records if f)
    report_checks(wl, [(i, f) for i, _, _, f in records])
    print(f"{args.workload} traced: {len(cycles)} cycles, {len(records)} op pairs, spans of cycle 1 in {path}")
    print(f"{args.workload} self-check: work counts repeat in a second traced process: {counts_ok}")
    print(f"{args.workload} self-check: span self times sum to each op's duration: {sums_ok}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": counts_ok and sums_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=900, check=True)
        lines = proc.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        total["correct"] = total["correct"] and doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        total["metrics"].update({f"{name}.{m}": v for m, v in doc["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
