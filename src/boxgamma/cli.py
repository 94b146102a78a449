"""Command-line front end: JSON in, deterministic JSON out.

All file indices are 1-based to match the usual v_1..v_k numbering; exact
rationals travel as "p/q" strings, Gaussian rationals as "p/q+r/si" strings
on output (objects {"re": .., "im": ..} are also accepted on input), complex
floats as [re, im] pairs printed with 17 significant digits.  Output key
order is fixed by construction, so identical inputs give byte-identical
bytes.

Exit codes: 0 success, 1 domain error (with a machine-readable error
object), 2 usage, I/O, or parse error.
"""

import argparse
import json
import math
import os
import sys

from .box import alpha_key, box_of_fan, normalize_beta, stabilize
from .errors import DomainError
from .fan import StackyFan, validate
from .gkz import (
    build_gkz,
    gamma_series,
    gamma_series_derivative,
    solution_system,
    verify_euler,
    verify_term_shift,
)
from .kring import _wall_records, spectrum
from .linalg import (
    as_gaussian,
    format_gaussian,
    format_rational,
    parse_gaussian,
    parse_rational,
)
from .quotient import _stabilized_quotient


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float has no JSON number form")
    return format(float(x), ".17g")


def emit_json(obj) -> str:
    """Canonical serialization: insertion-order keys, %.17g floats."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for pos, (key, val) in enumerate(obj.items()):
            if pos:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, val in enumerate(obj):
            if pos:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def ser_scalar(c) -> str:
    return format_gaussian(as_gaussian(c))


def ser_complex(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def parse_fan(doc) -> StackyFan:
    rank = int(doc["rank"])
    rays = tuple(tuple(int(x) for x in ray) for ray in doc["rays"])
    cones = tuple(
        tuple(sorted(int(i) - 1 for i in cone)) for cone in doc["max_cones"]
    )
    for cone in cones:
        for i in cone:
            if not 0 <= i < len(rays):
                raise ValueError(f"cone index {i + 1} out of range")
    deg = doc.get("deg")
    if deg is not None:
        deg = tuple(parse_rational(x) for x in deg)
    return StackyFan(rank=rank, rays=rays, max_cones=cones, deg=deg)


def parse_beta(doc, fan: StackyFan):
    vals = doc["beta"]
    if len(vals) != fan.rank:
        raise ValueError(f"beta must have {fan.rank} entries, got {len(vals)}")
    return normalize_beta(fan, tuple(parse_gaussian(v) for v in vals))


def parse_x(doc, fan: StackyFan):
    vals = doc["x"]
    if len(vals) != fan.k:
        raise ValueError(f"x must have {fan.k} entries, got {len(vals)}")
    xs = tuple(complex(float(p[0]), float(p[1])) for p in vals)
    offs = doc.get("arg_offsets")
    if offs is not None:
        offs = tuple(float(o) for o in offs)
        if len(offs) != fan.k:
            raise ValueError(f"arg_offsets must have {fan.k} entries")
    return xs, offs


def ser_box_element(elem) -> dict:
    return {
        "alpha": [ser_scalar(a) for a in elem.alpha],
        "n": list(elem.lattice_point),
        "support": [i + 1 for i in elem.support],
    }


def cmd_validate(args):
    fan = parse_fan(_load(args.fan))
    report = validate(fan)
    return {
        "valid": report.valid,
        "gkz_eligible": report.gkz_eligible,
        "volume": report.volume,
        "violations": list(report.violations),
        "gkz_notes": list(report.gkz_notes),
        "deg": None if report.deg is None else [format_rational(d) for d in report.deg],
    }


def cmd_box(args):
    fan = parse_fan(_load(args.fan))
    beta = parse_beta(_load(args.beta), fan)
    elements = box_of_fan(fan, beta)
    out = {"elements": [ser_box_element(e) for e in elements]}
    if args.stabilize:
        corr = stabilize(fan, beta)
        out["delta"] = format_rational(corr.delta)
        out["beta_delta"] = [format_rational(b) for b in corr.beta_delta]
        out["triples"] = [
            {
                "source": ser_box_element(src),
                "target": ser_box_element(tgt),
                "point": [format_rational(c) for c in point],
            }
            for src, tgt, point in corr.triples
        ]
    return out


def cmd_cohomology(args):
    fan = parse_fan(_load(args.fan))
    beta = parse_beta(_load(args.beta), fan)
    xi = None
    if args.shadow:
        doc = _load(args.shadow)
        xi = tuple(parse_rational(v) for v in doc["xi"])
        if len(xi) != fan.rank:
            raise ValueError(f"xi must have {fan.rank} entries")
    q = _stabilized_quotient(fan, stabilize(fan, beta), xi)
    report = validate(fan)
    return {
        "dim": q.dim,
        "volume": report.volume,
        "summands": [
            {
                "alpha": [ser_scalar(a) for a in be.alpha],
                "dim": q.summand_dims[alpha_key(be.alpha)],
            }
            for be in q.alphas
        ],
        "basis": [
            {
                "degree": elem.degree,
                "n": list(elem.lattice_point),
                "alpha": [ser_scalar(a) for a in elem.alpha],
                "monomial": list(elem.monomial),
            }
            for elem in q.basis
        ],
    }


def cmd_kring(args):
    fan = parse_fan(_load(args.fan))
    beta = parse_beta(_load(args.beta), fan)
    points = spectrum(fan, beta)
    walls = _wall_records(p.alpha_class for p in points)
    return {
        "points": [
            {
                "exponents": [ser_scalar(a) for a in p.alpha_class.alpha],
                "y": [ser_complex(y) for y in p.y],
                "multiplicity": p.multiplicity,
            }
            for p in points
        ],
        "semisimple": all(p.multiplicity == 1 for p in points),
        "walls": [
            {
                "alpha": [ser_scalar(a) for a in w.alpha],
                "first_cone": [i + 1 for i in w.first.cone],
                "second_cone": [i + 1 for i in w.second.cone],
                "difference": list(w.difference),
            }
            for w in walls
        ],
    }


def _gap_value(gap: float):
    return "infinity" if math.isinf(gap) else float(gap)


def cmd_gkz_solve(args):
    fan = parse_fan(_load(args.fan))
    beta = parse_beta(_load(args.beta), fan)
    instance = build_gkz(fan, beta)
    xs, offs = parse_x(_load(args.x), fan)
    system = solution_system(instance, xs, args.bound, args.vcap, arg_offsets=offs)
    return {
        "vs": [list(v) for v in system.vs],
        "matrix": [[ser_complex(z) for z in row] for row in system.matrix],
        "rank": system.rank,
        "dim": instance.quotient.dim,
        "rank_deficient": system.rank_deficient,
        "singular_values": [float(s) for s in system.singular_values],
        "gap": _gap_value(system.gap),
        "tail_estimate": float(system.tail_estimate),
    }


def cmd_gkz_verify(args):
    fan = parse_fan(_load(args.fan))
    beta = parse_beta(_load(args.beta), fan)
    instance = build_gkz(fan, beta)
    xs, offs = parse_x(_load(args.x), fan)
    fan = instance.fan
    system = solution_system(instance, xs, args.bound, args.vcap, arg_offsets=offs)
    shifts_ok = True
    boundary_terms = 0
    max_residual = 0.0
    for v in system.vs:
        for j in sorted(fan.fan_indices()):
            rep = verify_term_shift(instance, v, j, args.bound)
            shifts_ok = shifts_ok and rep.ok
            boundary_terms += len(rep.boundary)
            deriv = gamma_series_derivative(
                instance, v, xs, args.bound, j, arg_offsets=offs
            )
            v2 = tuple(a + b for a, b in zip(v, fan.rays[j]))
            shifted = gamma_series(instance, v2, xs, args.bound, arg_offsets=offs)
            for a, b in zip(deriv.value, shifted.value):
                max_residual = max(max_residual, abs(a - b))
    euler_ok = verify_euler(instance)
    tol = max(1e-8, 10.0 * system.tail_estimate)
    passed = (
        euler_ok
        and shifts_ok
        and max_residual <= tol
        and not system.rank_deficient
    )
    return {
        "euler_exact": euler_ok,
        "term_shift_ok": shifts_ok,
        "boundary_terms": boundary_terms,
        "max_residual": max_residual,
        "residual_tolerance": tol,
        "rank": system.rank,
        "dim": instance.quotient.dim,
        "rank_deficient": system.rank_deficient,
        "gap": _gap_value(system.gap),
        "tail_estimate": float(system.tail_estimate),
        "passed": passed,
    }


SEED_FILES = {
    "fan_f1.json": {
        "rank": 2,
        "rays": [[1, 0], [1, 1], [1, 2]],
        "max_cones": [[1, 2], [2, 3]],
    },
    "fan_f2.json": {
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-2, -1]],
        "max_cones": [[1, 2], [2, 3], [1, 3]],
    },
    "fan_square.json": {
        "rank": 3,
        "rays": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
        "max_cones": [[1, 2, 4], [1, 3, 4]],
    },
    "beta_f1.json": {"beta": ["1/4", "0"]},
    "beta_f2.json": {"beta": ["1/3", "1/5"]},
    "beta_square.json": {"beta": ["1/3", "1/7", "1/11"]},
    "x_f1.json": {"x": [[1.0, 0.0], [10.0, 0.0], [1.0, 0.0]]},
    "x_square.json": {"x": [[1.0, 0.0], [0.1, 0.0], [0.1, 0.0], [1.0, 0.0]]},
}


def cmd_seed_examples(args):
    os.makedirs(args.dir, exist_ok=True)
    written = []
    for name in sorted(SEED_FILES):
        path = os.path.join(args.dir, name)
        with open(path, "w") as fh:
            fh.write(emit_json(SEED_FILES[name]))
            fh.write("\n")
        written.append(name)
    return {"written": written}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxgamma",
        description="Exact computations on stacky fans: box sets, graded "
        "quotients, ring spectra, and truncated series solutions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", help="write output JSON to this file instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", help="check a fan file and report eligibility", parents=[common]
    )
    p.add_argument("--fan", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("box", help="solve for the box set at a parameter", parents=[common])
    p.add_argument("--fan", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--stabilize", action="store_true")
    p.set_defaults(func=cmd_box)

    p = sub.add_parser("cohomology", help="graded quotient dimensions and basis", parents=[common])
    p.add_argument("--fan", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--shadow", help="JSON file with a direction vector xi")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("kring", help="ring spectrum points, multiplicities, walls", parents=[common])
    p.add_argument("--fan", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=cmd_kring)

    p = sub.add_parser("gkz-solve", help="evaluate the truncated series system", parents=[common])
    p.add_argument("--fan", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--vcap", type=int, default=2)
    p.set_defaults(func=cmd_gkz_solve)

    p = sub.add_parser("gkz-verify", help="run the solver invariant suite", parents=[common])
    p.add_argument("--fan", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--vcap", type=int, default=2)
    p.set_defaults(func=cmd_gkz_verify)

    p = sub.add_parser("seed-examples", help="write the bundled example inputs", parents=[common])
    p.add_argument("--dir", default=".")
    p.set_defaults(func=cmd_seed_examples)

    return parser


def _write_out(args, obj) -> None:
    text = emit_json(obj) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    # the flag spelling of seed-examples is accepted as well
    raw = list(sys.argv[1:] if argv is None else argv)
    if "--seed-examples" in raw:
        raw[raw.index("--seed-examples")] = "seed-examples"
    parser = build_parser()
    args = parser.parse_args(raw)
    try:
        result = args.func(args)
    except DomainError as exc:
        _write_out(args, {"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    except (OSError, ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        _write_out(args, {"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    _write_out(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
