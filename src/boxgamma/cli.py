"""Command-line front end: JSON in, deterministic JSON out.

All file indices are 1-based to match the usual v_1..v_k numbering; exact
rationals travel as "p/q" strings, Gaussian rationals as "p/q+r/si" strings
on output (objects {"re": .., "im": ..} are also accepted on input), complex
floats as [re, im] pairs printed with 17 significant digits.  Output key
order is fixed by construction, so identical inputs give byte-identical
bytes.

The stage modules (box, quotient, kring, gkz) are imported inside the
commands that run them: a short command's time is mostly interpreter start
and import, so each command loads only its own stages.

Exit codes: 0 success, 1 domain error, 2 usage, I/O, or parse error, 3
internal fault; each failure prints a machine-readable error object.
"""

import argparse
import json
import math
import os
import sys

from .errors import DomainError
from .fan import StackyFan, validate
from .linalg import _integral, _real_pair, as_sequence, format_gaussian, format_rational, read_exact, read_param


def emit_json(obj) -> str:
    """Canonical serialization: insertion-order keys, %.17g floats."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out) -> None:
    if obj is None or isinstance(obj, (bool, str)):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float has no JSON number form")
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for pos, (key, val) in enumerate(obj.items()):
            out.append(f"{', ' if pos else ''}{json.dumps(key)}: ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, val in enumerate(obj):
            out.append(", " if pos else "")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def ser_complex(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _field(doc, key: str, stage: str):
    """doc[key]; ValueError names a field the input file lacks."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f'{stage}: the input file has no "{key}" field')
    return doc[key]


def parse_fan(doc) -> StackyFan:
    # read before the shift to 0-based indices, so an error shows the file's entry
    cones = as_sequence(_field(doc, "max_cones", "fan"), "fan", "max_cones")
    cones = [read_exact(c, _integral, "fan", f"cone {r}") for r, c in enumerate(cones, 1)]
    return StackyFan(
        rank=_field(doc, "rank", "fan"),
        rays=_field(doc, "rays", "fan"),
        max_cones=tuple(tuple(i - 1 for i in cone) for cone in cones),
        deg=doc.get("deg"),
    )


def _fan_beta(args):
    fan = parse_fan(_load(args.fan))
    return fan, read_param(_field(_load(args.beta), "beta", "box"), "box", "beta", fan.rank)


def parse_x(doc):
    """The point x, each coordinate an [re, im] pair of finite real numbers,
    and the optional arg_offsets as given; the library checks both lengths
    and reads the offsets."""
    return read_exact(_field(doc, "x", "series"), _real_pair, "series", "x"), doc.get("arg_offsets")


def ser_box_element(elem) -> dict:
    return {
        "alpha": [format_gaussian(a) for a in elem.alpha],
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
    from .box import box_of_fan, stabilize

    fan, beta = _fan_beta(args)
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
    from .box import stabilize
    from .quotient import ModuleSpec, build_quotient

    fan, beta = _fan_beta(args)
    xi = _field(_load(args.shadow), "xi", "quotient") if args.shadow else None
    q = build_quotient(ModuleSpec(fan, stabilize(fan, beta).beta_delta, xi))
    return {
        "dim": q.dim,
        "volume": validate(fan).volume,
        "summands": [
            {"alpha": [format_gaussian(a) for a in be.alpha], "dim": dim}
            for be, dim in zip(q.alphas, q.dims)
        ],
        "basis": [
            {
                "degree": elem.degree,
                "n": list(elem.lattice_point),
                "alpha": [format_gaussian(a) for a in elem.alpha],
                "monomial": list(elem.monomial),
            }
            for elem in q.basis
        ],
    }


def cmd_kring(args):
    from .kring import is_semisimple, spectrum, wall_report

    fan, beta = _fan_beta(args)
    points = spectrum(fan, beta)
    walls = wall_report(fan, beta)
    return {
        "points": [
            {
                "exponents": [format_gaussian(a) for a in p.alpha_class.alpha],
                "y": [ser_complex(y) for y in p.y],
                "multiplicity": p.multiplicity,
            }
            for p in points
        ],
        "semisimple": is_semisimple(fan, beta),
        "walls": [
            {
                "alpha": [format_gaussian(a) for a in w.alpha],
                "first_cone": [i + 1 for i in w.first.cone],
                "second_cone": [i + 1 for i in w.second.cone],
                "difference": list(w.difference),
            }
            for w in walls
        ],
    }


def _solve(args):
    """The instance, x, its offsets and the solution system.  build_gkz runs
    before x is read, so an ineligible fan fails first."""
    from .gkz import build_gkz, solution_system

    instance = build_gkz(*_fan_beta(args))
    xs, offs = parse_x(_load(args.x))
    system = solution_system(instance, xs, args.bound, args.vcap, arg_offsets=offs)
    return instance, xs, offs, system


def cmd_gkz_solve(args):
    instance, _xs, _offs, system = _solve(args)
    return {
        "vs": [list(v) for v in system.vs],
        "matrix": [[ser_complex(z) for z in row] for row in system.matrix],
        "rank": system.rank,
        "dim": instance.quotient.dim,
        "rank_deficient": system.rank_deficient,
        "singular_values": [float(s) for s in system.singular_values],
        "gap": "infinity" if system.gap else 0.0,
        "tail_estimate": float(system.tail_estimate),
    }


def cmd_gkz_verify(args):
    from .gkz import gamma_series, gamma_series_derivative, verify_euler, verify_term_shift

    instance, xs, offs, system = _solve(args)
    fan = instance.fan
    shifts_ok, boundary_terms, max_residual = True, 0, 0.0
    for v in system.vs:
        for j in sorted(fan.fan_indices()):
            rep = verify_term_shift(instance, v, j, args.bound)
            shifts_ok = shifts_ok and rep.ok
            boundary_terms += rep.boundary_count
            deriv = gamma_series_derivative(instance, v, xs, args.bound, j, arg_offsets=offs)
            v2 = tuple(a + b for a, b in zip(v, fan.rays[j]))
            shifted = gamma_series(instance, v2, xs, args.bound, arg_offsets=offs)
            for a, b in zip(deriv.value, shifted.value):
                max_residual = max(max_residual, abs(a - b))
    euler_ok = verify_euler(instance)
    tol = max(1e-8, 10.0 * system.tail_estimate)
    passed = euler_ok and shifts_ok and max_residual <= tol and not system.rank_deficient
    return {
        "euler_exact": euler_ok,
        "term_shift_ok": shifts_ok,
        "boundary_terms": boundary_terms,
        "max_residual": max_residual,
        "residual_tolerance": tol,
        "rank": system.rank,
        "dim": instance.quotient.dim,
        "rank_deficient": system.rank_deficient,
        "gap": "infinity" if system.gap else 0.0,
        "tail_estimate": float(system.tail_estimate),
        "passed": passed,
    }


SEED_FILES = {
    "fan_f1.json": {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "max_cones": [[1, 2], [2, 3]]},
    "fan_f2.json": {"rank": 2, "rays": [[1, 0], [0, 1], [-2, -1]], "max_cones": [[1, 2], [2, 3], [1, 3]]},
    "fan_square.json": {
        "rank": 3, "rays": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]], "max_cones": [[1, 2, 4], [1, 3, 4]],
    },
    "beta_f1.json": {"beta": ["1/4", "0"]},
    "beta_f2.json": {"beta": ["1/3", "1/5"]},
    "beta_square.json": {"beta": ["1/3", "1/7", "1/11"]},
    "x_f1.json": {"x": [[1.0, 0.0], [10.0, 0.0], [1.0, 0.0]]},
    "x_square.json": {"x": [[1.0, 0.0], [0.1, 0.0], [0.1, 0.0], [1.0, 0.0]]},
}


def cmd_seed_examples(args):
    os.makedirs(args.dir, exist_ok=True)
    for name in sorted(SEED_FILES):
        with open(os.path.join(args.dir, name), "w") as fh:
            fh.write(emit_json(SEED_FILES[name]) + "\n")
    return {"written": sorted(SEED_FILES)}


# (name, option group, handler, help); each group holds the options of the
# groups before it: out, then fan, beta and x (with --bound and --vcap)
_COMMANDS = (
    ("validate", "fan", cmd_validate, "check a fan file and report eligibility"),
    ("box", "beta", cmd_box, "solve for the box set at a parameter"),
    ("cohomology", "beta", cmd_cohomology, "graded quotient dimensions and basis"),
    ("kring", "beta", cmd_kring, "ring spectrum points, multiplicities, walls"),
    ("gkz-solve", "x", cmd_gkz_solve, "evaluate the truncated series system"),
    ("gkz-verify", "x", cmd_gkz_verify, "run the solver invariant suite"),
    ("seed-examples", "out", cmd_seed_examples, "write the bundled example inputs"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxgamma",
        description="Exact computations on stacky fans: box sets, graded "
        "quotients, ring spectra, and truncated series solutions.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output JSON to this file instead of stdout")
    fan = argparse.ArgumentParser(add_help=False, parents=[out])
    fan.add_argument("--fan", required=True)
    beta = argparse.ArgumentParser(add_help=False, parents=[fan])
    beta.add_argument("--beta", required=True)
    x = argparse.ArgumentParser(add_help=False, parents=[beta])
    x.add_argument("--x", required=True)
    x.add_argument("--bound", type=int, required=True)
    x.add_argument("--vcap", type=int, default=2)
    groups = {"out": out, "fan": fan, "beta": beta, "x": x}
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, group, func, text in _COMMANDS:
        cmds[name] = sub.add_parser(name, help=text, parents=[groups[group]])
        cmds[name].set_defaults(func=func)
    cmds["box"].add_argument("--stabilize", action="store_true")
    cmds["cohomology"].add_argument("--shadow", help="JSON file with a direction vector xi")
    cmds["seed-examples"].add_argument("--dir", default=".")
    return parser


def _write_out(path, obj) -> None:
    text = emit_json(obj) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    # the flag spelling of seed-examples is accepted as well
    raw = list(sys.argv[1:] if argv is None else argv)
    if "--seed-examples" in raw:
        raw[raw.index("--seed-examples")] = "seed-examples"
    args = build_parser().parse_args(raw)
    try:
        result, code = args.func(args), 0
    except Exception as exc:  # 1: a domain error; 2: a usage, I/O or parse error; 3: an internal fault
        code = 1 if isinstance(exc, DomainError) else 2 if isinstance(exc, (OSError, ValueError)) else 3
        result = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    try:
        _write_out(args.out, result)
    except OSError as exc:  # an --out file that cannot be written: the error goes to stdout
        _write_out(None, {"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
