"""Regenerate the pinned outputs: cli_golden/, series_golden.json and
shadow_quotient_golden.json.

Run manually, from the repository root, against the library version whose
outputs are to be pinned:

    PYTHONPATH=src python3 tests/data/generate_pinned_outputs.py

cli_golden/ holds the exact stdout bytes and exit code of every command on
the bundled seed examples (manifest.json lists the argument vectors, with
"{dir}" standing for the directory seed-examples wrote).  series_golden.json
holds the repr of gamma_series, gamma_series_derivative and solution_system
results on F1 and SQUARE for zero, rational and Gaussian beta at two points,
one with argument offsets; repr of a float round-trips, so equal reprs mean
bit-identical values.  shadow_quotient_golden.json holds, per (fan, chi, xi),
the SHA-256 of the repr of build_quotient's (basis, summand_dims, dmats) with
the quotient's dimension, or the DomainError's type and text; a digest, as
the repr reaches 260 kB on simplex3x3.  test_pinned_outputs.py replays all
three.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import tempfile
from fractions import Fraction

from boxgamma.box import stabilize
from boxgamma.cli import main as cli_main
from boxgamma.errors import DomainError
from boxgamma.fan import StackyFan, triangulate_from_heights
from boxgamma.gkz import build_gkz, gamma_series, gamma_series_derivative, solution_system
from boxgamma.linalg import format_rational, parse_gaussian, parse_rational
from boxgamma.quotient import ModuleSpec, build_quotient, graded_piece

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_DIR = os.path.join(HERE, "cli_golden")
SERIES_PATH = os.path.join(HERE, "series_golden.json")
SHADOW_PATH = os.path.join(HERE, "shadow_quotient_golden.json")

PAIRS = (("f1", "beta_f1"), ("f2", "beta_f2"), ("square", "beta_square"))
SERIES_BOUNDS = (12, 15)
SERIES_FANS = (("f1", "x_f1"), ("square", "x_square"))


def cli_cases():
    """(name, argv) for every command on the seed examples."""
    d = "{dir}"
    cases = [("seed_examples", ["seed-examples", "--dir", d])]
    for fan, beta in PAIRS:
        fan_args = ["--fan", f"{d}/fan_{fan}.json"]
        beta_args = ["--beta", f"{d}/{beta}.json"]
        cases += [
            (f"validate_{fan}", ["validate", *fan_args]),
            (f"box_{fan}", ["box", *fan_args, *beta_args]),
            (f"box_stabilize_{fan}", ["box", *fan_args, *beta_args, "--stabilize"]),
            (f"cohomology_{fan}", ["cohomology", *fan_args, *beta_args]),
            (f"kring_{fan}", ["kring", *fan_args, *beta_args]),
        ]
    for fan, x in SERIES_FANS:
        beta = dict(PAIRS)[fan]
        for cmd in ("gkz-solve", "gkz-verify"):
            for bound in SERIES_BOUNDS:
                cases.append((
                    f"{cmd.replace('-', '_')}_{fan}_b{bound}",
                    [
                        cmd,
                        "--fan", f"{d}/fan_{fan}.json",
                        "--beta", f"{d}/{beta}.json",
                        "--x", f"{d}/{x}.json",
                        "--bound", str(bound),
                        "--vcap", "2",
                    ],
                ))
    # an ineligible fan: the domain-error document
    cases.append((
        "gkz_solve_f2_ineligible",
        [
            "gkz-solve",
            "--fan", f"{d}/fan_f2.json",
            "--beta", f"{d}/beta_f2.json",
            "--x", f"{d}/x_f1.json",
            "--bound", "5",
        ],
    ))
    return cases


def run_cli(argv):
    """Exit code and stdout text of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


F1 = {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "max_cones": [[0, 1], [1, 2]]}
_SQ = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))
SQUARE = {
    "rank": 3,
    "rays": [list(r) for r in _SQ.rays],
    "max_cones": [list(c) for c in _SQ.max_cones],
}
TWO_PI = 2 * math.pi

# (name, fan, {beta kind: beta}, [(x, arg_offsets)], B)
SERIES_CONFIGS = (
    (
        "F1",
        F1,
        {"zero": ["0", "0"], "rational": ["1/4", "0"], "gaussian": ["1/3+1/7i", "1/5"]},
        [
            ([[1.0, 0.0], [10.0, 0.0], [1.0, 0.0]], None),
            ([[0.75, 0.25], [8.0, -1.5], [1.25, 0.0]], [0.0, TWO_PI, -TWO_PI]),
        ],
        10,
    ),
    (
        "SQUARE",
        SQUARE,
        {
            "zero": ["0", "0", "0"],
            "rational": ["1/3", "1/7", "1/11"],
            "gaussian": ["1/3+1/5i", "1/7", "-1/11i"],
        },
        [
            ([[1.0, 0.0], [0.1, 0.0], [0.1, 0.0], [1.0, 0.0]], None),
            ([[0.9, 0.1], [0.12, 0.01], [0.08, -0.02], [1.1, 0.0]], [0.0, 0.0, TWO_PI, 0.0]),
        ],
        10,
    ),
)


def series_calls(fan, B):
    """The (kind, args) calls pinned per instance and point: the series at
    every v of degree <= 1, the derivative at every such v and ray j, and the
    solution system with degree cap 1."""
    spec0 = ModuleSpec(fan, tuple(Fraction(0) for _ in range(fan.rank)))
    vs = [v for m in range(2) for v in graded_piece(spec0, m).points]
    calls = [("gamma_series", (list(v), B)) for v in vs]
    calls += [
        ("gamma_series_derivative", (list(v), B, j))
        for v in vs
        for j in sorted(fan.fan_indices())
    ]
    calls.append(("solution_system", (B, 1)))
    return calls


def evaluate(instance, x, offsets, kind, args):
    """repr of one pinned call."""
    if kind == "gamma_series":
        v, B = args
        return repr(gamma_series(instance, v, x, B, arg_offsets=offsets))
    if kind == "gamma_series_derivative":
        v, B, j = args
        return repr(gamma_series_derivative(instance, v, x, B, j, arg_offsets=offsets))
    B, cap = args
    return repr(solution_system(instance, x, B, cap, arg_offsets=offsets))


def parse_fan(doc):
    return StackyFan(
        rank=doc["rank"],
        rays=tuple(map(tuple, doc["rays"])),
        max_cones=tuple(map(tuple, doc["max_cones"])),
        deg=doc.get("deg"),
    )


def _cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101, as in bench/ladder.py."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


def _simplex_points(dim, side):
    return [p for p in itertools.product(range(side + 1), repeat=dim) if sum(p) <= side]


def _doc(fan):
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
        "deg": None if fan.deg is None else list(fan.deg),
    }


# (name, fan, [beta], [(chi, xi)]): each beta gives build_gkz's spec, chi its
# stabilization's beta_delta and xi = Re beta; the pairs have xi != Re beta
SHADOW_CONFIGS = (
    (
        "F1",
        StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)), deg=(1, 0)),
        [["0", "0"], ["1/4", "0"], ["1/3+1/7i", "1/5"], ["-2/7", "5/3-1/2i"]],
        [(["1/4", "0"], ["0", "1"]), (["1", "1"], ["1", "-1/2"]), (["2/5", "1/3"], ["-1", "0"])],
    ),
    (
        "SQUARE",
        _SQ,
        [["0", "0", "0"], ["1/3", "1/7", "1/11"], ["1/3+1/5i", "1/7", "-1/11i"]],
        [(["1/3", "1/7", "1/11"], ["1", "-1", "0"]), (["1", "0", "1"], ["0", "1/2", "-1"])],
    ),
    (
        "HEX5",
        _cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))),
        [["0", "0", "0"], ["2/7", "3/11", "5/13"], ["1/2-1/3i", "0", "1/5+2/7i"]],
        [(["2/7", "3/11", "5/13"], ["1", "1", "-1"]), (["1", "1", "0"], ["0", "-1", "1"])],
    ),
    (
        "tri2",
        _cone_over(_simplex_points(2, 2)),
        [["0", "0", "0"], ["3/7", "-5/11", "2/13"], ["1/7i", "1/3", "-1/2+1/5i"]],
        [(["3/7", "-5/11", "2/13"], ["1", "-1", "-1"]), (["2", "1", "1"], ["-1", "0", "1"])],
    ),
    (
        "simplex3x2",
        _cone_over(_simplex_points(3, 2)),
        [["0", "0", "0", "0"], ["1/3", "-2/7", "1/5", "3/11"], ["1/2+1/3i", "0", "-1/4i", "1/7"]],
        [(["1/3", "-2/7", "1/5", "3/11"], ["1", "0", "-1", "1"])],
    ),
    (
        "simplex3x3",
        _cone_over(_simplex_points(3, 3)),
        [["0", "0", "0", "0"], ["1/3", "-2/7", "1/5", "3/11"]],
        [(["1/3", "-2/7", "1/5", "3/11"], ["1", "-1", "0", "1"])],
    ),
    (
        # three quadrants: the shadow direction (1, 0) leaves the support at
        # (0, -1), so at chi = 0 it selects no submodule
        "quadrants3",
        StackyFan(
            rank=2,
            rays=((1, 0), (0, 1), (-1, 0), (0, -1)),
            max_cones=((0, 1), (1, 2), (2, 3)),
        ),
        [],
        [(["0", "0"], ["1", "0"]), (["0", "0"], ["0", "1"])],
    ),
)


def shadow_specs(fan, betas, pairs):
    """(chi, xi) as strings for each pinned quotient of one fan."""
    out = []
    for beta in betas:
        b = tuple(parse_gaussian(x) for x in beta)
        chi = stabilize(fan, b).beta_delta
        out.append(([format_rational(c) for c in chi], [format_rational(x.real) for x in b]))
    return out + list(pairs)


def shadow_outcome(fan, chi, xi):
    """The pinned outcome of one shadow quotient: its dimension and the
    SHA-256 of the repr of (basis, summand_dims, dmats), or its error."""
    spec = ModuleSpec(fan, tuple(map(parse_rational, chi)), tuple(map(parse_rational, xi)))
    try:
        q = build_quotient(spec)
    except DomainError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    text = repr((q.basis, dict(q.summand_dims), q.dmats))
    return {"dim": q.dim, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def write_cli_golden() -> None:
    os.makedirs(CLI_DIR, exist_ok=True)
    manifest = []
    with tempfile.TemporaryDirectory() as seed_dir:
        for name, argv in cli_cases():
            code, out = run_cli([a.replace("{dir}", seed_dir) for a in argv])
            with open(os.path.join(CLI_DIR, f"{name}.json"), "w") as fh:
                fh.write(out)
            manifest.append({"name": name, "args": argv, "exit": code})
    with open(os.path.join(CLI_DIR, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def write_series_golden() -> None:
    entries = []
    for name, fan_doc, betas, points, B in SERIES_CONFIGS:
        fan = parse_fan(fan_doc)
        for kind, beta in betas.items():
            # one instance per beta, evaluated at every point in turn
            instance = build_gkz(fan, tuple(parse_gaussian(b) for b in beta))
            for x_pairs, offsets in points:
                x = [complex(re, im) for re, im in x_pairs]
                results = [
                    {"call": call, "args": list(args), "repr": evaluate(instance, x, offsets, call, args)}
                    for call, args in series_calls(instance.fan, B)
                ]
                entries.append({
                    "fan": name,
                    "fan_doc": fan_doc,
                    "beta_kind": kind,
                    "beta": beta,
                    "x": x_pairs,
                    "arg_offsets": offsets,
                    "results": results,
                })
    with open(SERIES_PATH, "w") as fh:
        json.dump({"entries": entries}, fh, indent=1)
        fh.write("\n")


def write_shadow_golden() -> None:
    fans = {}
    entries = []
    for name, fan, betas, pairs in SHADOW_CONFIGS:
        fans[name] = _doc(fan)
        for chi, xi in shadow_specs(fan, betas, pairs):
            entries.append({"fan": name, "chi": chi, "xi": xi, **shadow_outcome(fan, chi, xi)})
    with open(SHADOW_PATH, "w") as fh:
        json.dump({"fans": fans, "entries": entries}, fh, indent=1)
        fh.write("\n")


def main() -> None:
    write_cli_golden()
    write_series_golden()
    write_shadow_golden()
    print(f"wrote {CLI_DIR}, {SERIES_PATH} and {SHADOW_PATH}")


if __name__ == "__main__":
    main()
