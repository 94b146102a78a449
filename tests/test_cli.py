"""End-to-end checks of the command-line layer: schemas, exit codes,
byte determinism, and input round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxgamma
from boxgamma.cli import SEED_FILES, emit_json, main, parse_fan
from boxgamma.fan import StackyFan


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("seed")
    code = main(["seed-examples", "--dir", str(d), "--out", str(d / "_manifest.json")])
    assert code == 0
    return d


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    doc = json.loads(out.read_text())
    return code, doc


def test_seed_files_match_manifest(seed_dir):
    manifest = json.loads((seed_dir / "_manifest.json").read_text())
    assert manifest["written"] == sorted(SEED_FILES)
    for name, doc in SEED_FILES.items():
        assert json.loads((seed_dir / name).read_text()) == doc


def test_seed_flag_spelling(tmp_path):
    code = main(["--seed-examples", "--dir", str(tmp_path), "--out", str(tmp_path / "m.json")])
    assert code == 0
    assert (tmp_path / "fan_f1.json").exists()


def test_fan_round_trip():
    fan = parse_fan(SEED_FILES["fan_f1.json"])
    assert fan == StackyFan(
        rank=2,
        rays=((1, 0), (1, 1), (1, 2)),
        max_cones=((0, 1), (1, 2)),
    )


def test_validate_f1(seed_dir, tmp_path):
    code, doc = run_cli(["validate", "--fan", str(seed_dir / "fan_f1.json")], tmp_path)
    assert code == 0
    assert doc["valid"] is True
    assert doc["gkz_eligible"] is True
    assert doc["volume"] == 2
    assert doc["deg"] == ["1", "0"]
    assert doc["violations"] == []


def test_validate_f2(seed_dir, tmp_path):
    code, doc = run_cli(["validate", "--fan", str(seed_dir / "fan_f2.json")], tmp_path)
    assert code == 0
    assert doc["valid"] is True
    assert doc["gkz_eligible"] is False
    assert doc["volume"] == 4
    assert doc["deg"] is None


def test_box_stabilize_schema(seed_dir, tmp_path):
    code, doc = run_cli(
        [
            "box",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--stabilize",
        ],
        tmp_path,
    )
    assert code == 0
    got = {tuple(e["alpha"]) for e in doc["elements"]}
    assert got == {("1/4", "0", "0"), ("0", "1/2", "3/4")}
    by_alpha = {tuple(e["alpha"]): e for e in doc["elements"]}
    assert by_alpha[("0", "1/2", "3/4")]["support"] == [2, 3]
    assert by_alpha[("0", "1/2", "3/4")]["n"] == [1, 2]
    assert doc["beta_delta"] == ["1/4", "0"]
    assert len(doc["triples"]) == 2
    for t in doc["triples"]:
        assert set(t) == {"source", "target", "point"}


def test_kring_f2_multiplicities(seed_dir, tmp_path):
    zero = tmp_path / "beta_zero.json"
    zero.write_text('{"beta": ["0", "0"]}')
    code, doc = run_cli(
        ["kring", "--fan", str(seed_dir / "fan_f2.json"), "--beta", str(zero)],
        tmp_path,
    )
    assert code == 0
    mults = sorted(p["multiplicity"] for p in doc["points"])
    assert mults == [1, 3]
    assert doc["semisimple"] is False
    assert len(doc["walls"]) >= 1
    for w in doc["walls"]:
        assert all(isinstance(c, int) for c in w["difference"])
        assert all(1 <= i <= 3 for i in w["first_cone"] + w["second_cone"])


def test_kring_generic_semisimple(seed_dir, tmp_path):
    code, doc = run_cli(
        [
            "kring",
            "--fan", str(seed_dir / "fan_f2.json"),
            "--beta", str(seed_dir / "beta_f2.json"),
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["semisimple"] is True
    assert len(doc["points"]) == 4
    for p in doc["points"]:
        assert all(len(pair) == 2 for pair in p["y"])


def test_cohomology_dims(seed_dir, tmp_path):
    for fan, beta in [("fan_f1", "beta_f1"), ("fan_square", "beta_square")]:
        code, doc = run_cli(
            [
                "cohomology",
                "--fan", str(seed_dir / f"{fan}.json"),
                "--beta", str(seed_dir / f"{beta}.json"),
            ],
            tmp_path,
        )
        assert code == 0
        assert doc["dim"] == doc["volume"] == 2
        assert sum(s["dim"] for s in doc["summands"]) == doc["dim"]
        assert len(doc["basis"]) == doc["dim"]


def test_cohomology_shadow_flag(seed_dir, tmp_path):
    xi = tmp_path / "xi.json"
    xi.write_text('{"xi": ["1/4", "0"]}')
    code, doc = run_cli(
        [
            "cohomology",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--shadow", str(xi),
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["dim"] == 2


def test_gkz_solve_schema(seed_dir, tmp_path):
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "10",
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["rank"] == doc["dim"] == 2
    assert doc["rank_deficient"] is False
    assert doc["gap"] == "infinity"
    assert len(doc["vs"]) == len(doc["matrix"]) == 9
    for row in doc["matrix"]:
        assert len(row) == 2
        for z in row:
            assert len(z) == 2
    assert doc["tail_estimate"] > 0


def test_gkz_verify_passes(seed_dir, tmp_path):
    code, doc = run_cli(
        [
            "gkz-verify",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "10",
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["euler_exact"] is True
    assert doc["term_shift_ok"] is True
    assert doc["max_residual"] <= doc["residual_tolerance"]


def test_complex_beta_and_arg_offsets(seed_dir, tmp_path):
    beta = tmp_path / "beta_cx.json"
    beta.write_text('{"beta": ["1/3+1/7i", {"re": "1/5", "im": 0}]}')
    x = tmp_path / "x_off.json"
    x.write_text(
        '{"x": [[1.0, 0.0], [10.0, 0.0], [1.0, 0.0]],'
        ' "arg_offsets": [0.0, 6.283185307179586, 0.0]}'
    )
    code, doc = run_cli(
        ["box", "--fan", str(seed_dir / "fan_f1.json"), "--beta", str(beta)],
        tmp_path,
    )
    assert code == 0
    assert any("i" in a for e in doc["elements"] for a in e["alpha"])
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(beta),
            "--x", str(x),
            "--bound", "8",
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["rank"] == 2


def test_domain_error_exit_1(seed_dir, tmp_path):
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f2.json"),
            "--beta", str(seed_dir / "beta_f2.json"),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 1
    assert doc["error"]["type"] == "InvalidFan"
    assert doc["error"]["message"]



def test_shadow_not_submodule_exit_1(tmp_path):
    # three quadrants: the shadow direction (1, 0) leaves the support at (0, -1)
    fan = tmp_path / "fan.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],'
                   ' "max_cones": [[1, 2], [2, 3], [3, 4]]}')
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["0", "0"]}')
    xi = tmp_path / "xi.json"
    xi.write_text('{"xi": ["1", "0"]}')
    code, doc = run_cli(
        ["cohomology", "--fan", str(fan), "--beta", str(beta), "--shadow", str(xi)], tmp_path
    )
    assert code == 1
    assert doc["error"]["type"] == "ShadowNotSubmodule"
    assert doc["error"]["message"].startswith("quotient: ")


@pytest.mark.parametrize("command", ["box", "cohomology"])
def test_low_dimensional_cone_is_named_by_file_index(command, tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[1]]}')
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["1/3", "1/5"]}')
    code, doc = run_cli([command, "--fan", str(fan), "--beta", str(beta)], tmp_path)
    assert code == 1
    assert doc["error"] == {
        "type": "NotFullDimensional",
        "message": "box: cone (1,) is not full-dimensional in rank 2",
    }


def test_dependent_cone_is_named_by_file_index(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [2, 0], [1, 2]], "max_cones": [[1, 2], [2, 3]]}')
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["1/3", "1/5"]}')
    code, doc = run_cli(["kring", "--fan", str(fan), "--beta", str(beta)], tmp_path)
    assert code == 1
    assert doc["error"] == {
        "type": "NotFullDimensional",
        "message": "box: generators of cone (1, 2) are linearly dependent",
    }


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_cli(["validate", "--fan", str(bad)], tmp_path)
    assert code == 2
    assert doc["error"]["type"] == "JSONDecodeError"


def test_missing_file_exit_2(tmp_path):
    code, doc = run_cli(["validate", "--fan", str(tmp_path / "absent.json")], tmp_path)
    assert code == 2


def test_wrong_length_beta_exit_2(seed_dir, tmp_path):
    beta = tmp_path / "beta_short.json"
    beta.write_text('{"beta": ["1/4"]}')
    code, doc = run_cli(
        ["box", "--fan", str(seed_dir / "fan_f1.json"), "--beta", str(beta)],
        tmp_path,
    )
    assert code == 2
    assert doc["error"]["type"] == "ValueError"


def test_cone_index_out_of_range_exit_2(tmp_path):
    fan = tmp_path / "fan_bad.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [1, 1]], "max_cones": [[1, 5]]}')
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path)
    assert code == 2


def test_output_ends_with_newline(seed_dir, tmp_path):
    out = tmp_path / "nl.json"
    main(["validate", "--fan", str(seed_dir / "fan_f1.json"), "--out", str(out)])
    assert out.read_bytes().endswith(b"\n")


def test_emit_json_formats():
    assert emit_json({"a": 0.1}) == '{"a": 0.10000000000000001}'
    assert emit_json([True, False, None, 3]) == "[true, false, null, 3]"
    assert json.loads(emit_json({"x": 1.0 / 3.0}))["x"] == 1.0 / 3.0
    with pytest.raises(ValueError):
        emit_json(float("nan"))


def test_byte_determinism_all_commands(seed_dir, tmp_path):
    cases = [
        ["validate", "--fan", str(seed_dir / "fan_f1.json")],
        [
            "box",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--stabilize",
        ],
        [
            "cohomology",
            "--fan", str(seed_dir / "fan_square.json"),
            "--beta", str(seed_dir / "beta_square.json"),
        ],
        [
            "kring",
            "--fan", str(seed_dir / "fan_f2.json"),
            "--beta", str(seed_dir / "beta_f2.json"),
        ],
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "10",
        ],
        [
            "gkz-verify",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "8",
        ],
    ]
    for i, args in enumerate(cases):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_console_invocation(seed_dir):
    proc = subprocess.run(
        [
            sys.executable, "-m", "boxgamma.cli",
            "validate", "--fan", str(seed_dir / "fan_f1.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["volume"] == 2


def test_missing_base_element_exit_1(seed_dir, tmp_path):
    beta = tmp_path / "beta_outside.json"
    beta.write_text(json.dumps({"beta": ["-3", "0"]}))
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(beta),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 1
    assert doc["error"]["type"] == "NoBaseElement"
    assert doc["error"]["message"].startswith("series: ")


def test_runs_without_numpy(tmp_path):
    """The library imports and solves with numpy blocked: the gkz-solve pin
    is reproduced byte for byte, and importing boxgamma loads no numpy."""
    golden = Path(__file__).parent / "data" / "cli_golden"
    case = next(
        c for c in json.loads((golden / "manifest.json").read_text())
        if c["name"] == "gkz_solve_square_b12"
    )
    argv = [a.replace("{dir}", str(tmp_path)) for a in case["args"]]
    script = (
        "import sys\n"
        "import boxgamma\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.modules['numpy'] = None\n"
        "from boxgamma.cli import main\n"
        f"assert main(['seed-examples', '--dir', {str(tmp_path)!r}, '--out', {str(tmp_path / 'm.json')!r}]) == 0\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(boxgamma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == case["exit"] == 0, proc.stderr.decode()
    assert proc.stdout == (golden / "gkz_solve_square_b12.json").read_bytes()
