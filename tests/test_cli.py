"""End-to-end checks of the command-line layer: schemas, exit codes,
byte determinism, and input round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxgamma
from boxgamma.cli import SEED_FILES, build_parser, emit_json, main, parse_fan
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
    assert doc["error"] == {"type": "ValueError", "message": "box: beta must have 2 coordinates, got 1"}


X_F1 = "[[1.0, 0.0], [10.0, 0.0], [1.0, 0.0]]"


@pytest.mark.parametrize(
    "beta,x,message",
    [
        ('["1/4", "0", "1/5"]', f'{{"x": {X_F1}}}', "box: beta must have 2 coordinates, got 3"),
        (
            '["1/4", "0"]',
            '{"x": [[1.0, 0.0], [10.0, 0.0]]}',
            "series: x must have 3 coordinates, got 2",
        ),
        (
            '["1/4", "0"]',
            f'{{"x": {X_F1}, "arg_offsets": [0.0, 0.0]}}',
            "series: arg_offsets must have 3 coordinates, got 2",
        ),
    ],
    ids=["beta", "x", "arg_offsets"],
)
def test_wrong_length_input_has_the_library_message(seed_dir, tmp_path, beta, x, message):
    (tmp_path / "beta.json").write_text(f'{{"beta": {beta}}}')
    (tmp_path / "x.json").write_text(x)
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(tmp_path / "beta.json"),
            "--x", str(tmp_path / "x.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "command,x,message",
    [
        (
            "gkz-solve",
            '{"x": [[NaN, 0.0], [10.0, 0.0], [1.0, 0.0]]}',
            "series: entry 1 of x is [nan, 0.0], not an [re, im] pair of finite real numbers",
        ),
        (
            "gkz-verify",
            f'{{"x": {X_F1}, "arg_offsets": [Infinity, 0, 0]}}',
            "series: entry 1 of arg_offsets is inf, not a finite real number",
        ),
    ],
    ids=["x", "arg_offsets"],
)
def test_non_finite_x_exit_2(seed_dir, tmp_path, command, x, message):
    """json.load accepts NaN and Infinity; the series stage names them before
    the SVD sees a non-finite matrix."""
    (tmp_path / "x.json").write_text(x)
    code, doc = run_cli(
        [
            command,
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(tmp_path / "x.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "x,message",
    [
        (
            '{"x": [["a", 0.0], [10.0, 0.0], [1.0, 0.0]]}',
            "series: entry 1 of x is ['a', 0.0], not an [re, im] pair of finite real numbers",
        ),
        (
            f'{{"x": {X_F1}, "arg_offsets": ["a", 0, 0]}}',
            "series: entry 1 of arg_offsets is 'a', not a finite real number",
        ),
        (
            f'{{"x": {X_F1}, "arg_offsets": ["1", 0, 0]}}',
            "series: entry 1 of arg_offsets is '1', not a finite real number",
        ),
        (
            '{"x": [[true, 0], [10.0, false], [1.0, 0.0]]}',
            "series: entry 1 of x is [True, 0], not an [re, im] pair of finite real numbers",
        ),
        (
            f'{{"x": {X_F1}, "arg_offsets": [true, 0, 0]}}',
            "series: entry 1 of arg_offsets is True, not a finite real number",
        ),
    ],
    ids=["x", "arg_offsets", "string_offset", "bool_x", "bool_offset"],
)
def test_entry_that_is_no_real_number_exit_2(seed_dir, tmp_path, x, message):
    """An entry of x or arg_offsets that is no real number, a numeric
    string and a bool included, is named with its field as the library
    names it."""
    (tmp_path / "x.json").write_text(x)
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(tmp_path / "x.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "x,message",
    [
        (
            "[[1.0, 0.0], [1.0], [1.0, 0.0]]",
            "series: entry 2 of x is [1.0], not an [re, im] pair of finite real numbers",
        ),
        (
            "[[1.0, 0.0], [10.0, 0.0], [1.0, 0.0, 7.0]]",
            "series: entry 3 of x is [1.0, 0.0, 7.0], not an [re, im] pair of finite real numbers",
        ),
    ],
    ids=["short", "long"],
)
def test_x_coordinate_not_a_pair_exit_2(seed_dir, tmp_path, x, message):
    (tmp_path / "x.json").write_text(f'{{"x": {x}}}')
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(tmp_path / "x.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "beta,x,message",
    [
        ("5", f'{{"x": {X_F1}}}', "box: beta is 5, not a sequence"),
        ('["1/4", "0"]', '{"x": 3}', "series: x is 3, not a sequence"),
        ('["1/4", "0"]', f'{{"x": {X_F1}, "arg_offsets": 5}}', "series: arg_offsets is 5, not a sequence"),
    ],
    ids=["beta", "x", "arg_offsets"],
)
def test_input_that_is_no_sequence_exit_2(seed_dir, tmp_path, beta, x, message):
    """A number where a vector belongs is named with its field, as a string is."""
    (tmp_path / "beta.json").write_text(f'{{"beta": {beta}}}')
    (tmp_path / "x.json").write_text(x)
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(tmp_path / "beta.json"),
            "--x", str(tmp_path / "x.json"),
            "--bound", "4",
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


FAN_BETA =["--fan", "f.json", "--beta", "b.json"]
SOLVE = [*FAN_BETA, "--x", "x.json", "--bound", "4"]


@pytest.mark.parametrize(
    "argv,options",
    [
        (["validate", "--fan", "f.json"], {"out": None, "fan": "f.json"}),
        (["box", *FAN_BETA], {"out": None, "fan": "f.json", "beta": "b.json", "stabilize": False}),
        (
            ["box", *FAN_BETA, "--stabilize", "--out", "o.json"],
            {"out": "o.json", "fan": "f.json", "beta": "b.json", "stabilize": True},
        ),
        (
            ["cohomology", *FAN_BETA],
            {"out": None, "fan": "f.json", "beta": "b.json", "shadow": None},
        ),
        (
            ["cohomology", *FAN_BETA, "--shadow", "s.json"],
            {"out": None, "fan": "f.json", "beta": "b.json", "shadow": "s.json"},
        ),
        (["kring", *FAN_BETA], {"out": None, "fan": "f.json", "beta": "b.json"}),
        (
            ["gkz-solve", *SOLVE],
            {"out": None, "fan": "f.json", "beta": "b.json", "x": "x.json", "bound": 4, "vcap": 2},
        ),
        (
            ["gkz-verify", *SOLVE, "--vcap", "1"],
            {"out": None, "fan": "f.json", "beta": "b.json", "x": "x.json", "bound": 4, "vcap": 1},
        ),
        (["seed-examples"], {"out": None, "dir": "."}),
        (["seed-examples", "--dir", "d", "--out", "o.json"], {"out": "o.json", "dir": "d"}),
    ],
)
def test_option_table(argv, options):
    """Each command's options, defaults and handler, as the parser builds them."""
    args = vars(build_parser().parse_args(argv))
    assert args.pop("func").__name__ == "cmd_" + argv[0].replace("-", "_")
    assert args == {"command": argv[0], **options}


@pytest.mark.parametrize(
    "command",
    ["validate", "box", "cohomology", "kring", "gkz-solve", "gkz-verify", "seed-examples"],
)
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: boxgamma {command} [-h] [--out OUT]")


def test_ineligible_fan_fails_before_x_is_read(seed_dir, tmp_path):
    """build_gkz runs before the --x file is opened: F2 exits 1 even with no
    x file, where reading x first would exit 2 on the missing file."""
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f2.json"),
            "--beta", str(seed_dir / "beta_f2.json"),
            "--x", str(tmp_path / "missing.json"),
            "--bound", "5",
        ],
        tmp_path,
    )
    assert code == 1
    assert doc["error"]["type"] == "InvalidFan"


def test_negative_degree_cap_exit_2(seed_dir, tmp_path):
    """--vcap -1 would leave no index point: an empty system, not a result."""
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "4",
            "--vcap", "-1",
        ],
        tmp_path,
    )
    assert code == 2
    assert doc == {
        "error": {
            "type": "ValueError",
            "message": "solution_system: v_degree_cap is -1, not a nonnegative integer",
        }
    }


def test_cone_index_out_of_range_exit_2(seed_dir, tmp_path):
    """The fan's construction refuses an index past the markers, or the
    file's 0, naming the entry by its position: the value it reads is
    shifted to 0-based."""
    fan = tmp_path / "fan_bad.json"
    beta = seed_dir / "beta_f1.json"
    for cones, message in (
        ([[1, 5]], "fan: entry 2 of cone 1 is out of range for 2 markers"),
        ([[1, 2], [0, 1]], "fan: entry 1 of cone 2 is out of range for 2 markers"),
    ):
        fan.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 1]], "max_cones": cones}))
        for args in (["validate"], ["box", "--beta", str(beta)]):
            code, doc = run_cli([*args, "--fan", str(fan)], tmp_path)
            assert code == 2
            assert doc["error"] == {"type": "ValueError", "message": message}


def test_ray_that_is_no_sequence_has_the_library_message(tmp_path):
    """The rays reach the library's reader as the file has them."""
    fan = tmp_path / "fan_bad.json"
    fan.write_text('{"rank": 2, "rays": [1, [0, 1]], "max_cones": [[1, 2]]}')
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path)
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": "fan: ray 1 is 1, not a sequence"}


@pytest.mark.parametrize(
    "command,name,doc,message",
    [
        ("validate", "fan", '{"rays": [[1, 0]], "max_cones": [[1]]}', 'fan: the input file has no "rank" field'),
        ("validate", "fan", '{"rank": 2, "max_cones": [[1]]}', 'fan: the input file has no "rays" field'),
        ("validate", "fan", '{"rank": 2, "rays": [[1, 0]]}', 'fan: the input file has no "max_cones" field'),
        ("validate", "fan", "[2]", 'fan: the input file has no "max_cones" field'),
        ("box", "beta", '{"b": ["0", "0"]}', 'box: the input file has no "beta" field'),
        ("cohomology", "shadow", '{"x": ["1/4", "0"]}', 'quotient: the input file has no "xi" field'),
        ("gkz-solve", "x", '{"xs": [[1, 0], [10, 0], [1, 0]]}', 'series: the input file has no "x" field'),
    ],
    ids=["rank", "rays", "max_cones", "no-object", "beta", "xi", "x"],
)
def test_missing_field_is_named_exit_2(seed_dir, tmp_path, command, name, doc, message):
    """Each printed only the bare KeyError text before, as 'beta'."""
    path = tmp_path / f"{name}.json"
    path.write_text(doc)
    files = {"fan": seed_dir / "fan_f1.json", "beta": seed_dir / "beta_f1.json", name: path}
    args = [command, "--fan", str(files["fan"])]
    if command != "validate":
        args += ["--beta", str(files["beta"])]
    if command == "cohomology":
        args += ["--shadow", str(path)]
    if command == "gkz-solve":
        args += ["--x", str(path), "--bound", "4"]
    code, out = run_cli(args, tmp_path)
    assert code == 2
    assert out["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("cones", [[[1, 2], []], [[], [1, 2]]])
def test_empty_maximal_cone_is_reported(tmp_path, cones):
    """The zero cone is valid and reported as [[1]] is; box refuses it."""
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": cones}))
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path)
    assert code == 0
    assert (doc["valid"], doc["volume"], doc["violations"]) == (True, None, [])
    assert doc["gkz_notes"] == ["maximal cones are not all full-dimensional"]
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["1/3", "1/5"]}')
    code, doc = run_cli(["box", "--fan", str(fan), "--beta", str(beta)], tmp_path)
    assert code == 1
    assert doc["error"] == {
        "type": "NotFullDimensional",
        "message": "box: cone () is not full-dimensional in rank 2",
    }


def test_fan_without_markers_or_cones_is_reported(tmp_path):
    fan = tmp_path / "fan_empty.json"
    fan.write_text('{"rank": 2, "rays": [], "max_cones": []}')
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path)
    assert code == 0
    assert doc["valid"] is False
    assert doc["violations"] == ["no markers", "no maximal cones"]


def test_wrong_length_marker_is_reported(tmp_path):
    """The fan's construction names the ray: a bad shape exits 2 before
    validate reports any axiom."""
    fan = tmp_path / "fan_bad.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [1, 1, 1], [1, 2]], "max_cones": [[1, 2], [2, 3]]}')
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path)
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": "fan: ray 2 must have 2 coordinates, got 3"}


@pytest.mark.parametrize("command", ["box", "cohomology", "kring"])
def test_wrong_length_marker_stops_the_box_stage(tmp_path, command):
    """No stage solves a cone holding the ray: the fan is never built."""
    fan = tmp_path / "fan_bad.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [1, 1, 1], [1, 2]], "max_cones": [[1, 2], [2, 3]]}')
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["0", "0"]}')
    code, doc = run_cli([command, "--fan", str(fan), "--beta", str(beta)], tmp_path)
    assert code == 2
    assert doc == {"error": {"type": "ValueError", "message": "fan: ray 2 must have 2 coordinates, got 3"}}


@pytest.mark.parametrize("command", ["validate", "box", "cohomology", "kring"])
def test_wrong_length_marker_in_no_cone(tmp_path, command):
    """A marker of the wrong length that lies in no cone still has an entry
    in every alpha: the fan's construction refuses it for every command."""
    fan = tmp_path / "fan_bad.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [1, 1], [1, 2, 3]], "max_cones": [[1, 2]]}')
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["0", "0"]}')
    args = [command, "--fan", str(fan)] + ([] if command == "validate" else ["--beta", str(beta)])
    code, doc = run_cli(args, tmp_path)
    assert code == 2
    assert doc == {"error": {"type": "ValueError", "message": "fan: ray 3 must have 2 coordinates, got 3"}}


@pytest.mark.parametrize("command", [["box", "--stabilize"], ["cohomology"], ["kring"], ["box"]])
def test_stabilization_refuses_an_invalid_fan(tmp_path, command):
    """Cones (1, 2) and (2, 3) overlap once ray 3 is (4, 2): the stabilization
    names validate's first violation, and plain box answers per cone."""
    fan = tmp_path / "fan_overlap.json"
    fan.write_text('{"rank": 2, "rays": [[1, 0], [1, 1], [4, 2]], "max_cones": [[1, 2], [2, 3]]}')
    beta = tmp_path / "beta.json"
    beta.write_text('{"beta": ["1/4", "0"]}')
    code, doc = run_cli([*command, "--fan", str(fan), "--beta", str(beta)], tmp_path)
    if command == ["box"]:
        assert code == 0 and doc["elements"]
        return
    assert code == 1
    violation = "cones (1, 2) and (2, 3) do not intersect in a common face"
    message = f"fan: the stabilization needs a valid fan: {violation}"
    assert doc == {"error": {"type": "InvalidFan", "message": message}}


F1_DOC = {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "max_cones": [[1, 2], [2, 3]]}


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("deg", ["3/2", "0"], "fan: entry 1 of deg is '3/2', not an integer"),
        ("rays", [[1, 0], [1.9, 1], [1, 2]], "fan: entry 1 of ray 2 is 1.9, not an integer"),
        ("max_cones", [[1, 2], [2, 1.5]], "fan: entry 2 of cone 2 is 1.5, not an integer"),
        ("rank", 2.5, "fan: rank is 2.5, not a positive integer"),
        ("deg", [1, 0, 5], "fan: deg must have 2 coordinates, got 3"),
        ("rank", 0, "fan: rank is 0, not a positive integer"),
        ("rank", True, "fan: rank is True, not a positive integer"),
    ],
    ids=["deg", "rays", "max_cones", "rank", "deg-length", "rank-0", "rank-bool"],
)
def test_non_integral_fan_entry_exit_2(tmp_path, field, value, message):
    """Each was truncated before: deg ["3/2", "0"] validated as ["1", "0"],
    and deg [1, 0, 5] as eligible, printed as given.  A cone entry is shown
    as the file has it, 1-based."""
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({**F1_DOC, field: value}))
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path)
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


def test_integral_fan_entries_keep_their_meaning(seed_dir, tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rank": 2.0, "rays": [[1.0, 0], [1, 1], [1, 2]],
                               "max_cones": [[1, 2.0], [2, 3]], "deg": ["1", "0/3"]}))
    code, doc = run_cli(["validate", "--fan", str(fan)], tmp_path, "float.json")
    assert code == 0
    assert doc == run_cli(["validate", "--fan", str(seed_dir / "fan_f1.json")], tmp_path)[1]


@pytest.mark.parametrize(
    "beta,xi,message",
    [
        ('[0.5, "0"]', '["1/4", "0"]', "box: entry 1 of beta is 0.5, not a Gaussian rational"),
        ('["1/4", {"re": 1.5}]', '["1/4", "0"]', "box: entry 2 of beta is {'re': 1.5}, not a Gaussian rational"),
        ('["1/4", "0"]', '["1/4", "1/0"]', "quotient: entry 2 of xi is '1/0', not a rational"),
        ('[true, "0"]', '["1/4", "0"]', "box: entry 1 of beta is True, not a Gaussian rational"),
    ],
    ids=["beta-float", "beta-object", "xi", "beta-bool"],
)
def test_inexact_entry_has_the_library_message(seed_dir, tmp_path, beta, xi, message):
    """The JSON entries go to the library unparsed, so its reader names them."""
    (tmp_path / "beta.json").write_text(f'{{"beta": {beta}}}')
    (tmp_path / "xi.json").write_text(f'{{"xi": {xi}}}')
    code, doc = run_cli(
        [
            "cohomology",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(tmp_path / "beta.json"),
            "--shadow", str(tmp_path / "xi.json"),
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("xi,got", [('["1/4"]', 1), ('["1/4", "0", "0"]', 3)])
def test_wrong_length_xi_has_the_library_message(seed_dir, tmp_path, xi, got):
    shadow = tmp_path / "xi.json"
    shadow.write_text(f'{{"xi": {xi}}}')
    code, doc = run_cli(
        [
            "cohomology",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--shadow", str(shadow),
        ],
        tmp_path,
    )
    assert code == 2
    assert doc["error"] == {
        "type": "ValueError",
        "message": f"quotient: xi must have 2 coordinates, got {got}",
    }


def test_output_ends_with_newline(seed_dir, tmp_path):
    out = tmp_path / "nl.json"
    main(["validate", "--fan", str(seed_dir / "fan_f1.json"), "--out", str(out)])
    assert out.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("fan", ["fan_f1.json", "missing.json"])
def test_unwritable_out_exits_2(seed_dir, tmp_path, capsys, fan):
    """An --out path in a missing directory is an I/O error, for a command
    that succeeds and for one that fails: exit 2 and the error object on
    stdout, not a traceback."""
    out = tmp_path / "missing" / "x.json"
    assert main(["validate", "--fan", str(seed_dir / fan), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"type": "FileNotFoundError", "message": f"[Errno 2] No such file or directory: {str(out)!r}"}
    }
    assert not out.parent.exists()


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


def test_series_overflow_exit_1(seed_dir, tmp_path, capsys):
    """x = (1e200, 1, 1e200) on F1: a term's power x^l leaves the float
    range, and stdout holds the error object naming the source box element,
    the offset m and x, with no traceback."""
    x = tmp_path / "x_huge.json"
    x.write_text(json.dumps({"x": [[1e200, 0], [1, 0], [1e200, 0]]}))
    code = main(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(seed_dir / "beta_f1.json"),
            "--x", str(x),
            "--bound", "12",
        ]
    )
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "SeriesOverflow"
    assert error["message"] == (
        "series: x^l overflows for the source box element alpha=(0, 1/2, 3/4) at offset "
        "m=(1, -2, 0) and x=((1e+200+0j), (1+0j), (1e+200+0j))"
    )


@pytest.mark.parametrize("beta,alpha", [("1/3-300i", "2/3-600i"), ("1/3+300i", "2/3-300i")])
def test_phase_overflow_exit_1(seed_dir, tmp_path, beta, alpha):
    """A spectrum coordinate exp(2 pi i alpha) beyond the float range is an
    error object naming the exponent, with no traceback."""
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"beta": [beta, "0"]}))
    code, doc = run_cli(["kring", "--fan", str(seed_dir / "fan_f1.json"), "--beta", str(path)], tmp_path)
    assert code == 1
    assert doc["error"] == {
        "type": "PhaseOverflow",
        "message": f"kring: exp(2 pi i alpha) overflows at alpha={alpha}",
    }


@pytest.mark.parametrize("beta", [["1/3+60i", "0"], ["1/3+10i", "-100i"]], ids=["im+", "im-"])
def test_phase_underflow_exit_1(seed_dir, tmp_path, beta):
    """A spectrum coordinate exp(2 pi i alpha) below the smallest normal
    float is an error object naming the exponent, not a point printed as
    [-0, -0] with exit 0."""
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"beta": beta}))
    code, doc = run_cli(["kring", "--fan", str(seed_dir / "fan_f1.json"), "--beta", str(path)], tmp_path)
    assert code == 1
    assert doc["error"] == {
        "type": "PhaseOverflow",
        "message": "kring: exp(2 pi i alpha) underflows at alpha=2/3+120i",
    }


def test_reciprocal_gamma_overflow_exit_1(seed_dir, tmp_path):
    """beta = (1/3 + 300i, 0) on F1 puts a reciprocal-Gamma jet beyond the
    float range: the error object names its l."""
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"beta": ["1/3+300i", "0"]}))
    code, doc = run_cli(
        [
            "gkz-solve",
            "--fan", str(seed_dir / "fan_f1.json"),
            "--beta", str(path),
            "--x", str(seed_dir / "x_f1.json"),
            "--bound", "6",
            "--vcap", "1",
        ],
        tmp_path,
    )
    assert code == 1
    assert doc["error"] == {
        "type": "SeriesOverflow",
        "message": "series: 1/Gamma(l + 1) overflows at l=(0.6666666666666666+600j)",
    }


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


@pytest.mark.parametrize("error", [IndexError, KeyError, TypeError, RuntimeError])
def test_internal_fault_exits_3(seed_dir, tmp_path, monkeypatch, error):
    """An exception no input check raises, from anywhere below a command, is
    an internal fault: exit 3 with its error object, never exit 2 as if the
    input file were malformed."""
    import boxgamma.cli as cli

    def broken(args):
        raise error("internal: a fault below the command")

    commands = [(n, g, broken if n == "validate" else f, h) for n, g, f, h in cli._COMMANDS]
    monkeypatch.setattr(cli, "_COMMANDS", tuple(commands))
    code, doc = run_cli(["validate", "--fan", str(seed_dir / "fan_f1.json")], tmp_path)
    assert code == 3
    assert doc["error"]["type"] == error.__name__
    assert "internal: a fault below the command" in doc["error"]["message"]
