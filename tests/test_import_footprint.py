"""What each import loads: `import boxgamma` loads no submodule, a public
name loads its home module on first access, and each CLI command loads only
the stages it runs.  Every check runs in a fresh interpreter, since the test
process has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxgamma
from boxgamma.cli import main

SRC = str(Path(boxgamma.__file__).resolve().parents[1])
# an expression, run in the child: the boxgamma modules it has loaded
LOADED = "sorted(m for m in sys.modules if m == 'boxgamma' or m.startswith('boxgamma.'))"
# each module with the boxgamma modules it imports
CLOSURE = {
    "linalg": {"errors", "linalg"},
    "fan": {"errors", "linalg", "fan"},
    "box": {"errors", "linalg", "fan", "box"},
    "quotient": {"errors", "linalg", "fan", "box", "quotient"},
    "kring": {"errors", "linalg", "fan", "box", "quotient", "kring"},
    "gkz": {"errors", "linalg", "fan", "box", "quotient", "gkz"},
}
# what every command loads, and the stages each command adds
BASE = {"boxgamma", "boxgamma.cli", "boxgamma.errors", "boxgamma.fan", "boxgamma.linalg"}
COMMANDS = {
    "validate": (["validate", "--fan", "fan_f1.json"], set()),
    "box": (["box", "--fan", "fan_f1.json", "--beta", "beta_f1.json", "--stabilize"], {"box"}),
    "cohomology": (["cohomology", "--fan", "fan_f1.json", "--beta", "beta_f1.json"], {"box", "quotient"}),
    "kring": (["kring", "--fan", "fan_f2.json", "--beta", "beta_f2.json"], {"box", "quotient", "kring"}),
    "gkz-verify": (
        ["gkz-verify", "--fan", "fan_f1.json", "--beta", "beta_f1.json", "--x", "x_f1.json", "--bound", "12"],
        {"box", "quotient", "gkz"},
    ),
}


def run(code):
    """Run code in a fresh interpreter that imports boxgamma from this
    checkout; returns the JSON document it prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("seed")
    assert main(["seed-examples", "--dir", str(d), "--out", str(d / "_manifest.json")]) == 0
    return d


def test_import_loads_no_submodule():
    assert run(f"import boxgamma\nprint(json.dumps({LOADED}))") == ["boxgamma"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_stages(command, seed_dir, tmp_path):
    args, stages = COMMANDS[command]
    argv = [str(seed_dir / a) if a.endswith(".json") else a for a in args]
    argv += ["--out", str(tmp_path / "out.json")]
    loaded = run(f"from boxgamma.cli import main\nassert main({argv!r}) == 0\nprint(json.dumps({LOADED}))")
    assert set(loaded) == BASE | {f"boxgamma.{s}" for s in stages}


def test_star_import_binds_every_public_name():
    out = run(
        "import boxgamma\n"
        f"before = {LOADED}\n"
        "from boxgamma import *\n"
        "print(json.dumps([before, [n for n in boxgamma.__all__ if n not in globals()]]))"
    )
    assert out == [["boxgamma"], []]


@pytest.mark.parametrize("home", sorted(CLOSURE))
def test_public_name_is_its_home_modules_object(home):
    """Reading a name loads its home module and what that imports, nothing
    else; the value is the home module's object, kept in the namespace."""
    out = run(
        "import boxgamma\n"
        f"names = [n for n in boxgamma.__all__ if boxgamma._HOME[n] == {home!r}]\n"
        "values = [getattr(boxgamma, n) for n in names]\n"
        f"mod = sys.modules['boxgamma.{home}']\n"
        "same = all(v is getattr(mod, n) is vars(boxgamma)[n] for n, v in zip(names, values))\n"
        f"print(json.dumps([len(names), same, {LOADED}]))"
    )
    count, same, loaded = out
    assert count > 0 and same
    assert set(loaded) == {"boxgamma"} | {f"boxgamma.{m}" for m in CLOSURE[home]}


def test_dir_lists_public_names_before_loading():
    out = run(
        "import boxgamma\n"
        "names = dir(boxgamma)\n"
        f"print(json.dumps([[n for n in boxgamma.__all__ if n not in names], {LOADED}]))"
    )
    assert out == [[], ["boxgamma"]]


def test_unknown_name_raises_attribute_error():
    out = run(
        "import boxgamma\n"
        "try:\n"
        "    boxgamma.no_such_name\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        f"print(json.dumps([message, {LOADED}]))"
    )
    assert out == ["module 'boxgamma' has no attribute 'no_such_name'", ["boxgamma"]]
