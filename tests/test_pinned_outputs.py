"""Replay the pinned outputs in tests/data: byte-exact CLI stdout on the seed
examples, bit-exact series values by repr, and shadow quotients by the
digest of their repr.

tests/data/generate_pinned_outputs.py wrote them from an earlier version of
the library; a refactor of the evaluation path must reproduce them exactly.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from boxgamma import cli, gkz
from boxgamma.cli import SEED_FILES, main, parse_fan, parse_x
from boxgamma.errors import DomainError
from boxgamma.fan import StackyFan
from boxgamma.gkz import build_gkz, gamma_series, gamma_series_derivative, solution_system, verify_term_shift
from boxgamma.linalg import parse_gaussian, parse_rational
from boxgamma.quotient import ModuleSpec, build_quotient

DATA = Path(__file__).parent / "data"
CLI_CASES = json.loads((DATA / "cli_golden" / "manifest.json").read_text())
SERIES = json.loads((DATA / "series_golden.json").read_text())["entries"]
SHADOW_DOC = json.loads((DATA / "shadow_quotient_golden.json").read_text())
SHADOW = SHADOW_DOC["entries"]


def test_cli_golden_covers_every_command():
    commands = {case["args"][0] for case in CLI_CASES}
    assert commands == {
        "seed-examples", "validate", "box", "cohomology", "kring", "gkz-solve", "gkz-verify"
    }


@pytest.mark.parametrize("case", CLI_CASES, ids=[c["name"] for c in CLI_CASES])
def test_cli_stdout_matches_golden(case, tmp_path):
    assert main(["seed-examples", "--dir", str(tmp_path), "--out", str(tmp_path / "m.json")]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.replace("{dir}", str(tmp_path)) for a in case["args"]])
    assert code == case["exit"]
    want = (DATA / "cli_golden" / f"{case['name']}.json").read_bytes()
    assert buf.getvalue().encode() == want


def test_cli_stdout_from_warm_window_tables(tmp_path, monkeypatch):
    """The gkz pins hold byte for byte on fans whose window tables an
    instance at beta = 0 filled first, in this process, at B = 13, between
    the pins' two bounds: B = 12 reads views filtered from the table's
    scans with no scan of its own, and B = 15 scans its targets again and
    replaces their entries."""
    warm = []
    for name in ("f1", "square"):
        fan = parse_fan(SEED_FILES[f"fan_{name}.json"])
        inst = build_gkz(fan, (0,) * fan.rank)
        system = solution_system(inst, parse_x(SEED_FILES[f"x_{name}.json"])[0], 13, 2)
        for v in system.vs:
            for j in sorted(fan.fan_indices()):
                verify_term_shift(inst, v, j, 13)
        assert {top for _, top, _ in fan._table.windows.values()} == {13}
        warm.append(fan)
    real, read, scan, filtered, scanned = cli.parse_fan, gkz._window, gkz._window_offsets, [], []
    monkeypatch.setattr(cli, "parse_fan", lambda doc: next((f for f in warm if f == real(doc)), real(doc)))

    def reading(instance, alpha, v, B):
        target, before = tuple(-a - n for a, n in zip(v, alpha.lattice_point)), len(scanned)
        top = instance.fan._table.windows.get(target, (None, -1))[1]
        window = read(instance, alpha, v, B)
        if top > B:
            filtered.append((B, len(scanned) - before))
        return window

    def scanning(part, plan, B):
        scanned.append(B)
        return scan(part, plan, B)

    monkeypatch.setattr(gkz, "_window", reading)
    monkeypatch.setattr(gkz, "_window_offsets", scanning)
    assert main(["seed-examples", "--dir", str(tmp_path), "--out", str(tmp_path / "m.json")]) == 0
    cases = [c for c in CLI_CASES if c["args"][0] in ("gkz-solve", "gkz-verify") and c["exit"] == 0]
    assert len(cases) == 8
    for case in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([a.replace("{dir}", str(tmp_path)) for a in case["args"]]) == 0
        assert buf.getvalue().encode() == (DATA / "cli_golden" / f"{case['name']}.json").read_bytes(), case["name"]
    assert set(filtered) == {(12, 0)} and 15 in scanned
    for fan in warm:
        assert {top for _, top, _ in fan._table.windows.values()} == {15}
        assert {B for _, _, views in fan._table.windows.values() for B in views} == {12, 15}


def _fan(doc):
    return StackyFan(
        rank=doc["rank"],
        rays=tuple(map(tuple, doc["rays"])),
        max_cones=tuple(map(tuple, doc["max_cones"])),
        deg=doc.get("deg"),
    )


def _call(instance, x, offsets, call, args):
    if call == "gamma_series":
        v, B = args
        return gamma_series(instance, v, x, B, arg_offsets=offsets)
    if call == "gamma_series_derivative":
        v, B, j = args
        return gamma_series_derivative(instance, v, x, B, j, arg_offsets=offsets)
    B, cap = args
    return solution_system(instance, x, B, cap, arg_offsets=offsets)


def _instances():
    """One instance per (fan, beta), shared by its points as when pinned."""
    seen = {}
    for entry in SERIES:
        key = (entry["fan"], entry["beta_kind"])
        if key not in seen:
            beta = tuple(parse_gaussian(b) for b in entry["beta"])
            seen[key] = build_gkz(_fan(entry["fan_doc"]), beta)
        yield seen[key], entry


def test_series_golden_reprs():
    checked = 0
    for instance, entry in _instances():
        x = [complex(re, im) for re, im in entry["x"]]
        for res in entry["results"]:
            got = _call(instance, x, entry["arg_offsets"], res["call"], res["args"])
            assert repr(got) == res["repr"], (entry["fan"], entry["beta_kind"], res["args"])
            checked += 1
    kinds = {(e["fan"], e["beta_kind"], e["arg_offsets"] is not None) for e in SERIES}
    assert len(kinds) == 12
    assert checked == sum(len(e["results"]) for e in SERIES)


def test_shadow_quotient_golden():
    # one fan per name, as when pinned
    fans = {name: _fan(doc) for name, doc in SHADOW_DOC["fans"].items()}
    for entry in SHADOW:
        fan = fans[entry["fan"]]
        chi = tuple(map(parse_rational, entry["chi"]))
        xi = tuple(map(parse_rational, entry["xi"]))
        case = (entry["fan"], entry["chi"], entry["xi"])
        try:
            q = build_quotient(ModuleSpec(fan, chi, xi))
        except DomainError as exc:
            assert f"{type(exc).__name__}: {exc}" == entry.get("error"), case
            continue
        text = repr((q.basis, dict(q.summand_dims), q.dmats))
        assert (q.dim, hashlib.sha256(text.encode()).hexdigest()) == (
            entry.get("dim"), entry.get("sha256")
        ), case
    assert {e["fan"] for e in SHADOW} >= {"F1", "SQUARE", "HEX5", "tri2", "simplex3x2", "simplex3x3"}
    assert any(e.get("error", "").startswith("ShadowNotSubmodule") for e in SHADOW)
