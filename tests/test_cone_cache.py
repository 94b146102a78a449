"""The fan's cone table as a cache: it stays out of equality, hash, repr and
replace(), a fan's cone data is computed once however many parameters it
is used with, its size does not grow with them, and build_gkz's copy of a
fan without a degree functional shares the caller's entries."""

import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import boxgamma.fan as fanmod
import boxgamma.linalg as linalg
from boxgamma.box import box_of_fan, collisions, stabilize
from boxgamma.fan import StackyFan, minimal_cone, validate
from boxgamma.gkz import build_gkz
from boxgamma.kring import spectrum
from boxgamma.linalg import GaussianRational

RAYS = ((1, 0), (1, 1), (1, 2))
CONES = ((0, 1), (1, 2))


def f1():
    """A fresh F1, so no earlier test has filled its table."""
    return StackyFan(rank=2, rays=RAYS, max_cones=CONES)


def draw_beta(rng):
    def coord():
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if rng.random() < 0.5:
            return GaussianRational(q, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        return q

    return (coord(), coord())


@pytest.fixture
def elimination_calls(monkeypatch):
    """Counts smith_normal_form, integer_adjugate and cone_inverse calls
    under every name a boxgamma module looks them up by."""
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n == "boxgamma" or n.startswith("boxgamma.")]
    for fn_name in ("smith_normal_form", "integer_adjugate", "cone_inverse"):
        real = getattr(linalg, fn_name)

        def counting(*args, _name=fn_name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for mod in modules:
            if getattr(mod, fn_name, None) is real:
                monkeypatch.setattr(mod, fn_name, counting)
    return calls


def test_table_stays_out_of_equality_hash_and_repr():
    used, fresh = f1(), f1()
    validate(used)
    box_of_fan(used, (Fraction(1, 3), Fraction(1, 5)))
    assert used._table.inverses and used._table.smith and used._table.report
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == (
        "StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)), deg=None)"
    )
    copy = dataclasses.replace(used, deg=(1, 0))
    assert copy._table is not used._table
    assert copy._table.inverses == {} and copy._table.report is None
    assert validate(copy).deg == (1, 0)


def test_second_build_gkz_computes_no_cone_data(elimination_calls):
    fan = f1()
    build_gkz(fan, (Fraction(1, 4), Fraction(0)))
    assert elimination_calls["smith_normal_form"] == 2
    assert elimination_calls["cone_inverse"] > 0
    elimination_calls.clear()
    inst = build_gkz(fan, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(2, 5)))
    assert inst.quotient.dim == 2
    assert sum(elimination_calls.values()) == 0


def test_validate_runs_once_per_fan(monkeypatch):
    fan = f1()
    report = validate(fan)
    calls = []
    monkeypatch.setattr(fanmod, "_validate", lambda f: calls.append(f))
    assert validate(fan) is report
    build_gkz(fan, (Fraction(1, 4), Fraction(0)))
    assert calls == []


def test_table_size_is_bounded_by_the_cones():
    fan = f1()
    rng = random.Random(7)
    build_gkz(fan, draw_beta(rng))
    sizes = (len(fan._table.inverses), len(fan._table.smith))
    assert sizes == (2, 2)
    for _ in range(20):
        beta = draw_beta(rng)
        stabilize(fan, beta)
        collisions(fan, beta)
        spectrum(fan, beta)
        build_gkz(fan, beta)
        minimal_cone(fan, (Fraction(rng.randint(0, 9), 4), Fraction(rng.randint(0, 9), 7)))
        assert (len(fan._table.inverses), len(fan._table.smith)) == sizes


def test_build_gkz_shares_the_callers_cone_entries():
    fan = f1()
    inst = build_gkz(fan, (Fraction(1, 4), Fraction(0)))
    assert fan.deg is None and inst.fan.deg == (1, 0)
    assert inst.fan == dataclasses.replace(fan, deg=(1, 0))
    assert inst.fan._table.inverses is fan._table.inverses
    assert inst.fan._table.smith is fan._table.smith
    assert set(fan._table.inverses) == set(CONES)
