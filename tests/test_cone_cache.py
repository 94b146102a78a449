"""The fan's cone table as a cache: it stays out of equality, hash, repr and
replace(), a fan's cone data is computed once however many parameters it
is used with, its size does not grow with them, and build_gkz works on the
caller's fan: graded pieces and quotients read the degree functional from
its report, so a fan given without one builds what it builds with it."""

import dataclasses
import operator
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import boxgamma.fan as fanmod
import boxgamma.linalg as linalg
from boxgamma.box import box_of_fan, collisions, stabilize
from boxgamma.fan import StackyFan, _tangent_test, triangulate_from_heights, validate
from boxgamma.gkz import build_gkz
from boxgamma.kring import spectrum
from boxgamma.linalg import GaussianRational
from boxgamma.quotient import ModuleSpec, build_quotient, graded_piece

RAYS = ((1, 0), (1, 1), (1, 2))
CONES = ((0, 1), (1, 2))


def f1():
    """A fresh F1, so no earlier test has filled its table."""
    return StackyFan(rank=2, rays=RAYS, max_cones=CONES)


def cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


def draw_beta(rng):
    def coord():
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if rng.random() < 0.5:
            return GaussianRational(q, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        return q

    return (coord(), coord())


@pytest.fixture
def elimination_calls(monkeypatch):
    """Counts hermite_normal_form and cone_inverse calls under every name a
    boxgamma module looks them up by, keyed by the function's name and its
    rows."""
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n == "boxgamma" or n.startswith("boxgamma.")]
    for fn_name in ("hermite_normal_form", "cone_inverse"):
        real = getattr(linalg, fn_name)

        def counting(rows, *rest, _name=fn_name, _real=real):
            calls[_name, tuple(map(tuple, rows))] += 1
            return _real(rows, *rest)

        for mod in modules:
            if getattr(mod, fn_name, None) is real:
                monkeypatch.setattr(mod, fn_name, counting)
    return calls


def test_table_stays_out_of_equality_hash_and_repr():
    used, fresh = f1(), f1()
    validate(used)
    box_of_fan(used, (Fraction(1, 3), Fraction(1, 5)))
    assert used._table.inverses and used._table.residues and used._table.report
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
    gens = {tuple(fan.gens(cone)) for cone in CONES}
    build_gkz(fan, (Fraction(1, 4), Fraction(0)))
    # one Hermite form of each maximal cone's generators, for its residues
    assert sum(elimination_calls["hermite_normal_form", rows] for rows in gens) == 2
    assert any(name == "cone_inverse" for name, _ in elimination_calls)
    elimination_calls.clear()
    inst = build_gkz(fan, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(2, 5)))
    assert inst.quotient.dim == 2
    # the marker and relation lattices are the fan's, formed by the first
    assert not elimination_calls


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
    sizes = (len(fan._table.inverses), len(fan._table.residues))
    assert sizes == (2, 2)
    for _ in range(20):
        beta = draw_beta(rng)
        stabilize(fan, beta)
        collisions(fan, beta)
        spectrum(fan, beta)
        build_gkz(fan, beta)
        # solves the point in every maximal cone's inverse
        _tangent_test(fan, (Fraction(rng.randint(0, 9), 4), Fraction(rng.randint(0, 9), 7)))
        assert (len(fan._table.inverses), len(fan._table.residues)) == sizes


def test_build_gkz_shares_the_callers_cone_entries():
    fan = f1()
    inst = build_gkz(fan, (Fraction(1, 4), Fraction(0)))
    assert inst.fan is fan and fan.deg is None and validate(fan).deg == (1, 0)
    assert set(fan._table.inverses) == set(fan._table.residues) == set(CONES)
    entries = dict(fan._table.inverses), dict(fan._table.residues), fan._table.lattice
    build_gkz(fan, (GaussianRational(Fraction(1, 3), Fraction(1, 7)), Fraction(2, 5)))
    assert all(fan._table.inverses[c] is entries[0][c] for c in CONES)
    assert all(fan._table.residues[c] is entries[1][c] for c in CONES)
    assert fan._table.lattice is entries[2]


@pytest.mark.parametrize(
    "make",
    [
        f1,
        lambda: triangulate_from_heights(
            ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0)
        ),
        lambda: cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))),
        lambda: cone_over([(a, b) for a in range(3) for b in range(3 - a)]),
    ],
    ids=["F1", "SQUARE", "HEX5", "tri2"],
)
def test_build_gkz_shares_an_exact_report(make):
    """build_gkz works on the caller's fan and its report.  That report's
    deg is the one validate gives the fan with it filled in, and graded
    pieces and quotients read it: built without deg, they equal those built
    with it given."""
    fan = dataclasses.replace(make(), deg=None)
    inst = build_gkz(fan, (0,) * fan.rank)
    assert inst.fan is fan and fan.deg is None
    deg = validate(fan).deg
    given = dataclasses.replace(fan, deg=deg)
    assert fanmod._validate(given) == validate(fan)
    chis = ((0,) * fan.rank, (Fraction(1, 3),) + (Fraction(-2, 5),) * (fan.rank - 1))
    for chi in chis:
        for m in range(4):
            assert graded_piece(ModuleSpec(fan, chi), m) == graded_piece(ModuleSpec(given, chi), m)
    specs = [inst.quotient.spec] + [ModuleSpec(fan, chi) for chi in chis]
    for spec in specs:
        q, want = build_quotient(spec), build_quotient(dataclasses.replace(spec, fan=given))
        assert (q.basis, q.dims, q.dmats) == (want.basis, want.dims, want.dmats)
        assert all(e.offset == sum(map(operator.mul, deg, e.lattice_point)) for e in q.basis)
