"""Every exact input vector goes through linalg.read_exact: the fan's rank,
rays, cones and deg, ModuleSpec's chi and xi, the shadow filter's
direction, triangulation and evaluation-point heights, beta at
each stage's entry point, correspondence_at's delta, and the series index
v.  A bad entry raises the one message form "<stage>: entry <pos> of
<field> is <value!r>, not <kind>"; every accepted spelling of a value gives
the result of its Fraction, equal in value and repr."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxgamma.box import box_of_fan, correspondence_at, normalize_beta, stabilize
from boxgamma.cli import SEED_FILES, main, parse_fan
from boxgamma.fan import StackyFan, _tangent_test, triangulate_from_heights
from boxgamma.gkz import build_gkz, enumerate_L, gamma_series, suggest_x, verify_term_shift
from boxgamma.kring import spectrum
from boxgamma.linalg import GaussianRational, format_gaussian, parse_gaussian
from boxgamma.quotient import ModuleSpec

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
INST = build_gkz(F1, (Fraction(1, 4), 0))
SOURCE = INST.correspondence.triples[0][0]
X_F1 = (1.0, 10.0, 1.0)
# a Gaussian beta whose correspondence exists at delta = 1 and 1/4
BETA_C = (GaussianRational(Fraction(1, 3), Fraction(1, 10)), Fraction(1, 5))


def _fan(**fields):
    return StackyFan(**{"rank": 2, "rays": F1.rays, "max_cones": F1.max_cones, **fields})


INTEGER, RATIONAL, GAUSSIAN = "an integer", "a rational", "a Gaussian rational"
POSITIVE = "a positive integer"

# site: (call on one entry, what the message names, kind, an integral value the site takes)
SITES = {
    "rank": (lambda x: _fan(rank=x), "fan: rank", POSITIVE, 2),
    "rays": (lambda x: _fan(rays=((1, 0), (x, 1), (1, 2))), "fan: entry 1 of ray 2", INTEGER, 1),
    "cones": (lambda x: _fan(max_cones=((0, 1), (1, x))), "fan: entry 2 of cone 2", INTEGER, 2),
    "deg": (lambda x: _fan(deg=(x, 0)), "fan: entry 1 of deg", INTEGER, 1),
    "tangent_xi": (lambda x: _tangent_test(F1, (x, 0)), "fan: entry 1 of xi", RATIONAL, 1),
    "heights": (
        lambda x: triangulate_from_heights(F1.rays, (x, 0, 1)), "fan: entry 1 of heights", RATIONAL, 1
    ),
    "suggest_x": (lambda x: suggest_x(INST, (x, 0, 1)), "series: entry 1 of heights", RATIONAL, 1),
    "chi": (lambda x: ModuleSpec(F1, (0, x)), "quotient: entry 2 of chi", RATIONAL, 1),
    "xi": (lambda x: ModuleSpec(F1, (0, 0), xi=(x, 0)), "quotient: entry 1 of xi", RATIONAL, 1),
    "normalize_beta": (lambda x: normalize_beta(F1, (x, 0)), "box: entry 1 of beta", GAUSSIAN, 1),
    "box_of_fan": (lambda x: box_of_fan(F1, (x, 0)), "box: entry 1 of beta", GAUSSIAN, 1),
    "stabilize": (lambda x: stabilize(F1, (0, x)), "box: entry 2 of beta", GAUSSIAN, 1),
    "delta": (lambda x: correspondence_at(F1, BETA_C, x), "box: entry 1 of delta", RATIONAL, 1),
    "spectrum": (lambda x: spectrum(F1, (x, 0)), "box: entry 1 of beta", GAUSSIAN, 1),
    "build_gkz": (lambda x: build_gkz(F1, (x, 0)), "box: entry 1 of beta", GAUSSIAN, 1),
    "enumerate_L": (lambda x: enumerate_L(INST, SOURCE, (x, 0), 3), "series: entry 1 of v", INTEGER, 1),
    "gamma_series": (lambda x: gamma_series(INST, (0, x), X_F1, 4), "series: entry 2 of v", INTEGER, 1),
    "verify_term_shift": (
        lambda x: verify_term_shift(INST, (x, 0), 1, 3), "series: entry 1 of v", INTEGER, 1
    ),
}

COMPLEX = GaussianRational(Fraction(1, 4), Fraction(-1, 3))


def _cases():
    for site, (_, _, kind, n) in SITES.items():
        bad = [0.5, None, "abc", True] + ([] if kind == GAUSSIAN else [GaussianRational(0, 1)])
        for entry in bad:
            yield site, entry, None
        good = [(n, Fraction(n)), (f"{2 * n}/2", Fraction(n))]
        if kind not in (INTEGER, POSITIVE):
            good.append(("1/4", Fraction(1, 4)))
        if kind == GAUSSIAN:
            good += [(GaussianRational(n), Fraction(n)), ("1/4-1/3i", COMPLEX)]
            good.append(({"re": "1/4", "im": "-1/3"}, COMPLEX))
        for entry, same_as in good:
            yield site, entry, same_as


@pytest.mark.parametrize(
    "site,entry,same_as", list(_cases()), ids=lambda v: v if isinstance(v, str) else repr(v)
)
def test_every_exact_input_is_read_by_one_reader(site, entry, same_as):
    call, where, kind, _ = SITES[site]
    if same_as is None:
        with pytest.raises(ValueError) as info:
            call(entry)
        assert str(info.value) == f"{where} is {entry!r}, not {kind}"
    else:
        got, want = call(entry), call(same_as)
        assert (got, repr(got)) == (want, repr(want))



@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: _fan(rays=("10", "11", "12")), "fan: ray 1 is '10', not a sequence"),
        (lambda: ModuleSpec(F1, "00"), "quotient: chi is '00', not a sequence"),
        (lambda: normalize_beta(F1, "12"), "box: beta is '12', not a sequence"),
        (lambda: gamma_series(INST, "10", X_F1, 4), "series: v is '10', not a sequence"),
        (lambda: triangulate_from_heights("ab", (0, 1)), "fan: points is 'ab', not a sequence"),
    ],
    ids=["rays", "chi", "beta", "v", "points"],
)
def test_a_string_is_not_read_as_its_characters(call, message):
    """Strings are exact entries, so "12" would read as the vector (1, 2)."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: triangulate_from_heights(F1.rays, (1, 0)),
            "fan: heights must have 3 coordinates, got 2",
        ),
        (lambda: suggest_x(INST, (1, 0, 1, 0)), "series: heights must have 3 coordinates, got 4"),
    ],
    ids=["triangulate_from_heights", "suggest_x"],
)
def test_heights_of_the_wrong_length_raise(call, message):
    """One height per marker, in the reader's length form."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("deg,got", [((1, 0, 5), 3), ((1,), 1)], ids=["long", "short"])
def test_deg_of_the_wrong_length_raises(deg, got):
    """deg has one entry per coordinate; one of another length was cut to
    the shorter of it and a marker when deg was paired with the markers."""
    with pytest.raises(ValueError) as info:
        _fan(deg=deg)
    assert str(info.value) == f"fan: deg must have 2 coordinates, got {got}"


@pytest.mark.parametrize(
    "points,heights,message",
    [
        ([], [], "fan: triangulation needs at least one point"),
        (((1, 0), (1, 1, 1), (1, 2)), (0, 1, 0), "fan: point 2 must have 2 coordinates, got 3"),
        (((1, 0, 0), (1, 1), (1, 2)), (0, 1, 0), "fan: point 2 must have 3 coordinates, got 2"),
        (((1, 0), (0, 1), (1, 1)), (0, 0, 1), "fan: markers do not lie on an integral degree-1 hyperplane"),
        (((1, 0), (2, 0)), (0, 1), "fan: markers do not lie on an integral degree-1 hyperplane"),
    ],
    ids=["empty", "longer", "shorter", "off degree 1", "collinear off degree 1"],
)
def test_triangulation_points_of_the_wrong_length_raise(points, heights, message):
    """Every point is read with the first point's length, and the points
    must lie on an integral hyperplane deg = 1, checked before the cell
    search."""
    with pytest.raises(ValueError) as info:
        triangulate_from_heights(points, heights)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: normalize_beta(F1, 5), "box: beta is 5, not a sequence"),
        (lambda: gamma_series(INST, 10, X_F1, 4), "series: v is 10, not a sequence"),
        (lambda: gamma_series(INST, (0, 0), 3, 4), "series: x is 3, not a sequence"),
        (lambda: gamma_series(INST, (0, 0), X_F1, 4, 5), "series: arg_offsets is 5, not a sequence"),
        (lambda: _fan(rays=5), "fan: rays is 5, not a sequence"),
        (lambda: _fan(max_cones=1.5), "fan: max_cones is 1.5, not a sequence"),
        (
            lambda: parse_fan({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": 1.5}),
            "fan: max_cones is 1.5, not a sequence",
        ),
        (lambda: triangulate_from_heights(5, (0,)), "fan: points is 5, not a sequence"),
    ],
    ids=["beta", "v", "x", "arg_offsets", "rays", "max_cones", "file max_cones", "points"],
)
def test_a_number_is_not_read_as_a_sequence(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "x,offsets,message",
    [
        ((1, None, 1), None, "entry 2 of x is None, not a finite complex number"),
        ((1, "zz", 1), None, "entry 2 of x is 'zz', not a finite complex number"),
        (X_F1, (0, 0, "a"), "entry 3 of arg_offsets is 'a', not a finite real number"),
        (X_F1, (0, 0, 1j), "entry 3 of arg_offsets is 1j, not a finite real number"),
        (X_F1, (0, 0, None), "entry 3 of arg_offsets is None, not a finite real number"),
        ((True, 10.0, 1.0), None, "entry 1 of x is True, not a finite complex number"),
        (X_F1, (0, False, 0), "entry 2 of arg_offsets is False, not a finite real number"),
    ],
    ids=["x None", "x string", "offset string", "offset complex", "offset None", "x bool", "offset bool"],
)
def test_series_point_entries_are_named(x, offsets, message):
    """An entry of x or arg_offsets that is no number, a bool included, is
    named, as a non-finite one is."""
    with pytest.raises(ValueError) as info:
        gamma_series(INST, (0, 0), x, 4, offsets)
    assert str(info.value) == f"series: {message}"


@pytest.mark.parametrize(
    "text,re,im",
    [
        ("1.5i", 0, Fraction(3, 2)),
        ("-1.5i", 0, Fraction(-3, 2)),
        ("2+1.5i", 2, Fraction(3, 2)),
        ("2-1.5i", 2, Fraction(-3, 2)),
        ("2+1e-3i", 2, Fraction(1, 1000)),
        ("1e-3i", 0, Fraction(1, 1000)),
        ("1E+2-0.25i", 100, Fraction(-1, 4)),
        ("-0.5+1/3i", Fraction(-1, 2), Fraction(1, 3)),
    ],
)
def test_a_decimal_part_is_read_whole(text, re, im):
    """Both parts are read by parse_rational: a decimal point or an
    exponent's sign does not split off part of the imaginary part."""
    assert parse_gaussian(text) == GaussianRational(re, im)


@pytest.mark.parametrize("entry", [{"re": "0", "imag": "3/2"}, {"real": "1"}, {"re": 1, "im": 0, "x": 0}])
def test_a_mapping_with_another_key_is_refused(entry):
    """A misspelt key is not read as a zero part."""
    with pytest.raises(ValueError) as info:
        normalize_beta(F1, (entry, 0))
    assert str(info.value) == f"box: entry 1 of beta is {entry!r}, not a Gaussian rational"


_part = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


@given(re=_part, im=_part, spaced=st.booleans())
def test_every_formatted_gaussian_parses_back(re, im, spaced):
    """"p/q", "p/q+r/si", "p/q-r/si" and "r/si", as format_gaussian writes
    them, with or without spaces around the sign, read back exactly."""
    z = GaussianRational(re, im)
    text = format_gaussian(z)
    if spaced:
        text = text.replace("+", " + ").replace("-", " - ").lstrip(" ").replace("i", " i")
    assert parse_gaussian(text) == z


def test_a_decimal_beta_prints_as_its_fraction(tmp_path):
    """The CLI's box output for beta ["1/4", "1.5i"] is byte-identical to
    the one for ["1/4", "3/2i"]."""
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(SEED_FILES["fan_f1.json"]))
    outs = []
    for n, spelling in enumerate(("1.5i", "3/2i")):
        beta, out = tmp_path / f"beta{n}.json", tmp_path / f"out{n}.json"
        beta.write_text(json.dumps({"beta": ["1/4", spelling]}))
        assert main(["box", "--fan", str(fan), "--beta", str(beta), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"3/2i" in outs[0] and b"5i" not in outs[0]
