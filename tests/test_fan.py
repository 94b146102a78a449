import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxgamma import fan as fan_module
from boxgamma.errors import DegenerateHeights, NotFullDimensional
from boxgamma.fan import (
    StackyFan,
    _mask,
    _tangent_test,
    infer_deg,
    normalized_volume,
    triangulate_from_heights,
    validate,
)
from boxgamma.linalg import ConeInverse
from exact_oracles import is_complete, oracle_minimal_cone, primitive_direction

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))
SQUARE = triangulate_from_heights(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), (0, 1, 1, 0))


def cone_over(points):
    """Triangulated cone over lattice points p: markers (1, p), lifting
    heights |p|^2 + (i^2 + 1)/101."""
    heights = [sum(x * x for x in p) + Fraction(i * i + 1, 101) for i, p in enumerate(points)]
    return triangulate_from_heights([(1,) + tuple(p) for p in points], heights)


HEX5 = cone_over(((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)))
# the 10 lattice points of twice the unit 3-simplex: 8 cones of rank 4
SIMPLEX3X2 = cone_over([p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2])


def test_validate_f1():
    rep = validate(F1)
    assert rep.valid
    assert rep.violations == ()
    assert rep.gkz_eligible
    assert rep.volume == 2
    assert rep.deg == (1, 0)


def test_validate_f2():
    rep = validate(F2)
    assert rep.valid
    assert not rep.gkz_eligible
    assert any("degree" in note for note in rep.gkz_notes)
    assert rep.volume == 4


def test_validate_rejects_overlapping_cones():
    bad = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 2), (0, 1)))
    rep = validate(bad)
    assert not rep.valid
    assert rep.violations == ("cones (1, 3) and (1, 2) do not intersect in a common face",)


@pytest.mark.parametrize(
    "fan", [F1, F2, SQUARE, HEX5, SIMPLEX3X2], ids=["F1", "F2", "SQUARE", "HEX5", "simplex3x2"]
)
def test_validate_certifies_every_pair_of_a_fan(fan):
    """Each pair of these fans' maximal cones meets in its common face, by
    the feasibility test in either order, and a fresh copy validates."""
    for c1, c2 in itertools.combinations(fan.max_cones, 2):
        shared = set(c1) & set(c2)
        assert fan_module._meets_in_face(fan, c1, c2, shared)
        assert fan_module._meets_in_face(fan, c2, c1, shared)
    assert validate(dataclasses.replace(fan)).valid


def test_validate_rejects_degenerate_cone():
    bad = StackyFan(rank=2, rays=((1, 0), (2, 0)), max_cones=((0, 1),))
    rep = validate(bad)
    assert not rep.valid


def test_validate_non_primitive_markers_ok():
    fan = StackyFan(rank=2, rays=((2, 0), (0, 1)), max_cones=((0, 1),))
    rep = validate(fan)
    assert rep.valid
    assert rep.volume == 2
    assert not rep.gkz_eligible  # no integral functional with value 1 on (2,0)


def test_validate_notes_markers_that_do_not_generate():
    """The markers' Hermite form in the fan's table has the unit diagonal
    exactly when they generate Z^2: F1's do, an index-2 pair and a lone
    marker do not."""
    note = "markers do not generate the lattice"
    for rays, cones, generates in (
        (F1.rays, F1.max_cones, True),
        (((2, 0), (0, 1)), ((0, 1),), False),
        (((1, 0),), ((0,),), False),
    ):
        rep = validate(StackyFan(rank=2, rays=rays, max_cones=cones))
        assert rep.valid
        assert (note not in rep.gkz_notes) is generates


def test_validate_reports_a_wrong_length_marker():
    """A marker of the wrong length is a shape the fan's construction
    refuses, naming the ray, so no cone holding it is ever solved."""
    with pytest.raises(ValueError) as info:
        StackyFan(rank=2, rays=((1, 0), (1, 1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
    assert str(info.value) == "fan: ray 2 must have 2 coordinates, got 3"


def test_validate_reports_an_empty_fan():
    """A rank that is not positive is refused when the fan is built; a fan
    with no markers and no cones fails each of the two axioms it can, and no
    GKZ check is made."""
    for rank in (0, -1):
        with pytest.raises(ValueError) as info:
            StackyFan(rank=rank, rays=(), max_cones=())
        assert str(info.value) == f"fan: rank is {rank}, not a positive integer"
    rep = validate(StackyFan(rank=2, rays=(), max_cones=()))
    assert rep.violations == ("no markers", "no maximal cones")
    assert rep.gkz_notes == ("fan axioms fail",)
    assert (rep.valid, rep.gkz_eligible, rep.volume, rep.deg) == (False, False, None, None)


E3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "rays,cones,valid",
    [
        # two 2-cones sharing the ray e2
        (E3, ((0, 1), (1, 2)), True),
        # two 2-cones in the plane z = 0 overlapping in cone((1,1,0), (1,2,0))
        (((1, 0, 0), (1, 2, 0), (1, 1, 0), (0, 1, 0)), ((0, 1), (2, 3)), False),
        # a 2-cone and a ray whose spans meet only at the origin
        (E3, ((0, 1), (2,)), True),
        # 2-cones in the planes z = 0 and x = y crossing along (1,1,0)
        (((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, -1)), ((0, 1), (2, 3)), False),
        # the positive octant and a 2-cone sharing its ray e1
        (E3 + ((0, 0, -1),), ((0, 1, 2), (0, 3)), True),
    ],
)
def test_validate_lower_dimensional_cones_rank_3(rays, cones, valid):
    rep = validate(StackyFan(rank=3, rays=rays, max_cones=cones))
    assert rep.valid is valid
    if valid:
        assert rep.violations == ()
        assert rep.volume is None
        assert "maximal cones are not all full-dimensional" in rep.gkz_notes
    else:
        assert rep.violations == ("cones (1, 2) and (3, 4) do not intersect in a common face",)


@pytest.mark.parametrize("xi", [(0,), (0, -1, 5)])
def test_tangent_member_rejects_a_wrong_length_xi(xi):
    """The face test would read (0,) as a direction with no second
    coordinate and (0, -1, 5) against the first two rows only."""
    message = rf"^fan: xi must have 2 coordinates, got {len(xi)}$"
    with pytest.raises(ValueError, match=message):
        _tangent_test(F1, xi)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"rays": ((1, 0), (1.9, 1), (1, 2))}, "entry 1 of ray 2 is 1.9, not an integer"),
        ({"rays": ((1, 0), (1, 1), (1, Fraction(5, 2)))}, "entry 2 of ray 3 is Fraction(5, 2), not an integer"),
        ({"max_cones": ((0, 1), (1, 1.5))}, "entry 2 of cone 2 is 1.5, not an integer"),
        ({"deg": (Fraction(3, 2), 0)}, "entry 1 of deg is Fraction(3, 2), not an integer"),
        ({"deg": (1, math.nan)}, "entry 2 of deg is nan, not an integer"),
        ({"rank": 2.5}, "rank is 2.5, not a positive integer"),
    ],
    ids=[
        "fields0-entry 1 of ray 2",
        "fields1-entry 2 of ray 3",
        "fields2-entry 2 of cone 2",
        "fields3-entry 1 of deg",
        "fields4-entry 2 of deg",
        "fields5-rank 2.5",
    ],
)
def test_non_integral_fan_entry_raises(fields, message):
    """An entry that equals no integer is named with its value, never truncated."""
    with pytest.raises(ValueError) as info:
        StackyFan(**{"rank": 2, "rays": F1.rays, "max_cones": F1.max_cones, **fields})
    assert str(info.value) == f"fan: {message}"


def test_non_integral_triangulation_point_raises():
    with pytest.raises(ValueError, match=r"^fan: entry 2 of point 3 is 1\.5, not an integer$"):
        triangulate_from_heights(((1, 0), (1, 1), (1, 1.5)), (0, 1, 0))


def test_integral_fan_entries_keep_their_meaning():
    fan = StackyFan(
        rank=2.0,
        rays=((1.0, 0), (Fraction(1), 1), (1, 2)),
        max_cones=((1.0, 0), (1, Fraction(2))),
        deg=(Fraction(1), 0.0),
    )
    assert fan == StackyFan(rank=2, rays=F1.rays, max_cones=F1.max_cones, deg=(1, 0))
    entries = [fan.rank, *fan.deg, *sum(fan.rays, ()), *sum(fan.max_cones, ())]
    assert {type(x) for x in entries} == {int}


def test_tangent_member():
    """p + eps*xi stays in the support iff the shadow filter passes p's
    minimal face."""

    def passes(p, xi):
        return _mask(oracle_minimal_cone(F1, p)) in _tangent_test(F1, xi)

    assert passes((0, 0), (1, 1)) is True
    assert passes((0, 0), (-1, 0)) is False
    assert passes((2, 1), (0, -1)) is True  # interior point, all directions
    assert passes((2, 0), (0, -1)) is False  # exits through the base ray
    assert passes((2, 0), (0, 1)) is True
    assert passes((1, 0), (0, 1)) is True


@pytest.mark.parametrize("cones", [((0, 1), ()), ((), (0, 1))])
def test_empty_maximal_cone_is_valid_and_not_full_dimensional(cones):
    """The zero cone's inverse has no rows and the whole lattice as span;
    the fan is valid, as one with the cone (1,) is, and has no volume."""
    fan = StackyFan(rank=2, rays=((1, 0), (0, 1)), max_cones=cones)
    report = validate(fan)
    assert (report.valid, report.violations, report.volume) == (True, (), None)
    assert report.gkz_notes == ("maximal cones are not all full-dimensional",)
    assert fan._table.inverses[()] == ConeInverse((), ((1, 0), (0, 1)), 1)
    with pytest.raises(NotFullDimensional, match=r"^volume: cone \(\) is not full-dimensional in rank 2$"):
        normalized_volume(fan)


def test_normalized_volume():
    assert normalized_volume(F1) == 2
    assert normalized_volume(F2) == 4
    # errors name the stage and the cone by its 1-based file indices
    with pytest.raises(NotFullDimensional, match=r"^volume: cone \(1,\) is not full-dimensional in rank 2$"):
        normalized_volume(StackyFan(rank=2, rays=((1, 0),), max_cones=((0,),)))
    dependent = StackyFan(rank=2, rays=((1, 0), (2, 0), (1, 2)), max_cones=((0, 1), (1, 2)))
    message = r"^volume: generators of cone \(1, 2\) are linearly dependent$"
    with pytest.raises(NotFullDimensional, match=message):
        normalized_volume(dependent)


def test_is_complete():
    assert is_complete(F2)
    assert not is_complete(F1)


def test_infer_deg():
    assert infer_deg([(1, 0), (1, 1), (1, 2)]) == (1, 0)
    assert infer_deg([(1, 0), (0, 1), (-2, -1)]) is None
    # underdetermined but integrally solvable
    assert infer_deg([(2, 1)]) is not None


def test_primitive_direction():
    assert primitive_direction((4, -6)) == (2, -3)
    assert primitive_direction((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
    assert primitive_direction((-2, 0)) == (-1, 0)


def test_triangulate_from_heights_f1():
    fan = triangulate_from_heights([(1, 0), (1, 1), (1, 2)], [1, 0, 1])
    assert fan.max_cones == ((0, 1), (1, 2))
    assert fan.deg == (1, 0)
    assert validate(fan).valid
    message = r"^fan: heights are degenerate: lower facet on markers \(1, 2, 3\)$"
    with pytest.raises(DegenerateHeights, match=message):
        triangulate_from_heights([(1, 0), (1, 1), (1, 2)], [0, 0, 0])


def test_triangulate_from_collinear_points():
    # the points 0, 1, 2 of a line, lifted to degree 1: every triple of
    # markers is dependent, so no cell is full-dimensional
    message = "^fan: heights give no full-dimensional lower facet$"
    with pytest.raises(DegenerateHeights, match=message):
        triangulate_from_heights([(1, 0, 0), (1, 1, 0), (1, 2, 0)], [0, 1, 0])


def test_triangulate_from_heights_segment():
    fan = triangulate_from_heights([(1, 0), (1, 2)], [0, 0])
    assert fan.max_cones == ((0, 1),)
    assert normalized_volume(fan) == 2


def test_triangulate_square_cone():
    pts = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    fan = triangulate_from_heights(pts, [0, 1, 1, 0])
    assert fan.max_cones == ((0, 1, 3), (0, 2, 3))
    rep = validate(fan)
    assert rep.valid and rep.gkz_eligible
    assert rep.volume == 2
    other = triangulate_from_heights(pts, [1, 0, 0, 1])
    assert other.max_cones == ((0, 1, 2), (1, 2, 3))


def test_coverage_note_names_marker_and_cone():
    rep = validate(StackyFan(rank=2, rays=F1.rays, max_cones=((0, 1),)))
    assert rep.valid and not rep.gkz_eligible
    assert rep.gkz_notes == (
        "support does not cover the marker cone: marker 3 lies beyond "
        "a boundary facet of cone (1, 2)",
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_coverage_note_matches_volume_oracle(data):
    # sub-fans of a regular triangulation of a degree-1 point set; the
    # support is the cone over all markers iff the volumes agree
    d = data.draw(st.integers(2, 4))
    coords = st.tuples(*[st.integers(0, 2)] * (d - 1))
    points = data.draw(st.lists(coords, min_size=d, max_size=d + 3, unique=True))
    rays = [(1,) + p for p in points]
    heights = data.draw(st.lists(st.integers(0, 10**6), min_size=len(rays), max_size=len(rays)))
    try:
        full = triangulate_from_heights(rays, heights)
    except DegenerateHeights:
        assume(False)
    cones = data.draw(st.lists(st.sampled_from(full.max_cones), min_size=1, unique=True))
    fan = StackyFan(rank=d, rays=full.rays, max_cones=tuple(cones))
    rep = validate(fan)
    assert rep.valid and rep.volume is not None
    uncovered = normalized_volume(full) != normalized_volume(fan)
    assert any(n.startswith("support does not cover") for n in rep.gkz_notes) == uncovered
