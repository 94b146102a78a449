from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxgamma.errors import DegenerateHeights, NotFullDimensional, PointOutsideSupport
from boxgamma.fan import (
    StackyFan,
    infer_deg,
    is_complete,
    minimal_cone,
    normalized_volume,
    primitive_direction,
    tangent_member,
    triangulate_from_heights,
    validate,
)

F1 = StackyFan(rank=2, rays=((1, 0), (1, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
F2 = StackyFan(rank=2, rays=((1, 0), (0, 1), (-2, -1)), max_cones=((0, 1), (1, 2), (0, 2)))


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
    assert any("common face" in v for v in rep.violations)


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


def test_minimal_cone():
    assert minimal_cone(F1, (1, 1)) == (1,)
    assert minimal_cone(F1, (2, 3)) == (1, 2)
    assert minimal_cone(F1, (0, 0)) == ()
    assert minimal_cone(F1, (-1, 0)) is None
    assert minimal_cone(F1, (Fraction(5, 4), Fraction(2))) == (1, 2)


def test_tangent_member():
    assert tangent_member(F1, (0, 0), (1, 1)) is True
    assert tangent_member(F1, (0, 0), (-1, 0)) is False
    assert tangent_member(F1, (2, 1), (0, -1)) is True  # interior point, all directions
    assert tangent_member(F1, (2, 0), (0, -1)) is False  # exits through the base ray
    assert tangent_member(F1, (2, 0), (0, 1)) is True
    assert tangent_member(F1, (1, 0), (0, 1)) is True
    outside = r"^fan: point \(-1, 0\) is outside the fan support$"
    with pytest.raises(PointOutsideSupport, match=outside):
        tangent_member(F1, (-1, 0), (1, 0))


def test_normalized_volume():
    assert normalized_volume(F1) == 2
    assert normalized_volume(F2) == 4
    # errors name the stage and the cone by its 1-based file indices
    with pytest.raises(NotFullDimensional, match=r"^volume: cone \(1,\) is not full-dimensional$"):
        normalized_volume(StackyFan(rank=2, rays=((1, 0),), max_cones=((0,),)))
    dependent = StackyFan(rank=2, rays=((1, 0), (2, 0), (1, 2)), max_cones=((0, 1), (1, 2)))
    message = r"^volume: cone \(1, 2\) has dependent generators$"
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
    with pytest.raises(DegenerateHeights):
        triangulate_from_heights([(1, 0), (1, 1), (1, 2)], [0, 0, 0])


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
