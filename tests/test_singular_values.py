"""The pure-Python Jacobi singular values against numpy.linalg.svd, which
serves as an oracle only: tall, wide, single-row, zero and empty matrices,
exactly dependent rows, and entries from 1e-3 to 1e5 in magnitude."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgamma.linalg as linalg
from boxgamma.errors import NoConvergence
from boxgamma.linalg import singular_values

RANK_CUT = 1e-9  # the relative cut of gkz.solution_system
# multipliers that scale a complex float exactly
EXACT_SCALES = (1, -1, 2, -0.5, 1j, -2j)

# |z| from 1e-3 to 1e5 at any phase, or an exact zero
entry = st.one_of(
    st.just(0j),
    st.builds(lambda e, phi: cmath.rect(10.0**e, phi), st.floats(-3, 5), st.floats(0, 2 * math.pi)),
)


@st.composite
def matrices(draw):
    """m x n complex rows: random, or all zero; some rows are exact copies of
    an earlier row times an exactly representable scale."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    if draw(st.integers(0, 9)) == 0:
        return [[0j] * n for _ in range(m)]
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for r in range(1, m):
        if draw(st.integers(0, 3)) == 0:
            src = rows[draw(st.integers(0, r - 1))]
            c = draw(st.sampled_from(EXACT_SCALES))
            rows[r] = [c * x for x in src]
    return rows


def rank(values, top):
    return sum(1 for s in values if top > 0 and s > RANK_CUT * top)


@settings(max_examples=300, deadline=None)
@given(rows=matrices())
def test_jacobi_matches_numpy_svd(rows):
    np = pytest.importorskip("numpy")
    got = singular_values(rows)
    want = [float(s) for s in np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)]
    assert len(got) == len(want) == min(len(rows), len(rows[0]))
    assert got == sorted(got, reverse=True)
    top = want[0]
    assert all(abs(a - b) <= 1e-13 * top for a, b in zip(got, want))
    assert rank(got, got[0]) == rank(want, top)


def test_shapes_and_exact_cases():
    assert singular_values([]) == []
    assert singular_values([[]]) == []
    assert singular_values([[0j, 0j], [0j, 0j], [0j, 0j]]) == [0.0, 0.0]
    # 1 x n and n x 1: the norm of the only row or column
    assert singular_values([[3, 4j]]) == [5.0]
    assert singular_values([[3], [4j]]) == [5.0]
    # a duplicated row leaves one exact zero direction in a wide matrix
    got = singular_values([[1, 2j, 3], [1, 2j, 3]])
    assert len(got) == 2 and got[1] <= 1e-15 * got[0]


def test_scale_does_not_underflow():
    # [[1, 1], [1, 2]] has the values (3 +- sqrt(5)) / 2
    phi = (1 + math.sqrt(5)) / 2
    got = singular_values([[1e-200, 1e-200], [1e-200, 2e-200]])
    assert got == pytest.approx([phi**2 * 1e-200, phi**-2 * 1e-200], rel=1e-14)
    # a rank-one matrix whose columns differ by 205 orders of magnitude
    got = singular_values([[1e-200, 1e5], [1e-200, 1e5]])
    assert got[0] == pytest.approx(math.sqrt(2) * 1e5, rel=1e-15) and got[1] < 1e-300


def test_parallel_residue_near_underflow_converges():
    # five equal rows: the rotations leave a column of rounding residue
    # parallel to the first, which shrinks by about eps a sweep until its
    # angle underflows to 0 near the smallest normal float
    row = [
        complex(-16411.606025431727, -28341.22694359809),
        complex(-83695.95530782925, 54726.47499254641),
        complex(-86269.877803039, 50571.81214717027),
    ]
    got = singular_values([row] * 5)
    assert got[0] == pytest.approx(math.sqrt(5) * math.hypot(*map(abs, row)), rel=1e-15)
    assert got[1] < 1e-290 and got[2] == 0.0


def test_sweep_cap_raises(monkeypatch):
    rows = [[1, 2 + 1j], [3j, 4], [5, 6 - 2j]]
    assert len(singular_values(rows)) == 2
    monkeypatch.setattr(linalg, "_JACOBI_SWEEPS", 1)
    with pytest.raises(NoConvergence, match=r"^svd: .* did not converge in 1 sweeps$"):
        singular_values(rows)
