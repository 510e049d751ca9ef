"""trajectory.csv writer against a csv.writer reference, byte for byte.

write_trajectory_csv formats each column chunk with orjson, re-formats with
repr the cells outside zero and 1e-4 <= |x| < 1e16, and joins the cells
itself. The reference (conftest.reference_write) is the csv.writer (excel
dialect) formulation the file format was first defined by; the two must
agree on every row count around the chunk boundary, on both sides of each
edge of that range, and on every float that formats unusually (signed
zero, subnormals, exponent forms, infinities, nan).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seirvax import build_preset
from seirvax.cli import _CSV_CHUNK_ROWS, write_trajectory_csv
from seirvax.sim import RunStatus, Trajectory

from conftest import reference_write


# the last five bound the range orjson formats: just below and at 1e-4, just
# below 1e16 (1e16 itself is above it), then two large values inside it
SPECIALS = (
    -0.0, 5e-324, 1e-05, 1e16, 1e300, math.inf, -math.inf, math.nan,
    math.nextafter(1e-4, 0), 1e-4, math.nextafter(1e16, 0), 1e15, 2.0**53 + 2,
)
ROW_COUNTS = (
    1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
    2 * _CSV_CHUNK_ROWS + 3,
)
# t, S, E, I, R, dN, V_a, V, g, h, R_star (N is the row sum of S, E, I, R)
N_FLOAT_COLUMNS = 11
cell = st.one_of(st.sampled_from(SPECIALS), st.floats())


@st.composite
def trajectories(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    floats = [draw(hnp.arrays(np.float64, n, elements=cell, fill=cell))
              for _ in range(N_FLOAT_COLUMNS)]
    # every special value lands in some column; a single row has room for
    # the first eleven, both sides of each range edge among them
    for j, col in enumerate(floats):
        for k in range(min(n, len(SPECIALS))):
            col[k] = SPECIALS[(j + k) % len(SPECIALS)]
    counts = st.integers(0, 4)
    reset_counts = draw(hnp.arrays(np.int64, n, elements=counts, fill=counts))
    reset_counts[-1] = draw(st.integers(1, 4))
    theta0, theta1 = (draw(hnp.arrays(np.bool_, n)) for _ in range(2))
    t, S, E, I, R, dn, va, v, g, h, r_star = floats
    unused = np.zeros(n)
    return Trajectory(
        scenario=build_preset("fig2-saturated"), status=RunStatus.OK,
        halt_time=None, t=t, states=np.column_stack((S, E, I, R)),
        rates=np.zeros((n, 4)), dn=dn, va=va, v=v, g=g, h=h, h_dot=unused,
        r_star=r_star, r_star_dot=unused, k_n=unused, k_i=unused,
        theta0=theta0, theta1=theta1, identity_residual=unused,
        reset_counts=reset_counts, reset_events=(),
    )


@settings(derandomize=True, deadline=None, max_examples=20)
@given(trajectories())
def test_writer_matches_csv_writer_reference(tmp_path_factory, traj):
    out = tmp_path_factory.mktemp("csv")
    with np.errstate(invalid="ignore", over="ignore"):  # N sums inf - inf
        write_trajectory_csv(traj, out / "fast.csv")
        reference_write(traj, out / "reference.csv")
    fast = (out / "fast.csv").read_bytes()
    assert fast == (out / "reference.csv").read_bytes()
    assert fast.count(b"\r\n") == len(traj) + 1

