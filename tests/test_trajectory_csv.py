"""trajectory.csv writer against a csv.writer reference, byte for byte.

write_trajectory_csv stacks each chunk's float columns into one block. A run
of adjacent columns that is plain (zero or 1e-4 <= |x| < 1e16) on every row
of the chunk is formatted by one orjson dump of that run; any other column
is one repr of the whole column (cli._csv_cells), split into its cells.
The int columns are one more block. The reference
(conftest.reference_write) is the csv.writer (excel dialect) formulation
the file format was first defined by; the two must agree on every row count
around the chunk boundary, on both sides of each edge of that range, on
every float that formats unusually (signed zero, subnormals, exponent
forms, infinities, nan), and on both paths in one file: some columns are
drawn from the plain range only, and one of them leaves it in one chunk
only, so it switches path at a chunk boundary.
"""

import math

import numpy as np
from hypothesis import Phase, given, settings
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
# t, S, E, I, R, dN, V_a, V, g, h, R_star (N is S + E + I + R, as integrate sums it)
N_FLOAT_COLUMNS = 11
cell = st.one_of(st.sampled_from(SPECIALS), st.floats())
# values both orjson and repr print as plain decimals, edges included
plain_cell = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-4, -1e-4, math.nextafter(1e16, 0), 1e15, 2.0**53 + 2)),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)
OUTSIDE_PLAIN = (5e-324, 1e-05, math.nextafter(1e-4, 0), 1e16, -1e300, math.inf, math.nan)


@st.composite
def trajectories(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    # at least one float column is drawn from the plain range only and at
    # least one from every float
    plain = draw(st.lists(st.booleans(), min_size=N_FLOAT_COLUMNS,
                          max_size=N_FLOAT_COLUMNS).filter(lambda p: 0 < sum(p) < N_FLOAT_COLUMNS))
    floats = []
    for j, is_plain in enumerate(plain):
        elements = plain_cell if is_plain else cell
        col = draw(hnp.arrays(np.float64, n, elements=elements, fill=elements))
        # a mixed column of 13 rows or more holds every special value; a
        # single row holds one per mixed column
        if not is_plain:
            for k in range(min(n, len(SPECIALS))):
                col[k] = SPECIALS[(j + k) % len(SPECIALS)]
        floats.append(col)
    # one plain column leaves the range in a single chunk: it is formatted
    # by one repr of the column there and in a block in every other chunk
    if n > _CSV_CHUNK_ROWS:
        switching = floats[draw(st.sampled_from([j for j, p in enumerate(plain) if p]))]
        first = draw(st.integers(0, (n - 1) // _CSV_CHUNK_ROWS)) * _CSV_CHUNK_ROWS
        row = draw(st.integers(first, min(n, first + _CSV_CHUNK_ROWS) - 1))
        switching[row] = draw(st.sampled_from(OUTSIDE_PLAIN))
    counts = st.integers(0, 4)
    reset_counts = draw(hnp.arrays(np.int64, n, elements=counts, fill=counts))
    reset_counts[-1] = draw(st.integers(1, 4))
    theta0, theta1 = (draw(hnp.arrays(np.bool_, n)) for _ in range(2))
    t, S, E, I, R, dN, V_a, V, g, h, R_star = floats
    unused = np.zeros(n)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, overflow
        N = S + E + I + R
    return Trajectory(
        scenario=build_preset("fig2-saturated"), status=RunStatus.OK,
        t=t, states=np.column_stack((S, E, I, R)), N=N,
        rates=np.zeros((n, 4)), V_a=V_a, V=V, g=g, h=h, R_star=R_star, dN=dN,
        theta0=theta0, theta1=theta1, identity_residual=unused,
        reset_counts=reset_counts, reset_events=(),
    )


# no shrink phase: shrinking columns of up to 2*_CSV_CHUNK_ROWS + 3 rows
# takes minutes, and the first failing example is reported as drawn
@settings(derandomize=True, deadline=None, max_examples=20,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(trajectories())
def test_writer_matches_csv_writer_reference(tmp_path_factory, traj):
    out = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, out / "fast.csv")
    reference_write(traj, out / "reference.csv")
    fast = (out / "fast.csv").read_bytes()
    assert fast == (out / "reference.csv").read_bytes()
    assert fast.count(b"\r\n") == len(traj) + 1

