"""Memory a run's analyses add on top of the run.

A recorded run holds 146 bytes per row. The passes that read it after the
loop (the derived control columns, the steady-state search and the
integral identity check) each hold at most three whole-run scratch
buffers beyond their result, so their transient memory, traced peak minus
what the result retains, stays within 32 bytes per row plus a fixed slack
for small objects. Measured on fig2-saturated's 60001 rows, both on the
preset, which settles, and with a tolerance no sample meets, so the
steady-state search sees every sample moving.
"""

import tracemalloc
from dataclasses import replace

import pytest

from seirvax import build_preset, detect_steady_state, integral_test, integrate
from seirvax.control import _derived_values

BYTES_PER_ROW = 32
SLACK_BYTES = 64 * 1024

ANALYSES = {
    "derived_values": lambda traj: _derived_values(
        traj.scenario.control, traj.scenario.params, traj.N, traj.V_a, traj.g
    ),
    "detect_steady_state": detect_steady_state,
    "integral_test": integral_test,
}


@pytest.fixture(scope="module", params=[None, 1e-300], ids=["settles", "never-settles"])
def run(request):
    sc = build_preset("fig2-saturated")
    if request.param is not None:
        sc = replace(sc, steady_state_tol=request.param)
    traj = integrate(sc)
    assert len(traj) == 60001
    assert detect_steady_state(traj).found is (request.param is None)
    return traj


def transient_bytes(analysis, traj) -> int:
    """Traced peak of one call minus the bytes its result still holds."""
    tracemalloc.start()
    try:
        result = analysis(traj)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


@pytest.mark.parametrize("name", ANALYSES)
def test_analysis_transients_stay_within_three_buffers(run, name):
    extra = transient_bytes(ANALYSES[name], run)
    assert extra <= BYTES_PER_ROW * len(run) + SLACK_BYTES, (
        f"{name} held {extra / len(run):.1f} B/row beyond its result"
    )
