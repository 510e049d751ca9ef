import hashlib
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from seirvax import BASELINE_PARAMS, StateVec, control_sample, sim
from seirvax.cli import build_run_report, render_report

# sha256 of the whole report.txt text of every bundled preset ("presets")
# and of every control-grid combination ("grid"); re-recorded with
#     PYTHONPATH=src python tests/test_artifacts.py
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"


@pytest.fixture
def params():
    return BASELINE_PARAMS


@pytest.fixture
def outbreak_x0():
    return StateVec(400.0, 150.0, 250.0, 200.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, scale=800.0) -> StateVec:
    """Random nonnegative state with a comfortably positive total."""
    while True:
        x = StateVec(*rng.uniform(0.0, scale, size=4))
        if x.N > 1.0:
            return x


# Trajectory control columns in ControlSample's field order.
CONTROL_COLUMNS = (
    "va", "v", "g", "h", "h_dot", "r_star", "r_star_dot", "k_n", "k_i", "dn",
    "theta0", "theta1", "identity_residual",
)


def assert_rows_match_control_sample(traj) -> int:
    """Every recorded row's control columns equal control_sample on that
    row, bit for bit, the indicators and the identity residual included.

    The sample is (t_k, x_k, negative_k) with x_k the recorded (post-reset)
    state and negative_k = reset_counts[k] > 0. Returns how many rows were
    compared with negative_k true.
    """
    sc = traj.scenario
    pack = struct.Struct(f"{len(CONTROL_COLUMNS)}d").pack
    columns = [getattr(traj, name).tolist() for name in CONTROL_COLUMNS]
    negatives = 0
    for k, (t, x) in enumerate(zip(traj.t.tolist(), traj.states.tolist())):
        negative = bool(traj.reset_counts[k] > 0)
        negatives += negative
        expected = control_sample(sc.control, sc.params, t, StateVec(*x), sc.x0.R, negative)
        recorded = tuple(column[k] for column in columns)
        assert pack(*recorded) == pack(*expected), (k, recorded, expected)
    return negatives


def report_sha256(traj) -> str:
    """sha256 of the report.txt text the CLI writes for this run."""
    return hashlib.sha256(render_report(build_run_report(traj)).encode("utf-8")).hexdigest()


def nan_profile_from(monkeypatch, t_nan: float) -> None:
    """Make every run's reference profile read nan from time t_nan on.

    integrate looks control_pieces up on seirvax.sim when it starts, so the
    wrapped profile reaches the step loop: at the first boundary with
    t >= t_nan the demand V_a is nan, the clamp passes it through to V, and
    the next stage population is nan, a blowup inside that boundary's step.
    """
    pieces = sim.control_pieces
    nans = (math.nan,) * 4

    def patched(cfg, params, r0):
        profile, modulation, law = pieces(cfg, params, r0)

        def late_nan(t, N, dN):
            return nans if t >= t_nan else profile(t, N, dN)

        return late_nan, modulation, law

    monkeypatch.setattr(sim, "control_pieces", patched)
