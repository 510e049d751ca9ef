import struct

import numpy as np
import pytest

from seirvax import BASELINE_PARAMS, StateVec, control_sample


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
