import struct

import numpy as np
import pytest

from seirvax import BASELINE_PARAMS, StateVec, make_control_fn


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


# Trajectory control columns in make_control_fn's output order.
CONTROL_COLUMNS = ("va", "v", "g", "h", "h_dot", "r_star", "r_star_dot", "k_n", "k_i", "dn")


def assert_rows_match_control_fn(traj) -> int:
    """Every recorded row's control columns equal the single-sample
    controller on that row, bit for bit.

    The sample is (t_k, N_k, I_k, negative_k) with N_k = S + E + I + R
    summed in Python floats from the recorded (post-reset) state and
    negative_k = reset_counts[k] > 0. Returns how many rows were compared
    with negative_k true.
    """
    sc = traj.scenario
    control = make_control_fn(sc.control, sc.params, sc.x0.R)
    pack = struct.Struct(f"{len(CONTROL_COLUMNS)}d").pack
    columns = [getattr(traj, name).tolist() for name in CONTROL_COLUMNS]
    negatives = 0
    for k, (t, (S, E, I, R)) in enumerate(zip(traj.t.tolist(), traj.states.tolist())):
        negative = bool(traj.reset_counts[k] > 0)
        negatives += negative
        expected = control(t, S + E + I + R, I, negative)
        recorded = tuple(column[k] for column in columns)
        assert pack(*recorded) == pack(*expected), (k, recorded, expected)
    return negatives
