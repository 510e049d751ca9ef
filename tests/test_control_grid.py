"""Bit-identity of the closed loop across every family, profile and law.

``data/control_grid_digests.json`` holds the sha256 of every Trajectory
column for a 200-step run of each admissible (g_family, h_family, law)
combination, including the families no bundled preset exercises. A change
that sets out to alter model output re-records it with

    PYTHONPATH=src python tests/test_control_grid.py
"""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seirvax import (
    BASELINE_PARAMS,
    ConfigError,
    ControlConfig,
    ModulationFamily,
    ReferenceProfile,
    ScenarioConfig,
    StabilityCriterion,
    StateVec,
    VaccinationLaw,
    integrate,
)
from seirvax.cli import build_run_report, machine_items

from conftest import assert_rows_match_control_sample

DIGESTS = Path(__file__).parent / "data" / "control_grid_digests.json"

COLUMNS = (
    "t", "states", "rates", "dn", "va", "v", "g", "h", "h_dot", "r_star",
    "r_star_dot", "k_n", "k_i", "theta0", "theta1", "identity_residual",
    "reset_counts",
)

# Outbreak start on a coarse grid: 200 steps over 100 days, long enough for
# the switched design to change branch and for the unclamped law to reset.
BASE = ScenarioConfig(
    params=BASELINE_PARAMS,
    x0=StateVec(400.0, 150.0, 250.0, 200.0),
    control=ControlConfig(eps0=0.5, vartheta=0.08, c=0.2),
    horizon=100.0,
    dt=0.5,
)


def grid_scenarios():
    """(key, scenario) for every admissible combination."""
    for g, h, law in itertools.product(ModulationFamily, ReferenceProfile, VaccinationLaw):
        control = replace(BASE.control, g_family=g, h_family=h, law=law)
        try:
            control.validated(BASE.params)
        except ConfigError:
            continue
        yield f"{g.value}/{h.value}/{law.value}", replace(BASE, control=control)


SCENARIOS = dict(grid_scenarios())


def _sha(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def trajectory_digest(traj) -> dict:
    out = {name: _sha(getattr(traj, name)) for name in COLUMNS}
    out["status"] = traj.status.value
    out["reset_events"] = hashlib.sha256(
        repr([(e.t, e.index, e.value_before) for e in traj.reset_events]).encode()
    ).hexdigest()
    return out


def record() -> dict:
    return {key: trajectory_digest(integrate(sc)) for key, sc in SCENARIOS.items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_grid_covers_every_admissible_combination(recorded):
    assert sorted(SCENARIOS) == sorted(recorded)
    assert len(SCENARIOS) == len(ModulationFamily) * len(ReferenceProfile) * len(VaccinationLaw)


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_columns_match_recorded_digests(key, recorded):
    assert trajectory_digest(integrate(SCENARIOS[key])) == recorded[key]


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_rows_match_the_single_sample_controller(key):
    assert_rows_match_control_sample(integrate(SCENARIOS[key]))


VERDICT_IDS = {c.value for c in StabilityCriterion}


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_machine_block_is_finite(key):
    # every [machine] value is a finite number, except scenario, status and
    # the verdicts, which read 1, 0 or na
    items = machine_items(build_run_report(integrate(SCENARIOS[key])))
    verdicts = {k: v for k, v in items if k in VERDICT_IDS}
    assert set(verdicts) == VERDICT_IDS
    assert set(verdicts.values()) <= {"0", "1", "na"}
    for name, value in items:
        if name not in VERDICT_IDS and name not in ("scenario", "status"):
            assert math.isfinite(float(value)), (name, value)


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
