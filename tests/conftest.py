import csv
import hashlib
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from seirvax import (
    BASELINE_PARAMS, ControlSample, StateVec, Trajectory, control, control_sample,
    make_rate_fn,
)
from seirvax.cli import (
    _CSV_CHUNK_ROWS,
    TRAJECTORY_COLUMNS,
    build_run_report,
    render_report,
)

# sha256 of the whole report.txt text of every bundled preset ("presets")
# and of every control-grid combination ("grid"), and of each preset's
# --check-stability stdout ("check_stability"); re-recorded with
#     PYTHONPATH=src python tests/test_artifacts.py
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(lang: str) -> str:
    """The text of README's first ```lang code block."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"```{lang}\n", 1)[1].split("```\n", 1)[0]


def readme_ini(**edits: str | None) -> str:
    """README's ini example without its `;` comment lines: each key that
    edits names set to its value there, or left out where that is None."""
    lines = []
    for line in readme_block("ini").splitlines():
        key = line.partition(" = ")[0]
        if line.startswith(";") or (key in edits and edits[key] is None):
            continue
        lines.append(f"{key} = {edits[key]}" if key in edits else line)
    return "\n".join(lines) + "\n"


@pytest.fixture
def params():
    return BASELINE_PARAMS


@pytest.fixture
def outbreak_x0():
    return StateVec(400.0, 150.0, 250.0, 200.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rate(lo, hi):
    """Hypothesis strategy for finite floats in [lo, hi]."""
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def random_state(rng, scale=800.0) -> StateVec:
    """Random nonnegative state with a comfortably positive total."""
    while True:
        x = StateVec(*rng.uniform(0.0, scale, size=4))
        if x.N > 1.0:
            return x


# Every array column of a run, in field order: each Trajectory field but
# the scenario, the status and the reset events.
RECORDED_COLUMNS = tuple(
    f.name for f in fields(Trajectory)
    if f.name not in ("scenario", "status", "reset_events")
)


# The control values a step boundary composes but a run does not record:
# h_dot, R_star_dot, K_N and K_I.
UNRECORDED = tuple(name for name in ControlSample._fields if name not in RECORDED_COLUMNS)


def run_columns(traj) -> dict[str, np.ndarray]:
    """Every array column of a run by name: RECORDED_COLUMNS, then the
    UNRECORDED four, recomputed row by row.

    The run's own boundary_fn closure is memoryless, so it is called once
    per recorded row k at (t_k, N_k, I_k, reset_counts[k] > 0), the inputs
    the row's boundary called it with.
    """
    sc = traj.scenario
    boundary = control.boundary_fn(sc.control, sc.params, sc.x0.R)
    composed = np.array([
        boundary(t, N, I, count > 0) for t, N, I, count in zip(
            traj.t.tolist(), traj.N.tolist(), traj.I.tolist(), traj.reset_counts.tolist()
        )
    ]).reshape(len(traj), 10)
    columns = {name: getattr(traj, name) for name in RECORDED_COLUMNS}
    for j, name in enumerate(ControlSample._fields[:10]):
        if name in UNRECORDED:
            columns[name] = composed[:, j]
    return columns


def assert_rows_match_control_sample(traj) -> int:
    """Every recorded row's control columns equal control_sample on that
    row, bit for bit, the indicators, the identity residual and the
    UNRECORDED four (run_columns) included.

    The sample is (t_k, x_k, negative_k) with x_k the recorded (post-reset)
    state and negative_k = reset_counts[k] > 0. Returns how many rows were
    compared with negative_k true.
    """
    sc = traj.scenario
    pack = struct.Struct(f"{len(ControlSample._fields)}d").pack
    columns = run_columns(traj)
    columns = [columns[name].tolist() for name in ControlSample._fields]
    negatives = 0
    for k, (t, x) in enumerate(zip(traj.t.tolist(), traj.states.tolist())):
        negative = bool(traj.reset_counts[k] > 0)
        negatives += negative
        expected = control_sample(sc.control, sc.params, t, StateVec(*x), sc.x0.R, negative)
        recorded = tuple(column[k] for column in columns)
        assert pack(*recorded) == pack(*expected), (k, recorded, expected)
    return negatives


def continuous_reference(traj) -> np.ndarray:
    """The run's states without the zero-order hold, one row per recorded t.

    scipy's DOP853 at rtol = atol = 1e-13 drives the run's own rate and
    boundary_fn closures, and evaluates the applied V = boundary(t, N, I,
    False)[1] at every call instead of holding it across a step. The
    reference never resets, so it matches runs with no reset events only.
    The tight atol matters: at 1e-12*N its floor hides RK4's error.
    """
    sc = traj.scenario
    rate = make_rate_fn(sc.params)
    boundary = control.boundary_fn(sc.control, sc.params, sc.x0.R)

    def field(t, x):
        S, E, I, R = x
        return rate(S, E, I, R, boundary(t, S + E + I + R, I, False)[1])

    sol = solve_ivp(field, (0.0, float(traj.t[-1])), list(sc.x0), method="DOP853",
                    t_eval=traj.t, rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    return sol.y.T


def csv_column(traj, name: str) -> np.ndarray:
    """The column of traj that trajectory.csv's column name holds, as the
    file writes it: reset_flag is reset_counts, an indicator is 0 or 1."""
    column = traj.reset_counts if name == "reset_flag" else getattr(traj, name)
    return column.astype(np.int64) if column.dtype == np.bool_ else column


def reference_write(traj, path) -> None:
    """trajectory.csv as csv.writer (excel dialect) writes it, the
    formulation the file format was first defined by."""
    columns = [csv_column(traj, name) for name in TRAJECTORY_COLUMNS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for start in range(0, len(traj), _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            writer.writerows(zip(*(col[chunk].tolist() for col in columns)))


def report_sha256(traj) -> str:
    """sha256 of the report.txt text the CLI writes for this run."""
    return hashlib.sha256(render_report(build_run_report(traj)).encode("utf-8")).hexdigest()


def nan_profile_from(monkeypatch, t_nan: float) -> None:
    """Make every run's reference profile read nan from time t_nan on.

    boundary_fn looks _profile_fn up on seirvax.control when it builds the
    closure, so the wrapped profile reaches integrate's step loop: at the
    first boundary with t >= t_nan the demand V_a is nan, the clamp passes
    it through to V, and that boundary ends the run a blowup.
    """
    profile_fn = control._profile_fn
    nans = (math.nan,) * 2

    def patched(cfg, params, r0):
        profile = profile_fn(cfg, params, r0)

        def late_nan(t, N):
            return nans if t >= t_nan else profile(t, N)

        return late_nan

    monkeypatch.setattr(control, "_profile_fn", patched)
