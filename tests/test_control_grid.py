"""Bit-identity of the closed loop across every family, profile and law.

``data/control_grid_digests.json`` holds the sha256 of every Trajectory
column, and of the four control values a run does not record
(``conftest.run_columns``), for a 200-step run of each admissible
(g_family, reference, law) combination, including the families no
bundled preset exercises. The
reference is each h_family at the grid's settling rate, or section7 held
at R(0)/N by c = 0 (``section7@c=0``). A change
that sets out to alter model output re-records it with

    PYTHONPATH=src python tests/test_control_grid.py

Scaling the population by a power of two scales such a run exactly, bit
for bit, unless a formula of the run carries an absolute unit. Each run's
trajectory.csv equals the csv.writer reference byte for byte; about a
quarter of the combinations write values below 1e-4, which take the
writer's repr path.
"""

import functools
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seirvax
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
    build_preset,
    integrate,
    preset_names,
)
from seirvax.cli import build_run_report, machine_items, render_report, write_trajectory_csv

from conftest import (
    REPORT_DIGESTS,
    assert_rows_match_control_sample,
    reference_write,
    report_sha256,
    run_columns,
)
from test_artifacts import machine_block_sha256, recorded_digests

DIGESTS = Path(__file__).parent / "data" / "control_grid_digests.json"

# Outbreak start on a coarse grid: 200 steps over 100 days, long enough for
# the switched design to change branch and for the unclamped law to reset.
BASE = ScenarioConfig(
    params=BASELINE_PARAMS,
    x0=StateVec(400.0, 150.0, 250.0, 200.0),
    control=ControlConfig(eps0=0.5, vartheta=0.08, c=0.2),
    horizon=100.0,
    dt=0.5,
)


# The reference axis: each profile at BASE's settling rate, and section7 at
# c = 0, the pinned reference h = R(0)/N with h_dot = 0.
REFERENCES = {h.value: {"h_family": h} for h in ReferenceProfile}
REFERENCES["section7@c=0"] = {"h_family": ReferenceProfile.EXP_SETTLING, "c": 0.0}


def grid_scenarios():
    """(key, scenario) for every admissible combination."""
    for g, (ref, fields), law in itertools.product(
        ModulationFamily, REFERENCES.items(), VaccinationLaw
    ):
        control = replace(BASE.control, g_family=g, law=law, **fields)
        try:
            control.validated(BASE.params)
        except ConfigError:
            continue
        yield f"{g.value}/{ref}/{law.value}", replace(BASE, control=control)


SCENARIOS = dict(grid_scenarios())


def _sha(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def trajectory_digest(traj) -> dict:
    out = {name: _sha(column) for name, column in run_columns(traj).items()}
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
    assert len(SCENARIOS) == len(ModulationFamily) * len(REFERENCES) * len(VaccinationLaw)


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_columns_match_recorded_digests(key, recorded):
    assert trajectory_digest(integrate(SCENARIOS[key])) == recorded[key]


# numpy picks a SIMD loop per CPU, and np.exp's results differ between its
# loops; the digests must not depend on which loop a CPU gets. The child
# re-records the grid's column digests and, from the same runs, its
# whole-report digests (integral_test's np.exp lands only in the report),
# and the six presets' trajectory.csv and [machine] digests of
# perfbench/digests.json (preset_artifact_digests, in the child's own
# process). It runs with NPY_DISABLE_CPU_FEATURES naming its argument list,
# after checking each named group is off, since numpy silently ignores a
# name it does not know. glibc likewise picks its exp code by CPU feature,
# and GLIBC_TUNABLES masks features for the child alone; the child prints
# exp_probe_sha256 so the parent can tell whether the mask took effect.
DISPATCH_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
on = [name for name in sys.argv[1:] if __cpu_features__.get(name) is not False]
assert not on, f"not disabled: {on}"
from seirvax import integrate
from conftest import report_sha256
from test_control_grid import (
    SCENARIOS, exp_probe_sha256, preset_artifact_digests, trajectory_digest,
)
runs = {key: integrate(sc) for key, sc in SCENARIOS.items()}
print(json.dumps({
    "exp_probe": exp_probe_sha256(),
    "columns": {key: trajectory_digest(traj) for key, traj in runs.items()},
    "reports": {key: report_sha256(traj) for key, traj in runs.items()},
    "presets": preset_artifact_digests(),
}))
"""
NO_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def exp_probe_sha256() -> str:
    """sha256 of math.exp over 100,000 fixed inputs in (-50, 0]; glibc's FMA
    and generic exp differ on 67 of them."""
    values = [math.exp(-50.0 * k / 100_000) for k in range(100_000)]
    return hashlib.sha256(struct.pack(f"{len(values)}d", *values)).hexdigest()


def preset_artifact_digests() -> dict:
    """Each preset's trajectory.csv and [machine] digests, in the layout of
    perfbench/digests.json, from direct integrate, write_trajectory_csv and
    build_run_report calls, so nothing forks."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        for name in preset_names():
            traj = integrate(build_preset(name))
            write_trajectory_csv(traj, path)
            report = render_report(build_run_report(traj)).encode("utf-8")
            digests[name] = {
                "trajectory_csv": hashlib.sha256(path.read_bytes()).hexdigest(),
                "machine_block": machine_block_sha256(report),
            }
    return digests


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        return {}
    return __cpu_features__


NUMPY_FEATURE_GROUPS = pytest.mark.skipif(
    not {"X86_V3", *NO_AVX512} <= set(_cpu_features()),
    reason="numpy names no x86-64 feature groups on this machine",
)


# (environment variable, value, numpy feature groups the child checks are off)
@pytest.mark.parametrize("variable, value, disabled", [
    pytest.param("NPY_DISABLE_CPU_FEATURES", " ".join(NO_AVX512), NO_AVX512,
                 id="without-X86_V4", marks=NUMPY_FEATURE_GROUPS),
    pytest.param("NPY_DISABLE_CPU_FEATURES", " ".join(NO_AVX512 + ("X86_V3",)),
                 NO_AVX512 + ("X86_V3",), id="without-X86_V3", marks=NUMPY_FEATURE_GROUPS),
    pytest.param("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-FMA,-AVX2,-FMA4", (),
                 id="without-glibc-FMA", marks=pytest.mark.xfail(
                     strict=True, reason="ROADMAP item 13: glibc's generic exp is not "
                     "correctly rounded on inputs the runs use, so digests move")),
])
def test_digests_hold_on_a_narrower_cpu(variable, value, disabled, recorded):
    path = [str(Path(seirvax.__file__).parents[1]), str(Path(__file__).parent)]
    path.append(os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env[variable] = value
    child = subprocess.run([sys.executable, "-c", DISPATCH_CHILD, *disabled], env=env,
                           capture_output=True, text=True, timeout=300, check=False)
    assert child.returncode == 0, child.stderr
    digests = json.loads(child.stdout)
    if variable == "GLIBC_TUNABLES" and digests["exp_probe"] == exp_probe_sha256():
        pytest.skip(f"{variable}={value} left math.exp unchanged: this libm ignores it")
    columns, reports = digests["columns"], digests["reports"]
    assert sorted(columns) == sorted(recorded)
    assert [key for key in recorded if columns[key] != recorded[key]] == []
    recorded_reports = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))["grid"]
    assert sorted(reports) == sorted(recorded_reports)
    assert [key for key in recorded_reports if reports[key] != recorded_reports[key]] == []
    presets, recorded_presets = digests["presets"], recorded_digests()
    assert sorted(presets) == sorted(recorded_presets)
    assert [name for name in recorded_presets if presets[name] != recorded_presets[name]] == []


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_rows_match_the_single_sample_controller(key):
    assert_rows_match_control_sample(integrate(SCENARIOS[key]))


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_trajectory_csv_matches_csv_writer_reference(key, tmp_path):
    traj = integrate(SCENARIOS[key])
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    reference_write(traj, tmp_path / "reference.csv")
    written = (tmp_path / "trajectory.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()


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


@pytest.mark.parametrize("key", list(SCENARIOS))
def test_whole_report_matches_recorded_digest(key):
    recorded = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))["grid"]
    assert report_sha256(integrate(SCENARIOS[key])) == recorded[key]


# Columns in people; every other column is a rate, a fraction, a time or a
# count.
SCALED = ("states", "N", "rates", "R_star", "R_star_dot", "dN")

# Formulas that carry an absolute unit (one individual), so a run that
# evaluates them does not scale with its population.
ABSOLUTE_UNIT = {
    ModulationFamily.IMMUNE_DECAY_DESIGN: "the decay design's g = (N - e^{-vartheta t})/(eps N)",
    ReferenceProfile.DECAY_DESIGN: "the theorem6_ii profile's eps0*(slow - fast)/gap",
}


def absolute_unit_formulas(sc: ScenarioConfig) -> list[str]:
    # the none law evaluates no modulation (g = 0)
    used = [sc.control.h_family]
    if sc.control.law is not VaccinationLaw.NONE:
        used.append(sc.control.g_family)
    return [ABSOLUTE_UNIT[f] for f in used if f in ABSOLUTE_UNIT]


def scaled(sc: ScenarioConfig, lam: float) -> ScenarioConfig:
    """sc with its population times lam."""
    return replace(sc, x0=StateVec(*(lam * v for v in sc.x0)))


@functools.cache
def base_run(key: str):
    return integrate(SCENARIOS[key])


def not_equivariant(base, run, lam: float) -> list[str]:
    """Columns of run (and status) that are not base's, times lam for the
    columns in people, bit for bit."""
    want, got = run_columns(base), run_columns(run)
    bad = [
        name for name, column in got.items()
        if column.tobytes() != (lam * want[name] if name in SCALED else want[name]).tobytes()
    ]
    return bad + ["status"] * (run.status is not base.status)


def test_thirty_combinations_carry_an_absolute_unit():
    # 27 of the 84: the name dates from the 96-combination grid, whose
    # eq33a family copied eq33b's three theorem6_ii cases
    assert sum(bool(absolute_unit_formulas(sc)) for sc in SCENARIOS.values()) == 27


def assert_equivariant(lam: float):
    for key, sc in SCENARIOS.items():
        bad = not_equivariant(base_run(key), integrate(scaled(sc, lam)), lam)
        units = absolute_unit_formulas(sc)
        if units:
            assert bad, (
                f"{key} now scales with its population at lam = {lam!r}, although "
                f"{' and '.join(units)} carries an absolute unit"
            )
        else:
            assert not bad, (key, lam, bad)


# lam = 2**k takes the grid's population of 1000 from about 1.8e-12 (k = -50
# puts it below N_FLOOR) to about 2.6e154; from k = 504 the incidence
# product overflows (the xfail below)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(k=st.integers(-49, 503).filter(bool))
@example(k=-49)
@example(k=503)
def test_population_scale_is_equivariant(k):
    assert_equivariant(2.0**k)


@pytest.mark.xfail(
    strict=True,
    reason="make_rate_fn's incidence beta * S * I / N overflows "
    "once S*I exceeds 1.8e308: at lam = 2**504 the 57 unit-free combinations end "
    "blowup after one row; build_matrix's beta * (I / N) * S stays finite",
)
def test_population_scale_is_equivariant_past_the_incidence_overflow():
    assert_equivariant(2.0**504)


# [machine] keys in people
KEYS_IN_PEOPLE = {f"{c}_{at}" for c in "SEIRN" for at in ("ss", "end")} | {
    "integral_max_pointwise_residual"
}


@pytest.mark.parametrize(
    "name", [n for n in preset_names() if not absolute_unit_formulas(build_preset(n))]
)
def test_machine_block_scales_with_the_population(name):
    sc = replace(build_preset(name), horizon=100.0)
    base = machine_items(build_run_report(integrate(sc)))
    run = machine_items(build_run_report(integrate(scaled(sc, 4.0))))
    assert [k for k, _ in run] == [k for k, _ in base]
    for (key, want), (_, got) in zip(base, run):
        if key in KEYS_IN_PEOPLE:
            assert float(got) == 4.0 * float(want), key
        else:
            assert got == want, key


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
