"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import pytest

import calibrate
import compare
import tracing
import workloads


@pytest.fixture(scope="module")
def sx():
    return workloads.load_seirvax()


def _run(wl, sx, tracer=None):
    wl.build(sx)
    return workloads.run_pass(wl, tracer)


def test_presets_cli_passes_digest_check(sx, tmp_path):
    wl = workloads.PresetsCli(["constant-population-check"], tmp_path)
    res = _run(wl, sx)
    assert (res.attempted, res.failed, res.steps) == (1, 0, 10_000)


def test_flipped_digest_byte_fails_the_op(sx, tmp_path):
    digests = workloads.load_digests()
    entry = dict(digests["constant-population-check"])
    d = entry["trajectory_csv"]
    entry["trajectory_csv"] = ("0" if d[0] != "0" else "1") + d[1:]
    digests["constant-population-check"] = entry
    wl = workloads.PresetsCli(["constant-population-check"], tmp_path, digests)
    res = _run(wl, sx)
    assert (res.attempted, res.failed, res.steps) == (1, 1, 0)


def test_sweep_rows_checked(sx, tmp_path):
    wl = workloads.Sweep([0.7, 1.3], tmp_path, horizon=20.0)
    res = _run(wl, sx)
    assert (res.attempted, res.failed, res.steps) == (2, 0, 4_000)


def test_sweep_that_raises_partway_counts_unwritten_rows(sx, tmp_path, monkeypatch):
    real = sx.cli.integrate
    calls = []

    def integrate_then_fail(scenario):
        calls.append(scenario)
        if len(calls) == 2:
            raise sx.pkg.DegenerateProfileError("injected")
        return real(scenario)

    monkeypatch.setattr(sx.cli, "integrate", integrate_then_fail)
    wl = workloads.Sweep([0.7, 1.3, 1.9], tmp_path, horizon=20.0)
    res = _run(wl, sx)
    assert (res.attempted, res.failed, res.steps) == (3, 2, 2_000)


def test_monte_carlo_checks_pass(sx):
    draws = workloads.make_inputs("monte-carlo", 1)[:3]
    res = _run(workloads.MonteCarlo(draws, horizon=6.0), sx)
    assert (res.attempted, res.failed, res.steps) == (3, 0, 900)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOAD_NAMES:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    assert workloads.make_inputs("sweep", 7) != workloads.make_inputs("sweep", 8)


def test_traced_pass_counts_and_restores(sx, tmp_path):
    wl = workloads.Sweep([0.7, 1.3], tmp_path, horizon=20.0)
    originals = (sx.cli.integrate, sx.sim.reference, sx.sim.ScenarioConfig.resolved)
    wl.build(sx)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, sx):
        res = workloads.run_pass(wl, tracer)
    assert (sx.cli.integrate, sx.sim.reference, sx.sim.ScenarioConfig.resolved) == originals
    assert res.failed == 0
    m = tracing.layer_metrics(tracer)
    assert m["sim.steps"] == 4_000
    assert m["model.rate_calls"] == 4 * 4_000 + 2
    assert m["control.reference_calls"] == m["control.law_calls"] == 4_002
    assert m["cli.sweep_rows"] == 2 and m["cli.sweep_error_rows"] == 0
    assert 0.0 < m["sim.integrate_self_s"] < m["sim.integrate_s"]
    ops = [s for s in tracer.spans if s.name == "op"]
    assert len(ops) == 1 and all(s.op == 0 for s in tracer.spans)
    assert {s.name for s in tracer.spans} >= {
        "sim.integrate", "sim.resolve", "sim.steady_state", "stability.verdicts",
        "stability.integral_test", "cli.report", "cli.sweep_row",
    }


def test_sampling_during_a_call_is_taken_out_of_its_time():
    cal = calibrate.Calibrator()
    with cal.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
        raw = time.perf_counter() - t0
    samples = len(cal.samples)
    own, calibrated = cal.scale(raw)
    assert samples >= 2 and cal.samples == []
    assert 0.0 < own < raw and calibrated > 0.0


def test_compare_verdicts():
    base = {s: 10.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, 0.1, False)[0] == "better"
    assert compare.verdict(base, {s: v * 1.2 for s, v in base.items()}, 0.1, False)[0] == "worse"
    assert compare.verdict(base, dict(base), 0.1, False)[0] == "within bound"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(base, noisy, 0.1, False)[0] == "unresolved"


def test_fails_without_package_source(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
