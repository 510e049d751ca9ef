"""seirvax benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of the
same tree; nothing needs installing. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones listed
in BENCHMARK.json, with ``--trace 1`` the per-layer ones. See README.md in
this directory for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import tracing
import workloads

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"
# Set-ups timed before each pass; setup_s is the median of all of them.
SETUP_REPEATS = 3
# Per-layer values that must repeat exactly from pass to pass and run to run.
EXACT_LAYER_METRICS = (
    "model.rate_calls", "control.reference_calls", "control.law_calls",
    "control.clamp_frac", "sim.steps", "sim.reset_count", "cli.csv_bytes",
    "cli.sweep_rows", "cli.sweep_error_rows", "_runs", "_complete_runs",
)


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = dirty = None
    if (workloads.ROOT / ".git").exists():
        def git(*cmd):
            try:
                return subprocess.run(
                    ["git", "-C", str(workloads.ROOT), *cmd],
                    capture_output=True, text=True, timeout=30, check=False,
                ).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                return ""

        commit = git("rev-parse", "HEAD") or None
        if commit:
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def repeat_for(seconds: float, run_once) -> list:
    """Call ``run_once`` at least once, and again while the next call is
    expected (from the last one) to end within ``seconds`` of the start."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


class Setup:
    """Import the package and build the workload's scenarios, timed.

    Called before every pass, so the setup samples spread over the whole
    run instead of sharing one moment of machine speed. The pass after it
    runs on the modules it imported.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.seconds: list[float] = []
        self.calibrated: list[float] = []

    def __call__(self):
        cal = calibrate.Calibrator()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            sx = workloads.load_seirvax()
            self.wl.build(sx)
            raw, calibrated = cal.scale(time.perf_counter() - t0)
            self.seconds.append(raw)
            self.calibrated.append(calibrated)
        return sx


def untraced_run(wl, setup: Setup, seconds: float) -> tuple[dict, list]:
    def once():
        setup()
        return workloads.run_pass(wl)

    passes = repeat_for(seconds, once)
    wall = statistics.median(p.calibrated_s for p in passes)
    metrics = {
        "wall_s": wall,
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "steps_per_s": statistics.median(p.steps for p in passes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes


def traced_run(wl, setup: Setup, seconds: float) -> tuple[dict, list, list, list[str]]:
    """Alternate untraced and traced passes; per-layer times are medians
    over traced passes, counts must agree exactly between them."""

    def pair():
        sx = setup()
        untraced = workloads.run_pass(wl)
        tracer = tracing.Tracer()
        with tracing.installed(tracer, sx):
            traced = workloads.run_pass(wl, tracer)
        return untraced, traced, tracer

    pairs = repeat_for(seconds, pair)
    untraced = [u for u, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    tracers = [tr for _, _, tr in pairs]
    # Layer times are scaled by their pass's calibration, like wall_s.
    layers = [
        tracing.layer_metrics(tr, t.calibrated_s / t.wall_s)
        for t, tr in zip(traced, tracers)
    ]

    problems = []
    for key in EXACT_LAYER_METRICS:
        if len({m[key] for m in layers}) != 1:
            problems.append(f"{key} differs between traced passes")
    first = layers[0]
    if first["sim.steps"] != untraced[0].steps:
        problems.append(
            f"traced sim.steps {first['sim.steps']} != checked steps {untraced[0].steps}"
        )
    if first["_runs"] == first["_complete_runs"]:
        # rate is evaluated 4 times per RK4 step plus once at the last boundary
        want = 4 * first["sim.steps"] + first["_runs"]
        if first["model.rate_calls"] != want:
            problems.append(f"model.rate_calls {first['model.rate_calls']} != {want}")

    metrics = {
        key: (first[key] if key in EXACT_LAYER_METRICS
              else statistics.median(m[key] for m in layers))
        for key in first if not key.startswith("_")
    }
    metrics["raw_wall_s"] = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = (
        statistics.median(p.calibrated_s for p in traced)
        - statistics.median(p.calibrated_s for p in untraced)
    )
    return metrics, untraced + traced, tracers, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run passes while the next is expected to end within this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the full result, with environment, as a JSON line")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1: write every recorded span as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    import numpy  # noqa: F401  -- imported up front so setup_s excludes it

    inputs = workloads.make_inputs(args.workload, args.seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    try:
        wl = workloads.make_workload(args.workload, inputs, work)
        setup = Setup(wl)
        if args.trace:
            metrics, passes, tracers, problems = traced_run(wl, setup, args.seconds)
        else:
            metrics, passes = untraced_run(wl, setup, args.seconds)
            tracers, problems = [], []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["setup_s"] = statistics.median(setup.calibrated)
    metrics["ok_op_frac"] = 1.0 - failed / attempted
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    raw = {
        "failed_op_frac": failed / attempted,
        "raw_setup_s": statistics.median(setup.seconds),
        "raw_wall_s": metrics["raw_wall_s"],
    }
    print("  not gated (raw times are uncalibrated medians):")
    for name, value in raw.items():
        print(f"  {name:<28} {value:>16.6g} {'frac' if name == 'failed_op_frac' else 's'}")
    print("env " + json.dumps(env))
    if args.spans and tracers:
        Path(args.spans).write_text(json.dumps(
            [[s.as_dict() for s in t.spans] for t in tracers]), encoding="utf-8")
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env,
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_calibrated_s": [p.calibrated_s for p in passes],
            **raw, **result,
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        sys.exit(2)
