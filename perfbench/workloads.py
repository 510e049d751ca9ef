"""Workload inputs, operations and output checks for the seirvax benchmark.

A workload is a fixed list of ops built from seeded inputs. Each op calls a
public entry point of the package (``cli.main`` or ``integrate``), is timed
around that call only, and is then checked against the outputs it must
produce. Checking happens outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"

WORKLOAD_NAMES = ("presets-cli", "sweep", "monte-carlo")

SWEEP_PRESET = "fig2-saturated"
SWEEP_POINTS = 10
# 100 of the preset's 600 days keeps the single cli.main call near 2 s, so
# the calibration taken at its two ends still describes it (see calibrate.py).
SWEEP_HORIZON = 100.0
SWEEP_BETA_RANGE = (0.5, 2.0)
SWEEP_MAX_RESIDUAL = 1e-10

MC_PRESET = "fig2-saturated"
MC_RUNS = 100
MC_HORIZON = 60.0
MC_DT = 0.02
MC_X0_MAX = 800.0
MC_BETA_RANGE = (0.5, 2.0)
MC_OMEGA_DAYS_RANGE = (5.0, 60.0)
MC_MAX_RESIDUAL = 1e-10
MC_MIN_STATE = -1e-6

MACHINE_MARKER = b"[machine]\n"


def load_seirvax(root: Path = ROOT) -> SimpleNamespace:
    """(Re-)import the package from ``root/src`` and return its modules.

    Any copy already imported is dropped first, so each call pays the full
    import of the package's own modules. Raises ImportError when the tree
    holds no package source.
    """
    src = root / "src"
    if not (src / "seirvax" / "__init__.py").is_file():
        raise ImportError(f"no seirvax package source under {src}")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "seirvax" or m.startswith("seirvax.")]:
        del sys.modules[name]
    pkg = importlib.import_module("seirvax")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"seirvax imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        pkg=pkg,
        cli=importlib.import_module("seirvax.cli"),
        sim=importlib.import_module("seirvax.sim"),
        model=importlib.import_module("seirvax.model"),
        presets=importlib.import_module("seirvax.presets"),
    )


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def machine_block_sha256(report_path: Path) -> str:
    """Digest of report.txt from its ``[machine]`` line to the end."""
    data = report_path.read_bytes()
    start = data.find(MACHINE_MARKER)
    if start < 0:
        raise ValueError(f"{report_path} has no [machine] block")
    return hashlib.sha256(data[start:]).hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))["presets"]


def _timed(call, op_span):
    """Run ``call()`` inside ``op_span()``, timing the call alone.

    Returns (result, or None if the call raised; seconds spent in it). An
    op that raises is a failed op, not the end of the benchmark.
    """
    with op_span():
        t0 = time.perf_counter()
        try:
            result = call()
        except (Exception, SystemExit):
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return None, seconds
        return result, time.perf_counter() - t0


def _run_cli(cli, argv: list[str], op_span) -> tuple[int | None, float]:
    """Call ``cli.main(argv)`` with its console output captured."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return _timed(call, op_span)


@dataclass
class Outcome:
    """Result of one op: ops attempted and failed, RK4 steps it completed
    (counted only for ops that pass their checks) and seconds in the call."""

    attempted: int
    failed: int
    steps: int
    seconds: float


class PresetsCli:
    """Each bundled preset through ``cli.main``, checked by output digest."""

    name = "presets-cli"

    def __init__(self, names, out_dir: Path, digests=None):
        self.names = list(names)
        self.out_dir = out_dir
        self.digests = load_digests() if digests is None else digests

    def build(self, sx: SimpleNamespace) -> None:
        self.cli = sx.cli
        self.steps = {
            n: sx.presets.build_preset(n).resolved().step_count() for n in self.names
        }

    def ops(self):
        return self.names

    def run(self, name: str, op_span) -> Outcome:
        csv_path = self.out_dir / "trajectory.csv"
        report_path = self.out_dir / "report.txt"
        for p in (csv_path, report_path):
            p.unlink(missing_ok=True)
        code, seconds = _run_cli(
            self.cli, ["--preset", name, "--out", str(self.out_dir)], op_span
        )
        ok = code == 0 and self._digests_match(name, csv_path, report_path)
        return Outcome(1, 0 if ok else 1, self.steps[name] if ok else 0, seconds)

    def _digests_match(self, name, csv_path: Path, report_path: Path) -> bool:
        want = self.digests[name]
        try:
            return (
                file_sha256(csv_path) == want["trajectory_csv"]
                and machine_block_sha256(report_path) == want["machine_block"]
            )
        except (OSError, ValueError) as exc:
            print(f"presets-cli {name}: {exc}", file=sys.stderr)
            return False


class Sweep:
    """One ``cli.main --sweep`` over seeded beta values; each row is an op."""

    name = "sweep"

    def __init__(self, values, out_dir: Path, horizon: float = SWEEP_HORIZON):
        self.values = list(values)
        self.out_dir = out_dir
        self.horizon = horizon

    def build(self, sx: SimpleNamespace) -> None:
        self.cli = sx.cli
        base = replace(sx.presets.build_preset(SWEEP_PRESET), horizon=self.horizon)
        self.steps = [
            sx.cli.apply_sweep_value(base, "beta", v).resolved().step_count()
            for v in self.values
        ]
        self.argv = [
            "--preset", SWEEP_PRESET,
            "--sweep", "beta=" + ",".join(repr(v) for v in self.values),
            "--out", str(self.out_dir),
            "--horizon", repr(self.horizon),
        ]

    def ops(self):
        return [None]

    def run(self, _op, op_span) -> Outcome:
        path = self.out_dir / "sweep.csv"
        path.unlink(missing_ok=True)
        code, seconds = _run_cli(self.cli, self.argv, op_span)
        n = len(self.values)
        rows = self._read_rows(path)
        if code not in (0, None) or len(rows) > n:
            return Outcome(n, n, 0, seconds)
        # A sweep that raised partway leaves a short file: the rows it never
        # wrote count as failed ops.
        failed = steps = 0
        for i, value in enumerate(self.values):
            if i < len(rows) and _sweep_row_ok(rows[i], value):
                steps += self.steps[i]
            else:
                failed += 1
        return Outcome(n, failed, steps, seconds)

    @staticmethod
    def _read_rows(path: Path) -> list[dict[str, str]]:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))
        except OSError:
            return []


def _sweep_row_ok(row: dict[str, str], value: float) -> bool:
    try:
        return (
            row["key"] == "beta"
            and row["value"] == repr(value)
            and row["status"] == "ok"
            and row["reset_count"] == "0"
            and float(row["identity_max_residual"]) < SWEEP_MAX_RESIDUAL
        )
    except (KeyError, TypeError, ValueError):
        return False


class MonteCarlo:
    """Many short library ``integrate`` calls with per-run start and rates."""

    name = "monte-carlo"

    def __init__(self, draws, horizon: float = MC_HORIZON):
        self.draws = list(draws)
        self.horizon = horizon

    def build(self, sx: SimpleNamespace) -> None:
        self.pkg = sx.pkg
        base = sx.presets.build_preset(MC_PRESET)
        self.scenarios = [
            replace(
                base,
                name=f"mc-{i}",
                x0=sx.model.StateVec(*x0),
                params=replace(base.params, beta=beta, omega=omega),
                horizon=self.horizon,
                dt=MC_DT,
            )
            for i, (x0, beta, omega) in enumerate(self.draws)
        ]
        self.steps = [sc.resolved().step_count() for sc in self.scenarios]

    def ops(self):
        return range(len(self.scenarios))

    def run(self, i: int, op_span) -> Outcome:
        traj, seconds = _timed(lambda: self.pkg.integrate(self.scenarios[i]), op_span)
        ok = traj is not None and (
            traj.status.value == "ok"
            and len(traj) == self.steps[i] + 1
            and int(traj.reset_counts.sum()) == 0
            and float(traj.identity_residual.max()) < MC_MAX_RESIDUAL
            and float(traj.states.min()) >= MC_MIN_STATE
        )
        return Outcome(1, 0 if ok else 1, self.steps[i] if ok else 0, seconds)


def make_inputs(workload: str, seed: int):
    """The seeded inputs of a full-size workload (plain numbers and names)."""
    rng = random.Random(seed)
    if workload == "presets-cli":
        names = sorted(load_digests())
        rng.shuffle(names)
        return names
    if workload == "sweep":
        return [rng.uniform(*SWEEP_BETA_RANGE) for _ in range(SWEEP_POINTS)]
    if workload == "monte-carlo":
        draws = []
        while len(draws) < MC_RUNS:
            x0 = tuple(rng.uniform(0.0, MC_X0_MAX) for _ in range(4))
            beta = rng.uniform(*MC_BETA_RANGE)
            omega = 1.0 / rng.uniform(*MC_OMEGA_DAYS_RANGE)
            if sum(x0) > 1.0:
                draws.append((x0, beta, omega))
        return draws
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOAD_NAMES)}")


def make_workload(workload: str, inputs, out_dir: Path):
    if workload == "presets-cli":
        return PresetsCli(inputs, out_dir)
    if workload == "sweep":
        return Sweep(inputs, out_dir)
    if workload == "monte-carlo":
        return MonteCarlo(inputs)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOAD_NAMES)}")


@dataclass
class PassResult:
    op_seconds: list[float]
    op_calibrated: list[float]
    attempted: int
    failed: int
    steps: int

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds)

    @property
    def calibrated_s(self) -> float:
        return sum(self.op_calibrated)


def run_pass(wl, tracer=None) -> PassResult:
    """Run every op of the workload once, timing each op call on its own,
    in raw and in calibrated seconds.

    Untraced, the machine speed is also sampled during each op. With a
    tracer, each op call is an ``op`` span instead, and only the kernel
    runs between ops calibrate it, since samples taken during the op
    would land inside its spans.
    """
    total = PassResult([], [], 0, 0, 0)
    cal = Calibrator()
    for i, op in enumerate(wl.ops()):
        op_span = cal.sampling if tracer is None else partial(tracer.op_span, i)
        out = wl.run(op, op_span)
        own, calibrated = cal.scale(out.seconds)
        total.op_seconds.append(own)
        total.op_calibrated.append(calibrated)
        total.attempted += out.attempted
        total.failed += out.failed
        total.steps += out.steps
    return total
