"""Command-line front end: single runs, parameter sweeps, preset listing.

Artifacts land in --out (or $SEIRVAX_OUT, or ./out): trajectory.csv with
one row per recorded boundary, and report.txt with the settled regime,
the stability profile, and the controller self-checks, ending in a
machine-readable key=value block. A single run formats trajectory.csv
in a forked second process while it integrates, where one can run beside
it (_formatter); the bytes are write_trajectory_csv's either way.

Exit codes: 0 clean run, 2 configuration problem (or any other package
error, or an output that cannot be written), 3 population went extinct,
4 numeric blowup.

Numeric overrides (--dt, --horizon, --sweep) set keys through the table
beside ScenarioConfig in seirvax.sim; only --config imports seirvax.config,
so no other run loads a scenario-file parser.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from .control import (
    ModulationFamily,
    VaccinationLaw,
    decay_design_g_ceiling,
)
from .errors import ConfigError, SeirvaxError
from .model import ModelParams, StateVec
from .presets import PRESETS, build_preset
from .sim import (
    STEADY_STATE_WINDOW_DAYS,
    _BLOCK_ROWS,
    _RATE_COLUMNS,
    _TABLE_COLUMNS,
    RunStatus,
    ScenarioConfig,
    SteadyState,
    Trajectory,
    detect_steady_state,
    integrate,
    numeric_key,
    with_numeric,
)
from .stability import (
    StabilityCriterion,
    StabilityVerdict,
    integral_test,
    standard_verdicts,
)

# trajectory.csv's float columns are the run's table but its rates, each
# under the name of the Trajectory attribute that views it; reset_flag is
# the run's reset_counts.
_CSV_FLOATS = [j for j, name in enumerate(_TABLE_COLUMNS) if name not in _RATE_COLUMNS]
TRAJECTORY_COLUMNS = (*(_TABLE_COLUMNS[j] for j in _CSV_FLOATS), "reset_flag", "theta0", "theta1")

_EXIT_BY_STATUS = {RunStatus.OK: 0, RunStatus.EXTINCT: 3, RunStatus.BLOWUP: 4}

_CSV_HEADER = ",".join(TRAJECTORY_COLUMNS).encode() + b"\r\n"


def _plain(values: np.ndarray) -> np.ndarray:
    """Where orjson's shortest round-trip digits are repr's text: zero and
    1e-4 <= |x| < 1e16."""
    a = np.abs(values)
    return ((a >= 1e-4) & (a < 1e16)) | (values == 0.0)


def _csv_cells(values: np.ndarray) -> list[bytes]:
    """repr of every value of one column: a list's repr joins its items'
    reprs with ", ", and no float's repr holds a comma."""
    return repr(values.tolist())[1:-1].encode().split(b", ")


def _csv_rows(block: np.ndarray) -> list[bytes]:
    """Each row of a 2-D block, its cells comma-joined, from one dump of
    orjson's numpy path (the digits of its float path)."""
    dumped = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    return dumped[2:-2].split(b"],[")


def _csv_chunk(traj: Trajectory, chunk: slice) -> bytes:
    """trajectory.csv's lines for one chunk of the run's rows. Each run of
    adjacent float columns that is plain on every row of the chunk is one
    ``_csv_rows`` block, any other column is one repr of the column through
    ``_csv_cells``, and the int columns are one more block."""
    block = traj.table[chunk, _CSV_FLOATS]
    pieces = []
    j = 0
    for plain, run in groupby(_plain(block).all(axis=0).tolist()):
        end = j + len(list(run))
        if plain:
            pieces.append(_csv_rows(block[:, j:end]))
        else:
            pieces.extend(_csv_cells(block[:, k]) for k in range(j, end))
        j = end
    flags = (traj.reset_counts, traj.theta0, traj.theta1)
    pieces.append(_csv_rows(np.column_stack([col[chunk] for col in flags]).astype(np.int64)))
    return b"\r\n".join(map(b",".join, zip(*pieces))) + b"\r\n"


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Emit the run at full float precision: every cell is its repr, which
    round-trips exactly, in the bytes csv.writer's excel dialect writes (str
    is repr for floats and ints, no repr needs quoting, lines end in CRLF),
    one ``_csv_chunk`` of _BLOCK_ROWS rows at a time: formatting the whole
    run at once would hold every row as a Python bytes object."""
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, len(traj), _BLOCK_ROWS):
            fh.write(_csv_chunk(traj, slice(start, start + _BLOCK_ROWS)))


def _formatter(resolved: ScenarioConfig):
    """A seirvax.stream.Formatter for a run of the resolved scenario, or
    None where trajectory.csv is written after the run: no os.fork, one
    usable CPU, a grid of at most one chunk, or no temporary file (pipe,
    process) to be had. Only a run that streams loads seirvax.stream."""
    if not hasattr(os, "fork") or resolved.step_count() < _BLOCK_ROWS:
        return None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS): every CPU is usable
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    from .stream import Formatter

    try:
        return Formatter(resolved)
    except OSError:
        return None


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """Inverse of write_trajectory_csv (column name -> float array)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        has_rows = bool(fh.readline())
    if not has_rows:
        return {name: np.empty(0) for name in header}
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


class RunReport(NamedTuple):
    """Everything report.txt is rendered from: the run and its two
    analyses, the steady state and the stability profile, whose T3_integral
    verdict is the run's integral identity. Name, status, grid, tolerance
    and terminal state are read off the run and its scenario."""

    traj: Trajectory
    steady_state: SteadyState
    verdicts: tuple[StabilityVerdict, ...]

    @property
    def integral(self) -> StabilityVerdict:
        """The run's T3_integral verdict, picked out of verdicts."""
        return next(
            v for v in self.verdicts
            if v.criterion is StabilityCriterion.POPULATION_INTEGRAL_IDENTITY
        )

    @property
    def identity_max_residual(self) -> float:
        return float(self.traj.identity_residual.max(initial=0.0))

    @property
    def reset_count(self) -> int:
        return int(self.traj.reset_counts.sum())

    @property
    def decay_g(self) -> tuple[float, float] | None:
        """(max modulation, sufficiency ceiling) under the decay design."""
        sc = self.traj.scenario
        if sc.control.g_family is not ModulationFamily.IMMUNE_DECAY_DESIGN:
            return None
        return float(self.traj.g.max()), decay_design_g_ceiling(sc.control, sc.params)


def build_run_report(traj: Trajectory) -> RunReport:
    ss = detect_steady_state(traj)
    return RunReport(traj, ss, standard_verdicts(traj.scenario.params, integral_test(traj)))


def _fmt_state(x: StateVec) -> str:
    return (
        f"S={x.S:.6g}  E={x.E:.6g}  I={x.I:.6g}  R={x.R:.6g}  N={x.N:.6g}"
    )


def _verdict_lines(v: StabilityVerdict) -> list[str]:
    if not v.applicable:
        head = "N/A  "
    elif v.hypothesis_holds:
        head = "HOLDS"
    else:
        head = "FAILS"
    lines = [f"  [{head}] {v.criterion.value}: {v.title}"]
    for c in v.conditions:
        mark = "ok" if c.satisfied else "VIOLATED"
        lines.append(f"      {c.name}: {c.lhs:.6g} vs {c.rhs:.6g} ({mark})")
    for note in v.notes:
        lines.append(f"      note: {note}")
    return lines


def render_report(rep: RunReport) -> str:
    traj = rep.traj
    sc = traj.scenario
    terminal = traj.terminal_state()
    out = []
    out.append(f"scenario: {sc.name}")
    out.append(f"status: {traj.status.value}")
    out.append(
        f"grid: horizon {sc.horizon:g} days, dt {sc.dt:g} "
        f"(last recorded t = {traj.t[-1]:g})"
    )
    out.append("")
    ss = rep.steady_state
    out.append("settled regime:")
    if ss.found:
        out.append(
            f"  found at t = {ss.t_ss:.6g} days "
            f"(sustained {STEADY_STATE_WINDOW_DAYS:g}-day window, "
            f"tol {sc.steady_state_tol:g}*N)"
        )
        out.append(f"  {_fmt_state(ss.x_ss)}")
        out.append(f"  infected fraction (E+I)/N = {ss.infected_fraction:.6g}")
    else:
        out.append(
            f"  not reached within the horizon (tol {sc.steady_state_tol:g}*N)"
        )
    out.append(f"terminal state at t = {traj.t[-1]:g}:")
    out.append(f"  {_fmt_state(terminal)}")
    out.append(f"  infected fraction (E+I)/N = {terminal.infected_fraction:.6g}")
    out.append("")
    out.append("stability profile:")
    for v in rep.verdicts:
        out.extend(_verdict_lines(v))
    out.append("")
    out.append("controller self-check:")
    out.append(
        f"  vaccination identity max relative residual = "
        f"{rep.identity_max_residual:.6g}"
    )
    out.append(f"  boundary resets fired: {rep.reset_count}")
    if (decay := rep.decay_g) is not None:
        g_max, ceiling = decay
        out.append("decay-design diagnostics:")
        out.append(
            f"  modulation max {g_max:.6g} vs sufficiency ceiling {ceiling:.6g} "
            f"({'within' if g_max <= ceiling else 'exceeds'}; informational)"
        )
    out.append("")
    out.append("[machine]")
    for key, value in machine_items(rep):
        out.append(f"{key}={value}")
    out.append("")
    return "\n".join(out)


def _state_items(suffix: str, x: StateVec) -> list[tuple[str, str]]:
    """The S/E/I/R/N keys of one state, e.g. S_end .. N_end."""
    return [(f"{name}_{suffix}", repr(v)) for name, v in zip("SEIRN", (*x, x.N))]


def machine_items(rep: RunReport) -> list[tuple[str, str]]:
    traj = rep.traj
    sc = traj.scenario
    ss = rep.steady_state
    terminal = traj.terminal_state()
    items: list[tuple[str, str]] = [
        ("scenario", sc.name),
        ("status", traj.status.value),
        ("horizon", repr(sc.horizon)),
        ("dt", repr(sc.dt)),
        ("steady_state_found", "1" if ss.found else "0"),
    ]
    if ss.found:
        items.append(("t_ss", repr(ss.t_ss)))
        items.extend(_state_items("ss", ss.x_ss))
        items.append(("infected_fraction_ss", repr(ss.infected_fraction)))
    items.extend(_state_items("end", terminal))
    items.append(("terminal_infected_fraction", repr(terminal.infected_fraction)))
    for v in rep.verdicts:
        value = ("1" if v.hypothesis_holds else "0") if v.applicable else "na"
        items.append((v.criterion.value, value))
    if (integral := rep.integral).applicable:
        pointwise = integral.conditions[0]
        items.append(("integral_max_pointwise_residual", repr(pointwise.lhs)))
        items.append(("integral_consistent", "1" if integral.hypothesis_holds else "0"))
    items.append(("identity_max_residual", repr(rep.identity_max_residual)))
    items.append(("reset_count", str(rep.reset_count)))
    if (decay := rep.decay_g) is not None:
        items.extend(zip(("decay_g_max", "decay_g_ceiling"), map(repr, decay)))
    return items


# ---------------------------------------------------------------------------
# sweep plumbing

SWEEP_COLUMNS = (
    "key", "value", "status", "steady_state_found", "t_ss",
    "S_ss", "E_ss", "I_ss", "R_ss", "N_ss", "infected_fraction_ss",
    "terminal_infected_fraction", "reset_count", "identity_max_residual",
)


def parse_sweep_spec(spec: str) -> tuple[str, tuple[float, ...]]:
    key, sep, tail = spec.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(f"sweep spec must look like KEY=v1,v2,... got {spec!r}")
    raw_values = [v for v in (s.strip() for s in tail.split(",")) if v]
    if not raw_values:
        raise ConfigError(f"sweep grid for {key!r} is empty")
    try:
        values = tuple(float(v) for v in raw_values)
    except ValueError:
        raise ConfigError(f"sweep values for {key!r} must be numbers: {tail!r}") from None
    return key, values


# perfbench's sweep workload sets its values under this name
apply_sweep_value = with_numeric


# run_sweep and _sweep_row stay cli globals: perfbench's traced sweep wraps
# cli._sweep_row and cli.integrate, and CI's traced check reads their spans.
def _sweep_row(key: str, value: float, scenario: ScenarioConfig) -> list[str]:
    """One sweep.csv row; its cells are the run's [machine] values."""
    try:
        traj = integrate(with_numeric(scenario, key, value))
        rep = build_run_report(traj)
    except SeirvaxError as exc:
        print(f"sweep row {key}={value!r} failed: {exc}", file=sys.stderr)
        return [key, repr(value), "error"] + [""] * (len(SWEEP_COLUMNS) - 3)
    cells = dict(machine_items(rep))
    return [key, repr(value)] + [cells.get(col, "") for col in SWEEP_COLUMNS[2:]]


def run_sweep(scenario: ScenarioConfig, spec: str, arg_out: str | None) -> Path:
    """One run per grid value, merged in grid order; failures become rows.
    A bad spec is refused before the output directory is made."""
    key, values = parse_sweep_spec(spec)
    numeric_key(key)  # reject an unknown key before any run starts
    path = _resolve_out_dir(arg_out) / "sweep.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for value in values:
            writer.writerow(_sweep_row(key, value, scenario))
    return path


# ---------------------------------------------------------------------------
# argument handling

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seirvax",
        description=(
            "Simulate an SEIR epidemic with demographic turnover and "
            "feedback vaccination; emit trajectory.csv and report.txt."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--preset", metavar="NAME", help="bundled scenario name")
    source.add_argument("--config", metavar="PATH", help="scenario file (INI sections)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default $SEIRVAX_OUT or ./out)")
    parser.add_argument("--dt", type=float, metavar="DAYS", help="override step size")
    parser.add_argument("--horizon", type=float, metavar="DAYS",
                        help="override run length")
    parser.add_argument("--law", choices=[m.value for m in VaccinationLaw],
                        help="override the vaccination law")
    parser.add_argument("--check-stability", action="store_true",
                        help="print the parameter-level stability profile and exit "
                             "(no simulation, no files)")
    parser.add_argument("--sweep", metavar="KEY=V1,V2,...",
                        help="run once per value, writing sweep.csv instead")
    parser.add_argument("--list-presets", action="store_true",
                        help="list bundled scenarios and exit")
    parser.add_argument("--machine", action="store_true",
                        help="with --list-presets: bare names, one per line")
    return parser


def _resolve_out_dir(arg_out: str | None) -> Path:
    path = Path(arg_out or os.environ.get("SEIRVAX_OUT") or "out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _shown(path: Path) -> str:
    # a byte of the path that is not UTF-8 is a lone surrogate, which a
    # strict stdout cannot encode; it prints as \xNN, a UTF-8 path unchanged
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _load_base_scenario(args) -> ScenarioConfig:
    if args.preset:
        scenario = build_preset(args.preset)
    elif args.config:
        from .config import load_scenario

        scenario = load_scenario(args.config)
    else:
        raise ConfigError("nothing to run: give --preset or --config (or --list-presets)")
    for key in ("dt", "horizon"):
        if (value := getattr(args, key)) is not None:
            scenario = with_numeric(scenario, key, value)
    if args.law is not None:
        scenario = replace(
            scenario,
            control=replace(scenario.control, law=VaccinationLaw(args.law)),
        )
    return scenario


def _print_stability_profile(params: ModelParams) -> None:
    print("stability profile (parameter-level; integral check needs a run):")
    for v in standard_verdicts(params):
        for line in _verdict_lines(v):
            print(line)


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        if args.machine:
            for name in PRESETS:
                print(name)
        else:
            width = max(len(n) for n in PRESETS)
            for name, entry in PRESETS.items():
                print(f"{name:<{width}}  {entry.description}")
        return 0

    try:
        scenario = _load_base_scenario(args)
        resolved = scenario.resolved()

        if args.check_stability:
            print(f"scenario: {resolved.name}")
            _print_stability_profile(resolved.params)
            return 0

        if args.sweep:
            path = run_sweep(scenario, args.sweep, args.out)
            print(f"wrote {_shown(path)}")
            return 0

        formatter = _formatter(resolved)
        try:
            traj = integrate(scenario, on_rows=None if formatter is None else formatter.send)
            if formatter is not None:
                formatter.end_rows()
            # made after the run, so a grid too large to store makes no directory
            out_dir = _resolve_out_dir(args.out)
            report = build_run_report(traj)
            csv_path = out_dir / "trajectory.csv"
            report_path = out_dir / "report.txt"
            if formatter is None:
                write_trajectory_csv(traj, csv_path)
            else:
                formatter.write(csv_path)
            report_path.write_text(render_report(report), encoding="utf-8")
        finally:
            if formatter is not None:
                formatter.close()
        ss = report.steady_state
        sc = traj.scenario
        if ss.found:
            print(
                f"{sc.name}: status {traj.status.value}; settled at "
                f"t = {ss.t_ss:.4g} with infected fraction "
                f"{ss.infected_fraction:.4g}"
            )
        else:
            print(
                f"{sc.name}: status {traj.status.value}; no settled regime "
                f"within {sc.horizon:g} days (terminal infected fraction "
                f"{traj.terminal_state().infected_fraction:.4g})"
            )
        print(f"wrote {_shown(csv_path)} and {_shown(report_path)}")
        return _EXIT_BY_STATUS[traj.status]
    except (SeirvaxError, OSError) as exc:
        # an OSError's text names the path that could not be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
