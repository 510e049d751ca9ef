"""Command-line front end: single runs, parameter sweeps, preset listing.

Artifacts land in --out (or $SEIRVAX_OUT, or ./out): trajectory.csv with
one row per recorded boundary, and report.txt with the settled regime,
the stability profile, and the controller self-checks, ending in a
machine-readable key=value block.

Exit codes: 0 clean run, 2 configuration problem (or any other package
error), 3 population went extinct, 4 numeric blowup.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import load_scenario
from .control import (
    ModulationFamily,
    VaccinationLaw,
    decay_design_g_ceiling,
)
from .errors import ConfigError, NotApplicableError, SeirvaxError
from .model import ModelParams, StateVec
from .presets import PRESETS, build_preset
from .sim import (
    RunStatus,
    ScenarioConfig,
    SteadyState,
    Trajectory,
    detect_steady_state,
    integrate,
)
from .stability import (
    IntegralDiagnostic,
    StabilityVerdict,
    integral_test,
    standard_verdicts,
)

TRAJECTORY_COLUMNS = (
    "t", "S", "E", "I", "R", "N", "V_a", "V", "g", "h", "R_star", "dN",
    "reset_flag", "theta0", "theta1",
)

_EXIT_BY_STATUS = {RunStatus.OK: 0, RunStatus.EXTINCT: 3, RunStatus.BLOWUP: 4}


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Emit the run at full float precision (repr round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        n_col = traj.N
        for k in range(len(traj)):
            writer.writerow(
                [
                    repr(float(traj.t[k])),
                    repr(float(traj.states[k, 0])),
                    repr(float(traj.states[k, 1])),
                    repr(float(traj.states[k, 2])),
                    repr(float(traj.states[k, 3])),
                    repr(float(n_col[k])),
                    repr(float(traj.va[k])),
                    repr(float(traj.v[k])),
                    repr(float(traj.g[k])),
                    repr(float(traj.h[k])),
                    repr(float(traj.r_star[k])),
                    repr(float(traj.dn[k])),
                    int(traj.reset_counts[k]),
                    int(traj.theta0[k]),
                    int(traj.theta1[k]),
                ]
            )


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """Inverse of write_trajectory_csv (column name -> float array)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


@dataclass(frozen=True)
class RunReport:
    """Everything report.txt is rendered from."""

    scenario_name: str
    status: RunStatus
    horizon: float
    dt: float
    steady_state_tol: float
    steady_state: SteadyState
    terminal_t: float
    terminal_state: StateVec
    terminal_infected_fraction: float
    verdicts: tuple[StabilityVerdict, ...]
    integral: IntegralDiagnostic | None
    identity_max_residual: float
    reset_count: int
    decay_g_max: float | None = None
    decay_g_ceiling: float | None = None


def build_run_report(traj: Trajectory) -> RunReport:
    sc = traj.scenario
    ss = detect_steady_state(traj)
    terminal = traj.terminal_state()
    try:
        diag = integral_test(traj, sc.params)
    except NotApplicableError:
        diag = None
    decay_g_max = decay_ceiling = None
    if sc.control.g_family is ModulationFamily.IMMUNE_DECAY_DESIGN:
        decay_g_max = float(traj.g.max())
        decay_ceiling = decay_design_g_ceiling(sc.control, sc.params)
    return RunReport(
        scenario_name=sc.name,
        status=traj.status,
        horizon=sc.horizon,
        dt=sc.dt,
        steady_state_tol=sc.steady_state_tol,
        steady_state=ss,
        terminal_t=float(traj.t[-1]),
        terminal_state=terminal,
        terminal_infected_fraction=(terminal.E + terminal.I) / terminal.N,
        verdicts=standard_verdicts(sc.params, diag),
        integral=diag,
        identity_max_residual=float(traj.identity_residual.max(initial=0.0)),
        reset_count=int(traj.reset_counts.sum()),
        decay_g_max=decay_g_max,
        decay_g_ceiling=decay_ceiling,
    )


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
    for flag in v.flags:
        state = "holds" if flag.satisfied else "does not hold"
        lines.append(
            f"      [info] {flag.name}: {flag.lhs:.6g} vs {flag.rhs:.6g} ({state})"
        )
    return lines


def render_report(rep: RunReport) -> str:
    out = []
    out.append(f"scenario: {rep.scenario_name}")
    out.append(f"status: {rep.status.value}")
    out.append(
        f"grid: horizon {rep.horizon:g} days, dt {rep.dt:g} "
        f"(last recorded t = {rep.terminal_t:g})"
    )
    out.append("")
    ss = rep.steady_state
    out.append("settled regime:")
    if ss.found:
        out.append(
            f"  found at t = {ss.t_ss:.6g} days "
            f"(sustained 30-day window, tol {rep.steady_state_tol:g}*N)"
        )
        out.append(f"  {_fmt_state(ss.x_ss)}")
        out.append(f"  infected fraction (E+I)/N = {ss.infected_fraction:.6g}")
    else:
        out.append(
            f"  not reached within the horizon (tol {rep.steady_state_tol:g}*N)"
        )
    out.append(f"terminal state at t = {rep.terminal_t:g}:")
    out.append(f"  {_fmt_state(rep.terminal_state)}")
    out.append(
        f"  infected fraction (E+I)/N = {rep.terminal_infected_fraction:.6g}"
    )
    out.append("")
    out.append("stability profile:")
    for v in rep.verdicts:
        out.extend(_verdict_lines(v))
    out.append("")
    out.append("population integral identity:")
    if rep.integral is None:
        out.append("  not applicable (needs nu > mu)")
    else:
        d = rep.integral
        out.append(
            f"  max pointwise residual {d.max_pointwise_residual:.6g} "
            f"(tol {d.pointwise_tol:g} relative)"
        )
        out.append(
            f"  horizon residual {d.residual:.6g} vs remaining-mass bound "
            f"{d.tail_bound:.6g}"
        )
        out.append(f"  consistent: {'yes' if d.consistent else 'NO'}")
    out.append("")
    out.append("controller self-check:")
    out.append(
        f"  vaccination identity max relative residual = "
        f"{rep.identity_max_residual:.6g}"
    )
    out.append(f"  boundary resets fired: {rep.reset_count}")
    if rep.decay_g_ceiling is not None:
        out.append("decay-design diagnostics:")
        out.append(
            f"  modulation max {rep.decay_g_max:.6g} vs sufficiency ceiling "
            f"{rep.decay_g_ceiling:.6g} "
            f"({'within' if rep.decay_g_max <= rep.decay_g_ceiling else 'exceeds'}; "
            "informational)"
        )
    out.append("")
    out.append("[machine]")
    for key, value in machine_items(rep):
        out.append(f"{key}={value}")
    out.append("")
    return "\n".join(out)


def machine_items(rep: RunReport) -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = [
        ("scenario", rep.scenario_name),
        ("status", rep.status.value),
        ("horizon", repr(rep.horizon)),
        ("dt", repr(rep.dt)),
        ("steady_state_found", "1" if rep.steady_state.found else "0"),
    ]
    ss = rep.steady_state
    if ss.found:
        items.append(("t_ss", repr(ss.t_ss)))
        for name, val in zip(("S_ss", "E_ss", "I_ss", "R_ss"), ss.x_ss):
            items.append((name, repr(val)))
        items.append(("N_ss", repr(ss.x_ss.N)))
        items.append(("infected_fraction_ss", repr(ss.infected_fraction)))
    for name, val in zip(
        ("S_end", "E_end", "I_end", "R_end"), rep.terminal_state
    ):
        items.append((name, repr(val)))
    items.append(("N_end", repr(rep.terminal_state.N)))
    items.append(
        ("terminal_infected_fraction", repr(rep.terminal_infected_fraction))
    )
    for v in rep.verdicts:
        value = ("1" if v.hypothesis_holds else "0") if v.applicable else "na"
        items.append((v.criterion.value, value))
    if rep.integral is not None:
        items.append(
            ("integral_max_pointwise_residual",
             repr(rep.integral.max_pointwise_residual))
        )
        items.append(("integral_consistent", "1" if rep.integral.consistent else "0"))
    items.append(("identity_max_residual", repr(rep.identity_max_residual)))
    items.append(("reset_count", str(rep.reset_count)))
    if rep.decay_g_ceiling is not None:
        items.append(("decay_g_max", repr(rep.decay_g_max)))
        items.append(("decay_g_ceiling", repr(rep.decay_g_ceiling)))
    return items


# ---------------------------------------------------------------------------
# sweep plumbing

_SWEEP_PARAM_KEYS = ("mu", "omega", "beta", "sigma", "gamma", "rho", "nu")
_SWEEP_CONTROL_KEYS = ("K_R", "K_Rd", "eps", "eps0", "vartheta", "c")
_SWEEP_SCENARIO_KEYS = ("dt", "horizon", "steady_state_tol")

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


def sweepable_key(key: str) -> str:
    """Validate a sweep key, returning the attribute it targets.

    Separated from value application so a malformed key can abort the whole
    sweep before any run starts (bad values only fail their own row).
    """
    if key.endswith("_days"):
        base = key[: -len("_days")]
        if base not in ("mu", "omega", "beta", "sigma", "gamma", "nu", "c"):
            raise ConfigError(f"{key!r} has no period form")
        return base
    if key in _SWEEP_PARAM_KEYS + _SWEEP_CONTROL_KEYS + _SWEEP_SCENARIO_KEYS:
        return key
    known = ", ".join(
        _SWEEP_PARAM_KEYS + _SWEEP_CONTROL_KEYS + _SWEEP_SCENARIO_KEYS
    )
    raise ConfigError(f"cannot sweep {key!r}; sweepable keys: {known}")


def apply_sweep_value(
    scenario: ScenarioConfig, key: str, value: float
) -> ScenarioConfig:
    base = sweepable_key(key)
    if key.endswith("_days"):
        if value == 0.0:
            raise ConfigError(f"{key} must be nonzero")
        value = 1.0 / value
    if base in _SWEEP_PARAM_KEYS:
        return replace(scenario, params=replace(scenario.params, **{base: value}))
    if base in _SWEEP_CONTROL_KEYS:
        return replace(scenario, control=replace(scenario.control, **{base: value}))
    return replace(scenario, **{base: value})


def _sweep_row(key: str, value: float, scenario: ScenarioConfig) -> list[str]:
    blank = [""] * 7
    try:
        traj = integrate(apply_sweep_value(scenario, key, value))
        rep = build_run_report(traj)
    except SeirvaxError:
        return [key, repr(value), "error", *blank, "", "", ""]
    ss = rep.steady_state
    if ss.found:
        ss_cells = [
            repr(ss.t_ss),
            repr(ss.x_ss.S), repr(ss.x_ss.E), repr(ss.x_ss.I), repr(ss.x_ss.R),
            repr(ss.x_ss.N), repr(ss.infected_fraction),
        ]
    else:
        ss_cells = blank
    return [
        key,
        repr(value),
        rep.status.value,
        "1" if ss.found else "0",
        *ss_cells,
        repr(rep.terminal_infected_fraction),
        str(rep.reset_count),
        repr(rep.identity_max_residual),
    ]


def run_sweep(scenario: ScenarioConfig, spec: str, out_dir: Path) -> Path:
    """One run per grid value, merged in grid order; failures become rows."""
    key, values = parse_sweep_spec(spec)
    sweepable_key(key)  # reject unknown keys before any run starts
    path = out_dir / "sweep.csv"
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
    out = arg_out or os.environ.get("SEIRVAX_OUT") or "out"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {path} is not writable: {exc}") from exc
    return path


def _load_base_scenario(args) -> ScenarioConfig:
    if args.preset:
        try:
            scenario = build_preset(args.preset)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    elif args.config:
        scenario = load_scenario(args.config)
    else:
        raise ConfigError("nothing to run: give --preset or --config (or --list-presets)")
    if args.dt is not None:
        scenario = replace(scenario, dt=args.dt)
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    if args.law is not None:
        scenario = replace(
            scenario,
            control=replace(scenario.control, law=VaccinationLaw(args.law)),
        )
    return scenario


def _print_stability_profile(params: ModelParams) -> None:
    print("stability profile (parameter-level; integral check needs a run):")
    for v in standard_verdicts(params, None):
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

        out_dir = _resolve_out_dir(args.out)

        if args.sweep:
            path = run_sweep(scenario, args.sweep, out_dir)
            print(f"wrote {path}")
            return 0

        traj = integrate(scenario)
        report = build_run_report(traj)
        csv_path = out_dir / "trajectory.csv"
        report_path = out_dir / "report.txt"
        write_trajectory_csv(traj, csv_path)
        report_path.write_text(render_report(report), encoding="utf-8")
        ss = report.steady_state
        if ss.found:
            print(
                f"{resolved.name}: status {traj.status.value}; settled at "
                f"t = {ss.t_ss:.4g} with infected fraction "
                f"{ss.infected_fraction:.4g}"
            )
        else:
            print(
                f"{resolved.name}: status {traj.status.value}; no settled regime "
                f"within {resolved.horizon:g} days "
                f"(terminal infected fraction "
                f"{report.terminal_infected_fraction:.4g})"
            )
        print(f"wrote {csv_path} and {report_path}")
        return _EXIT_BY_STATUS[traj.status]
    except SeirvaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
