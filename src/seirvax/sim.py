"""Fixed-step simulation engine.

Classic fourth-order Runge-Kutta on a uniform grid t_k = k*dt. The
vaccination signal is evaluated once per step boundary from the current
state and held constant across the step (zero-order hold), so control
values line up exactly with recorded samples. Finite negative components
are clamped to zero at every boundary before its total is summed; under
the clamped law these resets never fire in practice, under the unclamped
law they are the positivity mechanism.

The numeric key table (numeric_key, with_numeric) sits beside ScenarioConfig,
whose fields it sets: --sweep, --dt, --horizon and scenario files all read it.
"""

from __future__ import annotations

import enum
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .control import ControlConfig, _derived_values, boundary_fn
from .errors import ConfigError, SingularStateError
from .model import (
    COMPONENT_NAMES,
    N_FLOOR,
    ModelParams,
    StateVec,
    make_rate_fn,
)

# The benchmark's tracer (perfbench/tracing.py) still looks these five
# names up on this module and wraps them; nothing calls them. Retargeting
# the tracer onto the boundary_fn closure (ROADMAP.md, item 1) removes them.
reference = gain_schedule = modulation_identity_residual = None
vaccination_saturated = vaccination_unsaturated = None

# Days of sustained near-zero rates required before a run counts as settled.
STEADY_STATE_WINDOW_DAYS = 30.0


class RunStatus(enum.Enum):
    OK = "ok"
    EXTINCT = "extinct"
    BLOWUP = "blowup"


@dataclass(frozen=True)
class ScenarioConfig:
    """A full simulation setup: parameters, initial state, controller, grid.

    horizon and dt are in days. The recorded grid is t_k = k*dt for
    k = 0..round(horizon/dt); a horizon that is not an exact multiple of dt
    is snapped to the nearest step count.
    """

    params: ModelParams
    x0: StateVec
    control: ControlConfig = field(default_factory=ControlConfig)
    horizon: float = 600.0
    dt: float = 0.01
    steady_state_tol: float = 1e-6
    name: str = "custom"

    def resolved(self) -> "ScenarioConfig":
        """Validate the name, the grid and the initial state; the controller
        resolves eps0 and checks its guards. params is returned unchanged."""
        # the name fills one line of report.txt; splitlines drops every break
        if "".join(self.name.splitlines()) != self.name:
            raise ConfigError(f"scenario name must be one line, got {self.name!r}")
        # report.txt is UTF-8, which has no code for a lone surrogate
        if any("\ud800" <= c <= "\udfff" for c in self.name):
            raise ConfigError(f"scenario name must be encodable as UTF-8, got {self.name!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be a positive finite number, got {self.dt!r}")
        if not (math.isfinite(self.horizon) and self.horizon >= self.dt):
            raise ConfigError(
                f"horizon must be at least one step, got horizon={self.horizon!r} "
                f"with dt={self.dt!r}"
            )
        if not math.isfinite(self.horizon / self.dt):
            raise ConfigError(
                f"horizon/dt must be finite, got horizon={self.horizon!r} "
                f"with dt={self.dt!r}"
            )
        if not (math.isfinite(self.steady_state_tol) and self.steady_state_tol > 0.0):
            raise ConfigError(
                f"steady_state_tol must be a positive finite number, "
                f"got {self.steady_state_tol!r}"
            )
        x0 = StateVec(*(float(v) for v in self.x0))
        for name, v in zip(COMPONENT_NAMES, x0):
            if not math.isfinite(v) or v < 0.0:
                raise ConfigError(f"initial {name} must be finite and >= 0, got {v!r}")
        if not math.isfinite(x0.N):
            raise ConfigError(f"initial population total must be finite, got {x0.N!r}")
        if not x0.N > N_FLOOR:
            raise ConfigError(f"initial population {x0.N!r} is at or below the floor")
        control = self.control.validated(self.params)
        return replace(self, x0=x0, control=control)

    def step_count(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


# Every numeric key a scenario file or --sweep may set, grouped by the
# section (and the ScenarioConfig field) it sets.
_NUMERIC_KEYS = {
    "params": ("mu", "omega", "beta", "sigma", "gamma", "rho", "nu"),
    "control": ("K_R", "K_Rd", "eps", "eps0", "vartheta", "c"),
    "scenario": ("horizon", "dt", "steady_state_tol"),
}
# Keys that also take their mean period: KEY_days = D sets KEY = 1/D.
_PERIOD_KEYS = ("mu", "omega", "beta", "sigma", "gamma", "nu", "c")


def numeric_key(key: str) -> tuple[str, str]:
    """(section, field) that a numeric key sets; KEY_days sets KEY.

    Needs no value, so a caller can reject a key before any run starts.
    """
    field = key.removesuffix("_days")
    if field == key or field in _PERIOD_KEYS:
        for section, fields in _NUMERIC_KEYS.items():
            if field in fields:
                return section, field
    known = " ".join(k for fields in _NUMERIC_KEYS.values() for k in fields)
    raise ConfigError(
        f"unknown key {key!r}; numeric keys: {known} "
        f"(and KEY_days for {' '.join(_PERIOD_KEYS)})"
    )


def _numeric_setting(key: str, value: float) -> tuple[str, str, float]:
    """(section, field, value) that one numeric key sets: KEY_days = D
    sets KEY = 1/D, and D = 0 is rejected."""
    section, field = numeric_key(key)
    if field != key:
        if value == 0.0:
            raise ConfigError(f"{key} must be nonzero")
        value = 1.0 / value
    return section, field, value


def with_numeric(scenario: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    """scenario with one numeric key set to value."""
    section, field, value = _numeric_setting(key, value)
    if section == "scenario":
        return replace(scenario, **{field: value})
    target = replace(getattr(scenario, section), **{field: value})
    return replace(scenario, **{section: target})


# One row of the run's table per recorded boundary, in integrate's pack
# order: t, the state S, E, I, R, its total N, its four rates (read only
# together, as Trajectory.rates), then the six of the boundary's ten control
# values a run records. Trajectory's views and trajectory.csv's float columns
# are found here by name.
_RATE_COLUMNS = tuple(f"d{name}_dt" for name in COMPONENT_NAMES)
_TABLE_COLUMNS = ("t", *COMPONENT_NAMES, "N", *_RATE_COLUMNS, "V_a", "V", "g", "h", "R_star", "dN")
_ROW = struct.Struct(f"{len(_TABLE_COLUMNS)}d")
# Rows per on_rows call, and per chunk trajectory.csv is formatted in.
_BLOCK_ROWS = 1024


def _view(first: str, last: str | None = None) -> property:
    """A Trajectory's view of its table column first, or columns first..last."""
    j = _TABLE_COLUMNS.index(first)
    index = j if last is None else slice(j, _TABLE_COLUMNS.index(last) + 1)
    return property(lambda self: self.table[:, index])


@dataclass(eq=False)
class Trajectory:
    """Record of one run: its table, one _TABLE_COLUMNS row per recorded
    boundary, of which every column attribute is a read-only view.

    states[k] is the state the step was taken from (post-reset) and N[k]
    its total, and all control columns were evaluated on exactly that
    state at t[k]. The control columns are nine of the 13 fields of
    seirvax.analysis.ControlSample, in its order and under its names,
    which trajectory.csv's header shares; theta0, theta1 and
    identity_residual depend only on the table and are derived when the
    record is built (control._derived_values), which takes a resolved
    scenario. status explains early truncation. A run compares and hashes
    by identity, as its columns are arrays.
    """

    scenario: ScenarioConfig
    status: RunStatus
    table: np.ndarray
    reset_counts: np.ndarray
    reset_events: tuple[ResetEvent, ...]

    t, S, E, I, R, N = map(_view, ("t", "S", "E", "I", "R", "N"))
    V_a, V, g, h, R_star, dN = map(_view, ("V_a", "V", "g", "h", "R_star", "dN"))
    states, rates = _view("S", "R"), _view(_RATE_COLUMNS[0], _RATE_COLUMNS[-1])

    def __post_init__(self) -> None:
        self.table = self.table.view()
        self.table.flags.writeable = False
        sc = self.scenario
        self.theta0, self.theta1, self.identity_residual = _derived_values(
            sc.control, sc.params, self.N, self.V_a, self.g
        )

    def __len__(self) -> int:
        return self.table.shape[0]

    @property
    def dt(self) -> float:
        return self.scenario.dt

    @property
    def halt_time(self) -> float | None:
        """The first grid time not recorded, len(self)*dt; None when OK."""
        return None if self.status is RunStatus.OK else len(self) * self.dt

    def state(self, k: int) -> StateVec:
        return StateVec(*(float(v) for v in self.states[k]))

    def terminal_state(self) -> StateVec:
        return self.state(len(self) - 1)


class ResetEvent(NamedTuple):
    """One clamped component at a step boundary; index is its position in
    COMPONENT_NAMES (the field shadows tuple.index)."""

    t: float
    index: int
    value_before: float

    @property
    def component(self) -> str:
        return COMPONENT_NAMES[self.index]


def apply_reset(x: StateVec) -> tuple[StateVec, tuple[tuple[int, float], ...]]:
    """Clamp finite negative components to exactly zero; a -inf one is
    left for the run's total to read as a blowup.

    Returns the clamped state and (component index, value before) pairs for
    each clamped component; no pairs mean nothing fired and x comes back.
    """
    clamps = tuple((i, v) for i, v in enumerate(x) if -math.inf < v < 0.0)
    if not clamps:
        return x, ()
    return x._replace(**{x._fields[i]: 0.0 for i, _ in clamps}), clamps


def _ending(N: float) -> RunStatus:
    """The status a total outside (N_FLOOR, inf) ends a run with."""
    return RunStatus.EXTINCT if math.isfinite(N) else RunStatus.BLOWUP


def integrate(
    scenario: ScenarioConfig,
    *,
    on_rows: Callable[[np.ndarray, np.ndarray], object] | None = None,
) -> Trajectory:
    """Run one scenario to its horizon (or early truncation).

    Truncation rules, each ending the loop where it fires and keeping
    everything recorded so far. One rule reads the population total: a
    non-finite total ends the run with status BLOWUP, a finite total at or
    below the extinction floor with EXTINCT. Every RK4 stage applies it to
    its own total, and a boundary to the one total it sums, records and
    composes its controller from, after its reset and before keeping that
    reset's events. A boundary that records a non-finite demand V_a ends it
    with BLOWUP before its step. A divisor that underflows to 0.0 while the
    boundary composes its controller records nan for the nine composed
    control values, such a demand. The run's halt_time is then the first
    grid time not recorded.

    Each boundary calls the run's ``boundary_fn`` closure for its ten
    control values and packs the six it records, with t, the state, N and
    its rates, straight into the run's table, one _TABLE_COLUMNS row;
    ``control_sample`` (seirvax.analysis) calls the same closure for one
    sample, so
    ``control_sample(cfg, params, t[k], state(k), r0, reset_counts[k] > 0)``
    gives row k's 13 values, h_dot, R_star_dot, K_N and K_I included. The
    returned Trajectory keeps the recorded rows of the table.

    on_rows, when given, is called with each block of _BLOCK_ROWS table
    rows (views) and their reset counts as soon as the
    block's last row is recorded, and once after the loop with the rows
    left over, if any, so it sees every recorded row once, in order.
    """
    sc = scenario.resolved()
    dt = sc.dt
    n_steps = sc.step_count()
    params = sc.params
    rate = make_rate_fn(params)
    boundary = boundary_fn(sc.control, params, sc.x0.R)

    size = n_steps + 1
    # The table is the run's only storage: each step packs its row straight
    # into it, and the Trajectory keeps the recorded rows.
    try:
        table = np.empty((size, len(_TABLE_COLUMNS)))
        reset_counts = np.zeros(size, dtype=np.int64)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(
            f"horizon {sc.horizon!r} at dt {dt!r} needs {size:.3g} rows, "
            f"more than can be stored: {exc}"
        ) from None
    packed = memoryview(table).cast("B")
    row_bytes = _ROW.size
    reset_events: list[ResetEvent] = []

    S, E, I, R = sc.x0
    status = RunStatus.OK
    recorded = 0
    half = 0.5 * dt
    sixth = dt / 6.0
    pack = _ROW.pack_into
    # the last row of the next block to pass on; past the grid without on_rows
    block_end = size if on_rows is None else _BLOCK_ROWS - 1

    for k in range(size):
        t = k * dt
        negative = S < 0.0 or E < 0.0 or I < 0.0 or R < 0.0
        if negative:
            (S, E, I, R), clamps = apply_reset(StateVec(S, E, I, R))
        N = S + E + I + R
        if not N > N_FLOOR or N - N != 0.0:
            status = _ending(N)
            break
        if negative:
            reset_events.extend(ResetEvent(t, i, before) for i, before in clamps)
            reset_counts[k] = len(clamps)

        V_a, V, g, h, _, R_star, _, _, _, dN = boundary(t, N, I, negative)
        d1S, d1E, d1I, d1R = rate(S, E, I, R, V)
        pack(packed, k * row_bytes, t, S, E, I, R, N, d1S, d1E, d1I, d1R,
             V_a, V, g, h, R_star, dN)
        recorded = k + 1
        if k == block_end:
            block = slice(recorded - _BLOCK_ROWS, recorded)
            on_rows(table[block], reset_counts[block])
            block_end += _BLOCK_ROWS
        # a non-finite demand ends the run here: a nan one would feed a nan
        # step anyway, an infinite one can clamp to a finite V and run on
        if V_a - V_a != 0.0:
            status = RunStatus.BLOWUP
            break
        if k == n_steps:
            break

        try:
            d2S, d2E, d2I, d2R = rate(
                S + half * d1S, E + half * d1E, I + half * d1I, R + half * d1R, V
            )
            d3S, d3E, d3I, d3R = rate(
                S + half * d2S, E + half * d2E, I + half * d2I, R + half * d2R, V
            )
            d4S, d4E, d4I, d4R = rate(
                S + dt * d3S, E + dt * d3E, I + dt * d3I, R + dt * d3R, V
            )
        except SingularStateError as exc:
            status = _ending(exc.total)
            break
        S += sixth * (d1S + 2.0 * (d2S + d3S) + d4S)
        E += sixth * (d1E + 2.0 * (d2E + d3E) + d4E)
        I += sixth * (d1I + 2.0 * (d2I + d3I) + d4I)
        R += sixth * (d1R + 2.0 * (d2R + d3R) + d4R)

    if on_rows is not None and recorded % _BLOCK_ROWS:
        block = slice(recorded - recorded % _BLOCK_ROWS, recorded)
        on_rows(table[block], reset_counts[block])
    return Trajectory(
        sc, status, table[:recorded], reset_counts[:recorded], tuple(reset_events)
    )


class SteadyState(NamedTuple):
    """Outcome of the settled-regime search; the default is not found."""

    t_ss: float | None = None
    x_ss: StateVec | None = None

    @property
    def found(self) -> bool:
        return self.t_ss is not None

    @property
    def infected_fraction(self) -> float | None:
        """(E + I)/N at the settled state, None when not found."""
        return self.x_ss.infected_fraction if self.found else None


def detect_steady_state(traj: Trajectory) -> SteadyState:
    """First window of sustained stillness, measured against population size.

    Scans for the earliest t_ss such that every recorded sample in
    [t_ss, t_ss + STEADY_STATE_WINDOW_DAYS] has max_i |dx_i/dt| <= tol * N
    at that sample, tol being the scenario's steady_state_tol; a sample
    with a nan rate is moving. Returns the window start and the window
    time-average state. A horizon shorter than the window can never
    qualify.
    """
    n = len(traj)
    if n == 0:
        raise ValueError("cannot scan an empty trajectory")
    tol = traj.scenario.steady_state_tol
    steps = STEADY_STATE_WINDOW_DAYS / traj.dt
    if math.isinf(steps):  # dt below about 1.7e-307: no run holds the window
        return SteadyState()
    w = max(1, int(round(steps)))
    if n < w + 1:
        return SteadyState()
    # The row-wise max of |rate| goes column by column into one buffer.
    rates = traj.rates
    peak = np.abs(rates[:, 0])
    column = np.empty_like(peak)
    for j in range(1, rates.shape[1]):
        np.maximum(peak, np.abs(rates[:, j], out=column), out=peak)
    # moving[1 + k] flags sample k and both ends are moving sentinels, so
    # every still stretch is the gap between two consecutive moving flags;
    # a flag is not (peak <= tol * N), so a nan peak is moving.
    moving = np.ones(n + 2, dtype=bool)
    # a tol*N past the float range is an infinite threshold, every sample
    # under it still: the overflow is the answer, not a fault
    with np.errstate(over="ignore"):
        np.multiply(tol, traj.N, out=column)
    np.less_equal(peak, column, out=moving[1:-1])
    np.logical_not(moving[1:-1], out=moving[1:-1])
    # freed before the flag positions, which number up to n + 2
    del peak, column
    flagged = np.flatnonzero(moving)
    # flags at positions p < q hold the q - p - 1 still samples p .. q - 2
    # between them: the first gap of w + 2 or more starts the window at p
    wide = np.flatnonzero(np.diff(flagged) >= w + 2)
    if wide.size == 0:
        return SteadyState()
    k = int(flagged[wide[0]])
    window = traj.states[k : k + w + 1]
    with np.errstate(over="ignore"):
        mean = window.mean(axis=0)
    # a still window holds finite states, so a non-finite mean is a sum
    # past the float range: that column is averaged scaled to its largest
    # magnitude, which keeps every term at or below 1
    for j in np.flatnonzero(~np.isfinite(mean)):
        scale = np.abs(window[:, j]).max()
        mean[j] = (window[:, j] / scale).mean() * scale
    x_ss = StateVec(*(float(v) for v in mean))
    return SteadyState(t_ss=float(traj.t[k]), x_ss=x_ss)

