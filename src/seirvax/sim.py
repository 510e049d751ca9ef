"""Fixed-step simulation engine.

Classic fourth-order Runge-Kutta on a uniform grid t_k = k*dt. The
vaccination signal is evaluated once per step boundary from the current
state and held constant across the step (zero-order hold), so control
values line up exactly with recorded samples. Negative state components
are clamped to zero at every boundary before the control is evaluated;
under the clamped law these resets never fire in practice, under the
unclamped law they are the positivity mechanism.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .control import ControlConfig, _derived_values, control_pieces
from .errors import ConfigError, SingularStateError
from .model import (
    COMPONENT_NAMES,
    N_FLOOR,
    ModelParams,
    StateVec,
    make_rate_fn,
)
from .positivity import ResetEvent, apply_reset

# The benchmark's tracer (perfbench/tracing.py) still looks these five
# names up on this module and wraps them; nothing calls them. Retargeting
# the tracer onto control_pieces (ROADMAP.md, item 1) removes them.
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
        """Validate and fill derived defaults.

        Unset decomposition references default to the initial total
        population (reference infectious fraction 1, the worst case), and
        the controller resolves eps0 and checks its guards.
        """
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be a positive number, got {self.dt!r}")
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
                f"steady_state_tol must be > 0, got {self.steady_state_tol!r}"
            )
        x0 = StateVec(*(float(v) for v in self.x0))
        for name, v in zip(COMPONENT_NAMES, x0):
            if not math.isfinite(v) or v < 0.0:
                raise ConfigError(f"initial {name} must be finite and >= 0, got {v!r}")
        if not math.isfinite(x0.N):
            raise ConfigError(f"initial population total must be finite, got {x0.N!r}")
        if not x0.N > N_FLOOR:
            raise ConfigError(f"initial population {x0.N!r} is at or below the floor")
        params = self.params
        if params.I0_ref is None:
            params = params.with_references(x0.N, x0.N)
        control = self.control.validated(params)
        return replace(self, params=params, x0=x0, control=control)

    def step_count(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


@dataclass
class Trajectory:
    """Columnar record of one run.

    states[k] is the state the step was taken from (post-reset), and all
    control columns were evaluated on exactly that state at t[k]. status
    explains early truncation; halt_time is the first grid time that could
    not be recorded (None for a complete run).
    """

    scenario: ScenarioConfig
    status: RunStatus
    halt_time: float | None
    t: np.ndarray
    states: np.ndarray
    rates: np.ndarray
    dn: np.ndarray
    va: np.ndarray
    v: np.ndarray
    g: np.ndarray
    h: np.ndarray
    h_dot: np.ndarray
    r_star: np.ndarray
    r_star_dot: np.ndarray
    k_n: np.ndarray
    k_i: np.ndarray
    theta0: np.ndarray
    theta1: np.ndarray
    identity_residual: np.ndarray
    reset_counts: np.ndarray
    reset_events: tuple[ResetEvent, ...]

    def __len__(self) -> int:
        return self.t.size

    @property
    def S(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def E(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def I(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def R(self) -> np.ndarray:
        return self.states[:, 3]

    @property
    def N(self) -> np.ndarray:
        return self.states.sum(axis=1)

    @property
    def dt(self) -> float:
        return self.scenario.dt

    def state(self, k: int) -> StateVec:
        return StateVec(*(float(v) for v in self.states[k]))

    def terminal_state(self) -> StateVec:
        return self.state(len(self) - 1)


# Trajectory columns in the order each boundary packs them (ControlSample's
# order). The indicators theta0/theta1 and identity_residual depend only on
# these and the state, so integrate derives them once per run after the loop
# (control._derived_values).
_CONTROL_COLUMNS = (
    "va", "v", "g", "h", "h_dot", "r_star", "r_star_dot", "k_n", "k_i", "dn",
)
# One row of the run's table per recorded boundary: t, the four state
# components, their four rates, then the control columns.
_ROW = struct.Struct(f"{9 + len(_CONTROL_COLUMNS)}d")


def integrate(scenario: ScenarioConfig) -> Trajectory:
    """Run one scenario to its horizon (or early truncation).

    Truncation rules, checked at each boundary before recording:
    population at or below the extinction floor ends the run with status
    EXTINCT; a non-finite component ends it with BLOWUP. Inside a step, a
    stage population at or below the floor truncates as EXTINCT and a nan
    stage population as BLOWUP, keeping everything recorded so far. The
    last boundary takes no step, so a non-finite demand V recorded there
    ends the run with BLOWUP at the time that step would have reached.

    Each boundary composes the controller from ``control_pieces`` (the
    population rate, then profile, modulation and law) and packs its 19
    values straight into the run's table; ``control_sample`` is the same
    composition for one sample.
    """
    sc = scenario.resolved()
    dt = sc.dt
    n_steps = sc.step_count()
    params = sc.params
    rate = make_rate_fn(params)
    profile, modulation, law = control_pieces(sc.control, params, sc.x0.R)
    growth = params.nu - params.mu
    deaths = params.rho * params.gamma

    size = n_steps + 1
    # The table is the run's only storage: each step packs its row straight
    # into it, and the Trajectory's stored columns are views of the recorded
    # rows.
    try:
        table = np.empty((size, _ROW.size // 8))
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
    halt_time: float | None = None
    recorded = 0
    half = 0.5 * dt
    sixth = dt / 6.0
    pack = _ROW.pack_into
    isfinite = math.isfinite

    for k in range(size):
        t = k * dt
        N = S + E + I + R
        # a finite total implies finite components, so the per-component
        # check only runs when something already went non-finite
        if N - N != 0.0 and not (
            isfinite(S) and isfinite(E) and isfinite(I) and isfinite(R)
        ):
            status = RunStatus.BLOWUP
            halt_time = t
            break
        if not N > N_FLOOR:
            status = RunStatus.EXTINCT
            halt_time = t
            break

        negative = S < 0.0 or E < 0.0 or I < 0.0 or R < 0.0
        if negative:
            (S, E, I, R), clamps = apply_reset(StateVec(S, E, I, R))
            for i, before in clamps:
                reset_events.append(ResetEvent(t=t, index=i, value_before=before))
            reset_counts[k] = len(clamps)
            N = S + E + I + R

        dN = growth * N - deaths * I
        h, h_dot, R_star, R_star_dot = profile(t, N, dN)
        g = modulation(t, N, I)
        K_N, K_I, V_a, V = law(N, I, h, h_dot, R_star, R_star_dot, g, negative)
        d1S, d1E, d1I, d1R = rate(S, E, I, R, V)
        pack(packed, k * row_bytes, t, S, E, I, R, d1S, d1E, d1I, d1R,
             V_a, V, g, h, h_dot, R_star, R_star_dot, K_N, K_I, dN)
        recorded = k + 1

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
            status = RunStatus.BLOWUP if math.isnan(exc.total) else RunStatus.EXTINCT
            halt_time = t + dt
            break
        S += sixth * (d1S + 2.0 * (d2S + d3S) + d4S)
        E += sixth * (d1E + 2.0 * (d2E + d3E) + d4E)
        I += sixth * (d1I + 2.0 * (d2I + d3I) + d4I)
        R += sixth * (d1R + 2.0 * (d2R + d3R) + d4R)

    if status is RunStatus.OK and not isfinite(V):
        status = RunStatus.BLOWUP
        halt_time = t + dt

    rows = table[:recorded]
    states = rows[:, 1:5]
    columns = {name: rows[:, j] for j, name in enumerate(_CONTROL_COLUMNS, 9)}
    N = states[:, 0] + states[:, 1] + states[:, 2] + states[:, 3]
    theta0, theta1, residual = _derived_values(
        sc.control, params, N, columns["va"], columns["g"]
    )
    return Trajectory(
        scenario=sc,
        status=status,
        halt_time=halt_time,
        t=rows[:, 0],
        states=states,
        rates=rows[:, 5:9],
        theta0=theta0,
        theta1=theta1,
        identity_residual=residual,
        reset_counts=reset_counts[:recorded],
        reset_events=tuple(reset_events),
        **columns,
    )


@dataclass(frozen=True)
class SteadyState:
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
    at that sample, tol being the scenario's steady_state_tol. Returns the
    window start and the window time-average state. A horizon shorter than
    the window can never qualify.
    """
    n = len(traj)
    if n == 0:
        raise ValueError("cannot scan an empty trajectory")
    tol = traj.scenario.steady_state_tol
    w = int(round(STEADY_STATE_WINDOW_DAYS / traj.dt))
    if w < 1:
        w = 1
    if n < w + 1:
        return SteadyState()
    still = np.abs(traj.rates).max(axis=1) <= tol * traj.N
    # Windowed all-true via prefix sums of violations.
    bad = np.concatenate(([0], np.cumsum(~still, dtype=np.int64)))
    window_bad = bad[w + 1:] - bad[: n - w]
    hits = np.nonzero(window_bad == 0)[0]
    if hits.size == 0:
        return SteadyState()
    k = int(hits[0])
    x_ss = StateVec(*(float(v) for v in traj.states[k : k + w + 1].mean(axis=0)))
    return SteadyState(t_ss=float(traj.t[k]), x_ss=x_ss)


@dataclass(frozen=True)
class ConvergenceRow:
    dt: float
    terminal: StateVec
    diff_from_finest: float


def convergence_study(
    scenario: ScenarioConfig, dts
) -> tuple[ConvergenceRow, ...]:
    """Re-run one scenario over a ladder of step sizes.

    Rows come back ordered coarse to fine; diff_from_finest is the max-abs
    componentwise distance of the terminal state from the finest run's
    (0 for the finest row itself). Needs at least two distinct step sizes.
    Runs that truncate early make the comparison meaningless, so any
    non-OK status raises.
    """
    ladder = sorted({float(d) for d in dts}, reverse=True)
    if len(ladder) < 2:
        raise ConfigError(
            f"a convergence study needs at least two distinct step sizes, got {dts!r}"
        )
    for d in ladder:
        if not (math.isfinite(d) and d > 0.0):
            raise ConfigError(f"step sizes must be positive, got {d!r}")
    terminals: list[StateVec] = []
    for d in ladder:
        traj = integrate(replace(scenario, dt=d))
        if traj.status is not RunStatus.OK:
            raise ConfigError(
                f"run at dt={d!r} ended early with status {traj.status.value!r}; "
                "convergence comparison needs complete runs"
            )
        terminals.append(traj.terminal_state())
    finest = terminals[-1].as_array()
    return tuple(
        ConvergenceRow(
            dt=d,
            terminal=term,
            diff_from_finest=float(np.max(np.abs(term.as_array() - finest))),
        )
        for d, term in zip(ladder, terminals)
    )
