"""The paper's analysis apparatus: factorizations, Metzler checks, the
constant/varying split, tracking bounds, closed forms and the
single-sample controller.

No run executes any of it: a simulation, the CLI and the benchmark read
only the run modules (model, control, sim, stability, presets, cli), and
none of them imports this one. ``seirvax`` re-exports every name here and
imports this module on first access to one of them.

build_matrix and forcing_vector factor the vector field ``make_rate_fn``
(model.py) as a bare 4x4 matrix times the state plus an input vector,
eight ways (MatrixVariant); reconstruct_derivative rebuilds it from such
a pair.

A matrix is Metzler when every off-diagonal entry is nonnegative; linear
systems driven by such matrices (plus nonnegative forcing) keep nonnegative
states nonnegative, which is the backbone of the positivity argument for
this model. The parameter-level Metzler criterion is that scan at one
state, the worst admissible one; ModelParams has already refused any rate
set outside the paper's standing assumptions. The reset rule that clamps
negative populations is run code and lives in sim.py.

tracking_bound, immune_closed_form and stationary_tracking_level are the
controller's closed forms (control.py holds the controller itself), and
control_sample evaluates that controller at one state and time.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .control import ControlConfig, _decay_gap, _derived_values, boundary_fn
from .errors import ConfigError, DecompositionError, SingularStateError
from .model import N_FLOOR, ModelParams, StateVec


def _require_population(x) -> float:
    S, E, I, R = x
    N = S + E + I + R
    if not N > N_FLOOR:
        raise SingularStateError(N, N_FLOOR)
    return N


class MatrixVariant(enum.Enum):
    """The eight ways the dynamics factor into matrix * state + forcing.

    The transmission bilinearity beta*S*I/N can be attributed to the S
    column (coefficient beta*I/N) or the I column (coefficient beta*S/N),
    independently for the susceptible drain and the latent gain; that gives
    four base variants. Each has a sibling with the newborn inflow folded
    into the matrix as a rank-one first-row shift (+nu in every column of
    row S) instead of living in the forcing vector.

    Enum values are the stable ids used in configs and reports.
    """

    BILINEAR_VIA_S = "A1"
    BILINEAR_VIA_I = "A2"
    SPLIT_DRAIN_I_GAIN_S = "A3"
    SPLIT_DRAIN_S_GAIN_I = "A4"
    BILINEAR_VIA_S_WITH_BIRTH = "A1_0"
    BILINEAR_VIA_I_WITH_BIRTH = "A2_0"
    SPLIT_DRAIN_I_GAIN_S_WITH_BIRTH = "A3_0"
    SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH = "A4_0"

    @property
    def includes_birth_term(self) -> bool:
        return self.value.endswith("_0")

    @property
    def base(self) -> "MatrixVariant":
        """The sibling without the birth term (self if already base)."""
        return MatrixVariant(self.value[:2])


# Canonical representation used internally; the others exist for analysis
# and cross-checks.
CANONICAL_VARIANT = MatrixVariant.SPLIT_DRAIN_S_GAIN_I


def build_matrix(params: ModelParams, x: StateVec, variant: MatrixVariant) -> np.ndarray:
    """Instantaneous state matrix for the given factoring variant.

    Row/column order is (S, E, I, R).
    """
    S, E, I, R = x
    N = _require_population(x)
    # fractions first: S/N <= 1 exactly, so contact never rounds above beta
    foi = params.beta * (I / N)  # force of infection, multiplies S
    contact = params.beta * (S / N)  # contact drain, multiplies I
    mu = params.mu

    m = np.zeros((4, 4))
    m[2] = (0.0, params.sigma, -(mu + params.gamma), 0.0)
    m[3] = (0.0, 0.0, params.immune_recovery_rate, -params.immune_pole)

    base = variant.base
    if base in (MatrixVariant.BILINEAR_VIA_S, MatrixVariant.SPLIT_DRAIN_S_GAIN_I):
        m[0] = (-(mu + foi), 0.0, 0.0, params.omega)
    else:
        m[0] = (-mu, 0.0, -contact, params.omega)
    if base in (MatrixVariant.BILINEAR_VIA_S, MatrixVariant.SPLIT_DRAIN_I_GAIN_S):
        m[1] = (foi, -(mu + params.sigma), 0.0, 0.0)
    else:
        m[1] = (0.0, -(mu + params.sigma), contact, 0.0)

    if variant.includes_birth_term:
        m[0] += params.nu

    return m


def forcing_vector(
    params: ModelParams, x: StateVec, V: float, variant: MatrixVariant
) -> np.ndarray:
    """Input vector paired with a matrix variant.

    Base variants carry the newborn inflow here, (nu*N - nu*N*V, 0, 0, nu*N*V);
    the _WITH_BIRTH siblings carry it in the matrix, leaving (-nu*N*V, 0, 0,
    nu*N*V). For V in [0, 1] the base vector is nonnegative.
    """
    N = _require_population(x)
    births = params.nu * N
    vaccinated = births * V
    inflow = -vaccinated if variant.includes_birth_term else births - vaccinated
    return np.array([inflow, 0.0, 0.0, vaccinated])


def reconstruct_derivative(
    params: ModelParams, x: StateVec, V: float, variant: MatrixVariant
) -> np.ndarray:
    """Rebuild the vector field as matrix*state + forcing, (dS, dE, dI, dR)."""
    m = build_matrix(params, x, variant)
    return m @ np.asarray(x, dtype=float) + forcing_vector(params, x, V, variant)


class MetzlerReport(NamedTuple):
    """Result of scanning a matrix's off-diagonal entries.

    violating_entries holds (row, col, value) triples, 0-based indices.
    """

    min_offdiagonal: float
    violating_entries: tuple[tuple[int, int, float], ...]

    @property
    def is_metzler(self) -> bool:
        return not self.violating_entries


def check_metzler(matrix) -> MetzlerReport:
    """Scan the actual off-diagonal entries of a square matrix.

    Every negative off-diagonal entry is a violation (the strict definition).
    A 1x1 or 0x0 matrix has no off-diagonal entry: Metzler, minimum inf.
    """
    entries = np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    off_mask = ~np.eye(entries.shape[0], dtype=bool)
    rows, cols = np.nonzero(off_mask & (entries < 0.0))  # row-major order
    violations = tuple(
        (int(i), int(j), float(entries[i, j])) for i, j in zip(rows, cols)
    )
    return MetzlerReport(
        min_offdiagonal=float(entries[off_mask].min(initial=np.inf)),
        violating_entries=violations,
    )


def metzler_parameter_criterion(params: ModelParams, variant: MatrixVariant) -> bool:
    """Parameter-only Metzler predicate for a matrix variant: the scan of
    the matrix at the all-susceptible state.

    It holds iff every state with 0 <= S, I <= N gives a Metzler matrix.
    Admissible rates make every off-diagonal entry a nonnegative rate or
    beta*I/N or beta*S/N, except the contact drain -beta*S/N of variants
    that put it in the I column (nu - beta*S/N with the birth term), which
    is smallest at S = N.
    """
    corner = StateVec(1.0, 0.0, 0.0, 0.0)
    return check_metzler(build_matrix(params, corner, variant)).is_metzler


def decompose_star(
    params: ModelParams,
    x: StateVec,
    ref_fraction: float = 1.0,
    include_birth: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the canonical state matrix into constant + state-varying parts.

    Returns (A_const, B). B collects the susceptible drain's excess over
    the reference infectious fraction ref_fraction (default 1, the worst
    case, which every admissible state satisfies),
    B[0,0] = beta*(ref_fraction - I/N), plus the latent gain
    B[1,2] = beta*S/N; both are nonnegative whenever the current infectious
    fraction stays at or below the reference. A_const is the canonical
    matrix at x minus B: it freezes the infectious fraction at the
    reference and carries no latent-gain coupling, so its eigenvalues sit
    on the diagonal.

    With include_birth the canonical matrix is its birth sibling, so the
    rank-one newborn shift (+nu across the first row) lands in A_const.

    Raises ConfigError unless 0 < ref_fraction <= 1, and
    DecompositionError when I/N exceeds ref_fraction.
    """
    if not 0.0 < ref_fraction <= 1.0:
        raise ConfigError(f"ref_fraction must be in (0, 1], got {ref_fraction!r}")
    S, E, I, R = x
    N = _require_population(x)
    frac = I / N
    if frac > ref_fraction + 1e-12:
        raise DecompositionError(
            f"infectious fraction {frac!r} exceeds reference {ref_fraction!r}; "
            "the varying part would go negative"
        )
    b = np.zeros((4, 4))
    b[0, 0] = params.beta * (ref_fraction - frac)
    b[1, 2] = params.beta * (S / N)
    variant = (
        MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH if include_birth
        else CANONICAL_VARIANT
    )
    a_const = build_matrix(params, x, variant) - b
    return a_const, b


class TrackingCase(enum.Enum):
    CASE_I = "i"
    CASE_II = "ii"
    CASE_III = "iii"
    CASE_IV = "iv"
    CASE_V = "v"
    CASE_VI = "vi"
    CASE_VII = "vii"
    CASE_VIII = "viii"


class TrackingBound(NamedTuple):
    """Asymptotic upper bound for the immune population, R(inf) <= R_bar.

    feasible means the bounding ratio R_bar/N2 is at most 1 (the bound says
    something a population can satisfy). immune_extinction marks the
    special case where the immune level converges to zero outright.
    requires documents the design context in which the case's formula was
    derived; it is not checked against a trajectory.
    """

    case: TrackingCase
    R_bar: float
    ratio: float
    immune_extinction: bool = False
    requires: str = ""

    @property
    def feasible(self) -> bool:
        return self.ratio <= 1.0


def tracking_bound(
    case: TrackingCase,
    params: ModelParams,
    cfg: ControlConfig,
    N2: float,
    g_min: float | None = None,
    g_max: float | None = None,
) -> TrackingBound:
    """Closed-form tracking bound for one design case.

    N2 is the population upper bound. CASE_I needs the run's minimum
    modulation value (g_min); CASE_VIII its maximum (g_max).
    """
    cfg = cfg.validated(params)
    if not N2 > 0.0:
        raise ConfigError(f"N2 must be > 0, got {N2!r}")
    a = params.immune_pole
    if not a > 0.0:
        raise ConfigError("tracking bounds divide by mu + omega; need it > 0")
    g1r = params.immune_recovery_rate

    def bound(ratio: float, requires: str, extinct: bool = False) -> TrackingBound:
        return TrackingBound(
            case=case, R_bar=ratio * N2, ratio=ratio,
            immune_extinction=extinct, requires=requires,
        )

    if case is TrackingCase.CASE_I:
        if g_min is None:
            raise ConfigError("case i needs the run minimum of the modulation signal")
        return bound(cfg.eps0 * (1.0 - cfg.eps * g_min) / a,
                     "switched modulation, saturated branch active")
    if case is TrackingCase.CASE_II:
        return bound((params.nu + g1r) / a, "g = 1/eps")
    if case is TrackingCase.CASE_III:
        return bound(g1r / a, "g = 1/eps and the upper indicator never fires")
    if case is TrackingCase.CASE_IV:
        return bound(g1r / a, "nu = eps0, both indicators down, g = 1/eps")
    if case is TrackingCase.CASE_V:
        req = "nu = eps0, lower indicator pinned up, upper never fires"
        if g1r == 0.0:
            return TrackingBound(
                case=case, R_bar=0.0, ratio=0.0,
                immune_extinction=True, requires=req + ", no immune inflow channel",
            )
        return bound(g1r / a, req)
    if case is TrackingCase.CASE_VI:
        return bound((params.nu + g1r) / a, "nu = eps0, g = 0, lower indicator never fires")
    if case is TrackingCase.CASE_VII:
        return bound(g1r / a, "nu = eps0, g = 0, lower indicator pinned up")
    if g_max is None:
        raise ConfigError("case viii needs the run maximum of the modulation signal")
    return bound((params.nu + g1r + cfg.eps * params.nu * g_max) / a, "nu = eps0")


def immune_closed_form(cfg: ControlConfig, params: ModelParams, t, R0: float):
    """Closed-form immune trajectory under the exponential-decay design.

    Valid for the IMMUNE_DECAY_DESIGN modulation with no infectious inflow
    into the immune compartment (disease-free runs): then the modulated
    vaccination level is eps0 * e^{-vartheta t}, the population factor
    cancels, and

        R(t) = e^{-(mu+omega) t} (R0 + eps0 (1 - e^{-(vartheta-mu-omega) t})
                                         / (vartheta - mu - omega)).

    t may be a scalar or an array.
    """
    cfg = cfg.validated(params)
    gap = _decay_gap(cfg, params)
    a = params.immune_pole
    tt = np.asarray(t, dtype=float)
    out = np.exp(-a * tt) * (R0 + cfg.eps0 * (1.0 - np.exp(-gap * tt)) / gap)
    return float(out) if out.ndim == 0 else out


def stationary_tracking_level(cfg: ControlConfig, params: ModelParams, N: float) -> float:
    """Steady immune level eps0*N/(vartheta - mu - omega) for the tracking
    configuration that holds the population constant.

    Equals N exactly when vartheta = eps0 + mu + omega.
    """
    cfg = cfg.validated(params)
    return cfg.eps0 * N / _decay_gap(cfg, params)


# ---------------------------------------------------------------------------
# Single samples: control_sample evaluates the whole law at one state and
# time, the switched design's g on the branch that state selects included.

class ControlSample(NamedTuple):
    """One evaluated control instant: the ten values a step boundary
    composes, then the derived three. A run records nine of the 13."""

    V_a: float
    V: float
    g: float
    h: float
    h_dot: float
    R_star: float
    R_star_dot: float
    K_N: float
    K_I: float
    dN: float
    theta0: bool
    theta1: bool
    identity_residual: float


def control_sample(
    cfg: ControlConfig, params: ModelParams, t: float, x: StateVec, r0: float,
    negative: bool = False,
) -> ControlSample:
    """The controller at one sample: the ``boundary_fn`` closure that
    ``integrate`` calls at each step boundary, called once.

    x is the (post-reset) state at time t >= 0, r0 the initial immune count
    and negative whether some component was < 0 before the reset. The ten
    composed values are followed by ``_derived_values``: the indicators and
    the identity residual. On a run's own samples the result equals the
    recorded row bit for bit.
    """
    cfg = cfg.validated(params)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    N = _require_population(x)
    values = boundary_fn(cfg, params, r0)(t, N, x.I, negative)
    theta0, theta1, residual = _derived_values(cfg, params, N, values[0], values[2])
    return ControlSample(*values, theta0, theta1, float(residual))
