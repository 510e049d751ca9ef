"""Feedback vaccination synthesis.

The controller tracks a reference immune population R*(t) = h(t) * N(t)
built from a settling profile h. Gains K_N and K_I are scheduled so the
raw (auxiliary) vaccination signal

    V_a = (K_N*N + K_I*I + K_R*R* + K_Rd*dR*/dt) / (nu*N)

collapses algebraically to eps0*(1 - eps*g(t)) / nu, where g is a designer
modulation signal. Saturation indicators flag V_a leaving [0, 1]; the
saturated law clamps, the unsaturated law applies V_a raw and relies on
state resets for positivity.

Family/profile selector values ("eq33a", "section7", ...) are stable ids
used in config files and reports; the Python names describe behavior.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateProfileError,
    IndicatorMismatchError,
)
from .model import ModelParams, StateVec, _require_population, total_population_rate


class VaccinationLaw(enum.Enum):
    NONE = "none"
    SATURATED = "saturated"
    UNSATURATED = "unsaturated"


class ModulationFamily(enum.Enum):
    """Designer choices for the modulation signal g(t).

    ZERO                       g = 0: vaccination level pinned at eps0/nu.
    CONSTANT_NULLING           g = 1/eps: modulated level exactly zero.
    SATURATED_BRANCH           closed form for samples where an indicator
                               is up (V_a outside [0,1]).
    INTERIOR_BRANCH            closed form for samples with V_a in [0,1];
                               together with SATURATED_BRANCH this forms
                               one switched design (see closed-loop notes).
    IMMUNE_DECAY_DESIGN        g = (N - e^{-vartheta t})/(eps N): drives
                               the immune level along an exponential decay
                               with a known closed form.
    DELAYED_TRACKING_ONSET     switch-on modulation that holds the immune
                               level at N after a finite onset time.
    PROPORTIONAL_TO_RECOVERY   g = gamma(1-rho) I/(eps nu N).
    RECOVERY_MINUS_UNIT        g = (gamma(1-rho) I/(nu N) - 1)/eps.
    """

    ZERO = "zero"
    CONSTANT_NULLING = "constant_inv_eps"
    SATURATED_BRANCH = "eq33a"
    INTERIOR_BRANCH = "eq33b"
    IMMUNE_DECAY_DESIGN = "eq43_theorem6"
    DELAYED_TRACKING_ONSET = "corollary2_ii"
    PROPORTIONAL_TO_RECOVERY = "custom_case_a"
    RECOVERY_MINUS_UNIT = "custom_case_b"


_SWITCHED_FAMILIES = (
    ModulationFamily.SATURATED_BRANCH,
    ModulationFamily.INTERIOR_BRANCH,
)


class ReferenceProfile(enum.Enum):
    """Shapes for the reference immune fraction h(t).

    EXP_SETTLING     starts at R(0)/N and relaxes to 1 at rate c, so the
                     target becomes the whole population.
    POLE_MATCHED     built on the immune compartment's own pole mu+omega
                     with level set by eps0; under a constant population
                     and eps0 = mu+omega it also settles at 1.
    DECAY_DESIGN     companion profile of IMMUNE_DECAY_DESIGN; decays to 0.
    CONSTANT_LEVEL   pins the reference at the initial immune count.
    """

    EXP_SETTLING = "section7"
    POLE_MATCHED = "corollary2_i"
    DECAY_DESIGN = "theorem6_ii"
    CONSTANT_LEVEL = "constant"


@dataclass(frozen=True)
class ControlConfig:
    """Controller gains, design constants, and family selectors.

    eps0 left as None resolves to mu + omega at validation time (the value
    that matches the immune pole). vartheta is only consulted by the decay
    design (modulation family and/or reference profile).
    """

    K_R: float = 1.0
    K_Rd: float = 1.0
    eps: float = 1.0
    eps0: float | None = None
    vartheta: float | None = None
    c: float = 0.2
    g_family: ModulationFamily = ModulationFamily.ZERO
    h_family: ReferenceProfile = ReferenceProfile.EXP_SETTLING
    law: VaccinationLaw = VaccinationLaw.SATURATED

    def resolved_eps0(self, params: ModelParams) -> float:
        if self.eps0 is None:
            return params.mu + params.omega
        return self.eps0

    def validated(self, params: ModelParams) -> "ControlConfig":
        """Resolve defaults and enforce the configuration-time guards."""
        eps0 = self.resolved_eps0(params)
        cfg = replace(self, eps0=eps0)
        if cfg.K_Rd == 0.0:
            raise ConfigError("K_Rd must be nonzero (the rate-feedback path defines K_N)")
        if not eps0 > 0.0:
            raise ConfigError(f"eps0 must be > 0, got {eps0!r}")
        if cfg.eps < 0.0:
            raise ConfigError(f"eps must be >= 0, got {cfg.eps!r}")
        if cfg.g_family is not ModulationFamily.ZERO and not cfg.eps > 0.0:
            raise ConfigError(
                f"modulation family {cfg.g_family.value!r} needs eps > 0 "
                "(eps = 0 forces the modulation off)"
            )
        if cfg.law is not VaccinationLaw.NONE and not params.nu > 0.0:
            raise ConfigError("an active vaccination law needs nu > 0 (it scales 1/(nu N))")
        if cfg.g_family in _SWITCHED_FAMILIES:
            floor = max(params.nu, params.immune_recovery_rate)
            if not eps0 > floor:
                raise ConfigError(
                    "switched modulation needs eps0 > max(nu, gamma*(1-rho)) "
                    f"= {floor!r}, got eps0 = {eps0!r}"
                )
        needs_vartheta = (
            cfg.g_family is ModulationFamily.IMMUNE_DECAY_DESIGN
            or cfg.h_family is ReferenceProfile.DECAY_DESIGN
        )
        if needs_vartheta and cfg.vartheta is None:
            raise ConfigError("the decay design needs vartheta set")
        pole = params.mu + params.omega
        if cfg.h_family is ReferenceProfile.DECAY_DESIGN and cfg.vartheta == pole:
            raise ConfigError(
                f"the decay profile degenerates when vartheta equals mu + omega = {pole!r}"
            )
        if cfg.g_family is ModulationFamily.IMMUNE_DECAY_DESIGN and not cfg.vartheta > pole:
            raise ConfigError(
                f"decay modulation needs vartheta > mu + omega = {pole!r}, "
                f"got {cfg.vartheta!r}"
            )
        return cfg


class ReferenceSample(NamedTuple):
    h: float
    h_dot: float
    R_star: float
    R_star_dot: float


@dataclass(frozen=True)
class ControlSample:
    """One evaluated control instant."""

    t: float
    V_a: float
    V: float
    theta0: bool
    theta1: bool
    g: float
    h: float
    h_dot: float
    R_star: float
    R_star_dot: float
    K_N: float
    K_I: float


# ---------------------------------------------------------------------------
# Per-family pieces. Each resolves its selector and constants once and
# returns a plain-float function; make_control_fn composes them for the
# integrator and the public helpers below wrap them for single samples.

def _profile_fn(cfg: ControlConfig, params: ModelParams, eps0: float, r0: float):
    """Reference profile: profile(t, N, dN) -> (h, h_dot, R_star, R_star_dot).

    All profiles anchor at the initial immune count, R*(0) = r0. h_dot is
    the profile's explicit time-derivative with N held at its sampled
    value; the population's own rate enters through the product rule,
    R_star_dot = h_dot*N + h*dN. CONSTANT_LEVEL re-anchors h = r0/N each
    sample so R_star stays at r0; its explicit time-derivative is zero.
    """
    fam = cfg.h_family
    if fam is ReferenceProfile.EXP_SETTLING:
        c = cfg.c
        neg_c = -c

        def profile(t, N, dN):
            decay = math.exp(neg_c * t)
            h = (decay * r0 + N * (1.0 - decay)) / N
            h_dot = c * decay * (1.0 - r0 / N)
            return h, h_dot, h * N, h_dot * N + h * dN

    elif fam is ReferenceProfile.POLE_MATCHED:
        a = params.mu + params.omega
        neg_a = -a
        a_r0 = a * r0

        def profile(t, N, dN):
            decay = math.exp(neg_a * t)
            h = (decay * r0 + eps0 * N * (1.0 - decay) / a) / N
            h_dot = decay * (eps0 - a_r0 / N)
            return h, h_dot, h * N, h_dot * N + h * dN

    elif fam is ReferenceProfile.DECAY_DESIGN:
        a = params.mu + params.omega
        vartheta = cfg.vartheta
        if vartheta is None:
            raise ConfigError("the decay profile needs vartheta set")
        if vartheta == a:
            raise DegenerateProfileError(
                "decay profile degenerates when vartheta equals mu + omega"
            )
        neg_a = -a
        neg_vartheta = -vartheta
        gap = vartheta - a

        def profile(t, N, dN):
            slow = math.exp(neg_a * t)
            fast = math.exp(neg_vartheta * t)
            decline = neg_a * slow
            h = (slow * r0 + eps0 * (slow - fast) / gap) / N
            h_dot = (decline * r0 + eps0 * (decline + vartheta * fast) / gap) / N
            return h, h_dot, h * N, h_dot * N + h * dN

    else:  # CONSTANT_LEVEL

        def profile(t, N, dN):
            h = r0 / N
            return h, 0.0, r0, h * dN

    return profile


def _switched_interior_g(g1r, eps, eps0, N, I):
    return (1.0 - g1r * I / (eps0 * N)) / eps


def _switched_saturated_g(g1r, nu, eps, eps0, N, I, th0, th1):
    return ((eps0 * th0 + (eps0 - nu) * th1) * N - g1r * I) / (eps0 * eps * N * (th0 + th1))


def _modulation_fn(cfg: ControlConfig, params: ModelParams, eps0: float, r0: float | None):
    """Closed-loop modulation: modulation(t, N, I) -> g.

    Either switched family engages the same two-branch automaton (the two
    enum members select the same design; they differ only in which branch
    a standalone g_signal call exposes). The interior branch implies a
    vaccination level equal to the immune recovery inflow over nu*N; when
    that implied level exceeds 1 the design switches to the saturated
    branch with the upper indicator, which is self-consistent because it
    implies a level of 1 + (inflow ratio) > 1. The lower indicator's
    branch is unreachable from nonnegative states (the implied level is
    never negative). r0 (initial immune count) is only consulted by
    DELAYED_TRACKING_ONSET.
    """
    fam = cfg.g_family
    eps = cfg.eps
    if fam is not ModulationFamily.ZERO and not eps > 0.0:
        raise ConfigError(f"modulation family {fam.value!r} needs eps > 0")
    nu = params.nu
    g1r = params.immune_recovery_rate
    if fam in (ModulationFamily.PROPORTIONAL_TO_RECOVERY,
               ModulationFamily.RECOVERY_MINUS_UNIT) and not nu > 0.0:
        raise ConfigError("this modulation divides by nu; needs nu > 0")

    if fam is ModulationFamily.ZERO:

        def modulation(t, N, I):
            return 0.0

    elif fam is ModulationFamily.CONSTANT_NULLING:
        nulling = 1.0 / eps

        def modulation(t, N, I):
            return nulling

    elif fam in _SWITCHED_FAMILIES:

        def modulation(t, N, I):
            if g1r * I / (nu * N) > 1.0:
                return _switched_saturated_g(g1r, nu, eps, eps0, N, I, 0.0, 1.0)
            return _switched_interior_g(g1r, eps, eps0, N, I)

    elif fam is ModulationFamily.IMMUNE_DECAY_DESIGN:
        if cfg.vartheta is None:
            raise ConfigError("the decay design needs vartheta set")
        neg_vartheta = -cfg.vartheta

        def modulation(t, N, I):
            return (N - math.exp(neg_vartheta * t)) / (eps * N)

    elif fam is ModulationFamily.DELAYED_TRACKING_ONSET:
        if r0 is None:
            raise ConfigError(
                "the delayed-onset modulation needs the initial immune count r0"
            )
        a = params.mu + params.omega
        neg_a = -a

        def modulation(t, N, I):
            settled = -math.expm1(neg_a * t)  # 1 - e^{-a t}
            if settled <= 0.0:
                return 0.0
            raw = (1.0 - a * (1.0 - math.exp(neg_a * t) * r0 / N) / (eps0 * settled)) / eps
            return max(0.0, raw)

    elif fam is ModulationFamily.PROPORTIONAL_TO_RECOVERY:
        eps_nu = eps * nu

        def modulation(t, N, I):
            return g1r * I / (eps_nu * N)

    else:  # RECOVERY_MINUS_UNIT

        def modulation(t, N, I):
            return (g1r * I / (nu * N) - 1.0) / eps

    return modulation


def _gain_fn(cfg: ControlConfig, params: ModelParams, eps0: float):
    """Scheduled gains, memoryless: gains(h, h_dot, g) -> (K_N, K_I) with

        K_N = -(K_R + (nu - mu) K_Rd) h - K_Rd h_dot + eps0 (1 - eps g)
        K_I = gamma rho K_Rd h
    """
    K_Rd = cfg.K_Rd
    eps = cfg.eps
    kn_h = -(cfg.K_R + (params.nu - params.mu) * K_Rd)
    ki_h = params.gamma * params.rho * K_Rd

    def gains(h, h_dot, g):
        return kn_h * h - K_Rd * h_dot + eps0 * (1.0 - eps * g), ki_h * h

    return gains


def _law_fn(cfg: ControlConfig, params: ModelParams, eps0: float, saturate: bool):
    """law(N, I, h, h_dot, R_star, R_star_dot, g, raw_min) -> (K_N, K_I, V_a, V).

    The demand is V_a = (K_N*N + K_I*I + K_R*R_star + K_Rd*R_star_dot)/(nu*N).
    The saturated law applies clamp(V_a, 0, 1). The unsaturated law falls
    back to the clamp only when the raw state had gone negative (raw_min,
    the smallest component before any reset at this boundary, is < 0):

        V = V_a   if V_a >= 0 and raw_min >= 0 (may exceed 1)
        V = 1     if V_a > 1 and raw_min < 0
        V = 0     if V_a < 0
        V = V_a   if V_a in [0, 1] and raw_min < 0 (reset-then-apply rule)
    """
    gains = _gain_fn(cfg, params, eps0)
    K_R = cfg.K_R
    K_Rd = cfg.K_Rd
    nu = params.nu

    def law(N, I, h, h_dot, R_star, R_star_dot, g, raw_min):
        K_N, K_I = gains(h, h_dot, g)
        V_a = (K_N * N + K_I * I + K_R * R_star + K_Rd * R_star_dot) / (nu * N)
        if V_a < 0.0:
            return K_N, K_I, V_a, 0.0
        if V_a > 1.0 and (saturate or raw_min < 0.0):
            return K_N, K_I, V_a, 1.0
        return K_N, K_I, V_a, V_a

    return law


def _identity_residual(nu, eps, eps0, N, V_a, g):
    actual = nu * N * V_a
    target = eps0 * (1.0 - eps * g) * N
    scale = max(abs(actual), abs(target), eps0 * N)
    if scale == 0.0:
        return 0.0
    return abs(actual - target) / scale


def make_control_fn(cfg: ControlConfig, params: ModelParams, r0: float):
    """Plain-float closed-loop controller for integration hot loops.

    Resolves profile, modulation family, law and constants once and returns
    control(t, S, E, I, R, raw_min) -> (V_a, V, theta0, theta1, g, h, h_dot,
    R_star, R_star_dot, K_N, K_I, residual, dN), bit-identical to the
    public helpers (reference, the law, modulation_identity_residual,
    total_population_rate) but building no objects. r0 is the initial
    immune count, raw_min the smallest state component before any reset;
    the caller keeps N above the extinction floor. Under the NONE law
    nothing is applied (V_a = V = g = residual = 0, indicators down) but
    the gains are still evaluated with g = 0 so the schedule stays visible.
    """
    eps0 = cfg.resolved_eps0(params)
    profile = _profile_fn(cfg, params, eps0, r0)
    growth = params.nu - params.mu
    deaths = params.rho * params.gamma

    if cfg.law is VaccinationLaw.NONE:
        gains = _gain_fn(cfg, params, eps0)

        def control(t, S, E, I, R, raw_min):
            N = S + E + I + R
            dN = growth * N - deaths * I
            h, h_dot, R_star, R_star_dot = profile(t, N, dN)
            K_N, K_I = gains(h, h_dot, 0.0)
            return (0.0, 0.0, False, False, 0.0, h, h_dot, R_star, R_star_dot,
                    K_N, K_I, 0.0, dN)

        return control

    modulation = _modulation_fn(cfg, params, eps0, r0)
    law = _law_fn(cfg, params, eps0, cfg.law is VaccinationLaw.SATURATED)
    nu = params.nu
    eps = cfg.eps

    def control(t, S, E, I, R, raw_min):
        N = S + E + I + R
        dN = growth * N - deaths * I
        h, h_dot, R_star, R_star_dot = profile(t, N, dN)
        g = modulation(t, N, I)
        K_N, K_I, V_a, V = law(N, I, h, h_dot, R_star, R_star_dot, g, raw_min)
        return (V_a, V, V_a < 0.0, V_a > 1.0, g, h, h_dot, R_star, R_star_dot,
                K_N, K_I, _identity_residual(nu, eps, eps0, N, V_a, g), dN)

    return control


# ---------------------------------------------------------------------------
# Public single-sample helpers: thin wrappers over the pieces above.

def reference(
    cfg: ControlConfig, params: ModelParams, t: float, x: StateVec, R0: float
) -> ReferenceSample:
    """Reference immune target at time t for a scenario that started with
    R0 immune (profiles as in ``_profile_fn``)."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    N = _require_population(x)
    profile = _profile_fn(cfg, params, cfg.resolved_eps0(params), R0)
    return ReferenceSample(*profile(t, N, total_population_rate(params, x)))


def gain_schedule(
    cfg: ControlConfig, params: ModelParams, h: float, h_dot: float, g: float
) -> tuple[float, float]:
    """Scheduled gains (K_N, K_I), as in ``_gain_fn``."""
    return _gain_fn(cfg, params, cfg.resolved_eps0(params))(h, h_dot, g)


def g_signal(
    cfg: ControlConfig, params: ModelParams, t: float, x: StateVec,
    theta0: bool, theta1: bool, r0: float | None = None,
) -> float:
    """Evaluate the configured modulation family at one sample.

    The two switched branches validate the indicator pattern they are
    defined for: SATURATED_BRANCH needs exactly one indicator up,
    INTERIOR_BRANCH needs both down. r0 (initial immune count) is only
    consulted by DELAYED_TRACKING_ONSET.
    """
    fam = cfg.g_family
    if fam is ModulationFamily.ZERO:
        return 0.0
    eps0 = cfg.resolved_eps0(params)
    modulation = _modulation_fn(cfg, params, eps0, r0)  # also checks the family's inputs
    N = _require_population(x)
    g1r = params.immune_recovery_rate
    if fam is ModulationFamily.SATURATED_BRANCH:
        if (1 if theta0 else 0) + (1 if theta1 else 0) != 1:
            raise IndicatorMismatchError(
                "the saturated branch applies only when exactly one "
                f"indicator is up (got theta0={theta0!r}, theta1={theta1!r})"
            )
        return _switched_saturated_g(g1r, params.nu, cfg.eps, eps0, N, x.I,
                                     1.0 if theta0 else 0.0, 1.0 if theta1 else 0.0)
    if fam is ModulationFamily.INTERIOR_BRANCH:
        if theta0 or theta1:
            raise IndicatorMismatchError(
                "the interior branch applies only with both indicators down "
                f"(got theta0={theta0!r}, theta1={theta1!r})"
            )
        return _switched_interior_g(g1r, cfg.eps, eps0, N, x.I)
    return modulation(t, N, x.I)


def _law_sample(cfg, params, t, x, ref, r0, saturate, raw_min) -> ControlSample:
    N = _require_population(x)
    eps0 = cfg.resolved_eps0(params)
    g = _modulation_fn(cfg, params, eps0, r0)(t, N, x.I)
    law = _law_fn(cfg, params, eps0, saturate)
    k_n, k_i, v_a, v = law(N, x.I, ref.h, ref.h_dot, ref.R_star, ref.R_star_dot, g, raw_min)
    return ControlSample(
        t=t, V_a=v_a, V=v, theta0=v_a < 0.0, theta1=v_a > 1.0, g=g,
        h=ref.h, h_dot=ref.h_dot, R_star=ref.R_star, R_star_dot=ref.R_star_dot,
        K_N=k_n, K_I=k_i,
    )


def vaccination_saturated(
    cfg: ControlConfig, params: ModelParams, t: float, x: StateVec,
    ref: ReferenceSample, r0: float | None = None,
) -> ControlSample:
    """Clamped law: V = clamp(V_a, 0, 1)."""
    return _law_sample(cfg, params, t, x, ref, r0, True, 0.0)


def vaccination_unsaturated(
    cfg: ControlConfig, params: ModelParams, t: float, x: StateVec,
    ref: ReferenceSample, r0: float | None = None, raw_min: float | None = None,
) -> ControlSample:
    """Unclamped law with positivity fallback (rules in ``_law_fn``);
    raw_min defaults to min(x)."""
    return _law_sample(cfg, params, t, x, ref, r0, False,
                       min(x) if raw_min is None else raw_min)


def modulation_identity_residual(
    cfg: ControlConfig, params: ModelParams, x: StateVec, sample: ControlSample
) -> float:
    """Relative residual of nu*N*V_a against eps0*(1 - eps*g)*N.

    With the scheduled gains the two sides agree algebraically; this is the
    controller's central self-check. The scale includes the unmodulated
    demand eps0*N so the measure stays well conditioned when the modulation
    nulls the target exactly (g = 1/eps), where both sides collapse to
    roundoff.
    """
    eps0 = cfg.resolved_eps0(params)
    return _identity_residual(params.nu, cfg.eps, eps0, x.N, sample.V_a, sample.g)


class TrackingCase(enum.Enum):
    CASE_I = "i"
    CASE_II = "ii"
    CASE_III = "iii"
    CASE_IV = "iv"
    CASE_V = "v"
    CASE_VI = "vi"
    CASE_VII = "vii"
    CASE_VIII = "viii"


@dataclass(frozen=True)
class TrackingBound:
    """Asymptotic upper bound for the immune population, R(inf) <= R_bar.

    feasible means the bounding ratio R_bar/N2 is at most 1 (the bound says
    something a population can satisfy). immune_extinction marks the
    special case where the immune level converges to zero outright.
    requires documents the design context in which the case's formula was
    derived; it is not checked against a trajectory.
    """

    case: TrackingCase
    R_bar: float
    feasible: bool
    ratio: float
    immune_extinction: bool = False
    requires: str = ""


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
    if not N2 > 0.0:
        raise ConfigError(f"N2 must be > 0, got {N2!r}")
    a = params.mu + params.omega
    if not a > 0.0:
        raise ConfigError("tracking bounds divide by mu + omega; need it > 0")
    eps0 = cfg.resolved_eps0(params)
    g1r = params.immune_recovery_rate

    def bound(ratio: float, requires: str, extinct: bool = False) -> TrackingBound:
        return TrackingBound(
            case=case, R_bar=ratio * N2, feasible=ratio <= 1.0, ratio=ratio,
            immune_extinction=extinct, requires=requires,
        )

    if case is TrackingCase.CASE_I:
        if g_min is None:
            raise ConfigError("case i needs the run minimum of the modulation signal")
        return bound(eps0 * (1.0 - cfg.eps * g_min) / a,
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
                case=case, R_bar=0.0, feasible=True, ratio=0.0,
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
    if cfg.vartheta is None:
        raise ConfigError("the decay design needs vartheta set")
    a = params.mu + params.omega
    if not cfg.vartheta > a:
        raise ConfigError(
            f"decay design needs vartheta > mu + omega = {a!r}, got {cfg.vartheta!r}"
        )
    eps0 = cfg.resolved_eps0(params)
    gap = cfg.vartheta - a
    tt = np.asarray(t, dtype=float)
    out = np.exp(-a * tt) * (R0 + eps0 * (1.0 - np.exp(-gap * tt)) / gap)
    if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
        return float(out)
    return out


def stationary_tracking_level(cfg: ControlConfig, params: ModelParams, N: float) -> float:
    """Steady immune level eps0*N/(vartheta - mu - omega) for the tracking
    configuration that holds the population constant.

    Equals N exactly when vartheta = eps0 + mu + omega.
    """
    if cfg.vartheta is None:
        raise ConfigError("the tracking level needs vartheta set")
    a = params.mu + params.omega
    if not cfg.vartheta > a:
        raise ConfigError(
            f"needs vartheta > mu + omega = {a!r}, got {cfg.vartheta!r}"
        )
    return cfg.resolved_eps0(params) * N / (cfg.vartheta - a)


def decay_design_g_ceiling(cfg: ControlConfig, params: ModelParams) -> float:
    """Ceiling (eps0 - nu)/(eps*eps0) quoted for the decay design's
    alternative sufficiency argument.

    The decay modulation itself sits above this ceiling for populations
    above one individual; reports surface the comparison as a diagnostic
    rather than enforcing it.
    """
    eps0 = cfg.resolved_eps0(params)
    if not eps0 > 0.0 or not cfg.eps > 0.0:
        raise ConfigError("ceiling needs eps > 0 and eps0 > 0")
    return (eps0 - params.nu) / (cfg.eps * eps0)
