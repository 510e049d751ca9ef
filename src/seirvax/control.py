"""Feedback vaccination synthesis.

The controller tracks a reference immune population R*(t) = h(t) * N(t)
built from a settling profile h. Gains K_N and K_I are scheduled so the
raw (auxiliary) vaccination signal

    V_a = (K_N*N + K_I*I + K_R*R* + K_Rd*dR*/dt) / (nu*N)

collapses algebraically to eps0*(1 - eps*g(t)) / nu, where g is a designer
modulation signal. Saturation indicators flag V_a leaving [0, 1]; the
saturated law clamps, the unsaturated law applies V_a raw and relies on
state resets for positivity.

Family/profile selector values ("eq33b", "section7", ...) are stable ids
used in config files and reports; the Python names describe behavior.

The design's closed forms (tracking_bound with its TrackingCase and
TrackingBound, immune_closed_form, stationary_tracking_level) and the
single-sample controller (control_sample and its ControlSample record) are
analysis, not run code: they live in seirvax.analysis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateProfileError
from .model import ModelParams


class VaccinationLaw(enum.Enum):
    NONE = "none"
    SATURATED = "saturated"
    UNSATURATED = "unsaturated"


class ModulationFamily(enum.Enum):
    """Designer choices for the modulation signal g(t).

    ZERO                       g = 0: vaccination level pinned at eps0/nu.
    CONSTANT_NULLING           g = 1/eps: modulated level exactly zero.
    SWITCHED                   one switched design with two branches:
                               the interior branch (eq. 33b) while V_a
                               lands in [0,1], the saturated branch
                               (eq. 33a with the upper indicator) otherwise.
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
    SWITCHED = "eq33b"
    IMMUNE_DECAY_DESIGN = "eq43_theorem6"
    DELAYED_TRACKING_ONSET = "corollary2_ii"
    PROPORTIONAL_TO_RECOVERY = "custom_case_a"
    RECOVERY_MINUS_UNIT = "custom_case_b"


class ReferenceProfile(enum.Enum):
    """Shapes for the reference immune fraction h(t).

    EXP_SETTLING     starts at R(0)/N and relaxes to 1 at rate c, so the
                     target becomes the whole population; c = 0 holds it
                     at R(0)/N.
    POLE_MATCHED     built on the immune compartment's own pole mu+omega
                     with level set by eps0; under a constant population
                     and eps0 = mu+omega it also settles at 1.
    DECAY_DESIGN     companion profile of IMMUNE_DECAY_DESIGN; decays to 0.
    """

    EXP_SETTLING = "section7"
    POLE_MATCHED = "corollary2_i"
    DECAY_DESIGN = "theorem6_ii"


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

    def validated(self, params: ModelParams) -> "ControlConfig":
        """Resolve defaults and enforce the configuration-time guards.

        This is the one place the guards are checked: everything that takes
        a (cfg, params) pair validates first and then reads cfg.eps0.
        """
        eps0 = params.immune_pole if self.eps0 is None else self.eps0
        cfg = replace(self, eps0=eps0)
        for name in ("K_R", "K_Rd", "eps", "eps0", "c", "vartheta"):
            value = getattr(cfg, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
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
        if cfg.law is not VaccinationLaw.NONE:
            if not params.nu > 0.0:
                raise ConfigError("an active vaccination law needs nu > 0 (it scales 1/(nu N))")
            # the demand collapses to eps0*(1 - eps*g)/nu
            if not math.isfinite(eps0 / params.nu):
                raise ConfigError(
                    f"an active vaccination law needs a finite eps0/nu, got eps0 = {eps0!r} "
                    f"and nu = {params.nu!r}, whose ratio overflows"
                )
        if cfg.g_family is ModulationFamily.SWITCHED:
            floor = max(params.nu, params.immune_recovery_rate)
            if not eps0 > floor:
                raise ConfigError(
                    "switched modulation needs eps0 > max(nu, gamma*(1-rho)) "
                    f"= {floor!r}, got eps0 = {eps0!r}"
                )
        # a negative rate turns the profile's decaying exponential into one
        # that grows until it overflows; a zero rate holds it constant
        if cfg.h_family is ReferenceProfile.EXP_SETTLING and cfg.c < 0.0:
            raise ConfigError(f"the section7 profile needs c >= 0, got {cfg.c!r}")
        # the pole-matched profile divides by its pole
        pole = params.immune_pole
        if cfg.h_family is ReferenceProfile.POLE_MATCHED and not pole > 0.0:
            raise ConfigError(f"the corollary2_i profile needs mu + omega > 0, got {pole!r}")
        if cfg.h_family is ReferenceProfile.DECAY_DESIGN:
            # the decay profile alone needs only a nonzero gap
            vartheta = _vartheta(cfg)
            if vartheta == pole:
                raise DegenerateProfileError(
                    f"the decay profile degenerates when vartheta equals mu + omega = {pole!r}"
                )
            if vartheta < 0.0:
                raise ConfigError(f"the theorem6_ii profile needs vartheta >= 0, got {vartheta!r}")
        if cfg.g_family is ModulationFamily.IMMUNE_DECAY_DESIGN:
            _decay_gap(cfg, params)
            if not math.isfinite(_decay_ceiling(cfg, params)):
                raise ConfigError(
                    f"the eq43_theorem6 design needs a finite ceiling (eps0 - nu)/(eps*eps0), "
                    f"got eps = {cfg.eps!r} and eps0 = {eps0!r}, whose ceiling overflows"
                )
        return cfg


def _decay_ceiling(cfg: ControlConfig, params: ModelParams) -> float:
    """(eps0 - nu)/(eps*eps0), the sufficiency ceiling a report quotes, on
    a cfg whose eps0 is resolved; eps*eps0 must not underflow to 0."""
    if cfg.eps * cfg.eps0 == 0.0:
        raise ConfigError(
            f"the eq43_theorem6 design needs eps*eps0 > 0, got eps = {cfg.eps!r} "
            f"and eps0 = {cfg.eps0!r}, whose product underflows to 0"
        )
    return (cfg.eps0 - params.nu) / (cfg.eps * cfg.eps0)


def _vartheta(cfg: ControlConfig) -> float:
    if cfg.vartheta is None:
        raise ConfigError("the decay design needs vartheta set")
    return cfg.vartheta


def _decay_gap(cfg: ControlConfig, params: ModelParams) -> float:
    """vartheta - (mu + omega), the gap the decay design divides by.

    vartheta must be set and above the immune pole mu + omega.
    """
    vartheta = _vartheta(cfg)
    pole = params.immune_pole
    if not vartheta > pole:
        raise ConfigError(
            f"the decay design needs vartheta > mu + omega = {pole!r}, got {vartheta!r}"
        )
    return vartheta - pole


# ---------------------------------------------------------------------------
# Per-family pieces. Each resolves its selector and constants once and
# returns a plain-float function; boundary_fn composes the profile and the
# modulation with the population rate, the gains and the law into the one
# closure that integrate calls at each step boundary and
# seirvax.analysis.control_sample calls for one sample. Each takes a
# validated config, so the guards in validated() hold here.

def _profile_fn(cfg: ControlConfig, params: ModelParams, r0: float):
    """Reference profile: profile(t, N) -> (h, h_dot).

    All profiles anchor at the initial immune count, R*(0) = h(0)*N(0) = r0.
    h_dot is the profile's explicit time-derivative with N held at its
    sampled value; ``boundary_fn`` forms R* = h*N and its product rule.
    """
    fam = cfg.h_family
    eps0 = cfg.eps0
    if fam is ReferenceProfile.EXP_SETTLING:
        c = cfg.c
        neg_c = -c

        def profile(t, N):
            decay = math.exp(neg_c * t)
            h = (decay * r0 + N * (1.0 - decay)) / N
            h_dot = c * decay * (1.0 - r0 / N)
            return h, h_dot

    elif fam is ReferenceProfile.POLE_MATCHED:
        a = params.immune_pole
        neg_a = -a
        a_r0 = a * r0

        def profile(t, N):
            decay = math.exp(neg_a * t)
            h = (decay * r0 + eps0 * N * (1.0 - decay) / a) / N
            h_dot = decay * (eps0 - a_r0 / N)
            return h, h_dot

    else:  # DECAY_DESIGN
        a = params.immune_pole
        vartheta = cfg.vartheta
        neg_a = -a
        neg_vartheta = -vartheta
        gap = vartheta - a

        def profile(t, N):
            slow = math.exp(neg_a * t)
            fast = math.exp(neg_vartheta * t)
            decline = neg_a * slow
            h = (slow * r0 + eps0 * (slow - fast) / gap) / N
            h_dot = (decline * r0 + eps0 * (decline + vartheta * fast) / gap) / N
            return h, h_dot

    return profile


def _no_modulation(t, N, I):
    return 0.0


def _modulation_fn(cfg: ControlConfig, params: ModelParams, r0: float):
    """Closed-loop modulation: modulation(t, N, I) -> g.

    The switched design's two branches are both spelled here. The
    interior branch (eq. 33b), g = (1 - g1r*I/(eps0*N))/eps, implies a
    vaccination level equal to the immune recovery inflow over nu*N; when
    that implied level exceeds 1 the design switches to the saturated
    branch, eq. 33a with the upper indicator,
    g = ((eps0 - nu)*N - g1r*I)/(eps0*eps*N), which is self-consistent
    because it implies a level of 1 + (inflow ratio) > 1. Eq. 33a with the
    lower indicator is (eps0*N - g1r*I)/(eps0*eps*N), eq. 33b rewritten,
    so there is no third branch. r0 (initial immune count) is only
    consulted by DELAYED_TRACKING_ONSET.
    Only an applied law builds a modulation, so validated() has already
    checked nu > 0 for the families that divide by it.
    """
    fam = cfg.g_family
    eps = cfg.eps
    eps0 = cfg.eps0
    nu = params.nu
    g1r = params.immune_recovery_rate

    if fam is ModulationFamily.ZERO:
        modulation = _no_modulation

    elif fam is ModulationFamily.CONSTANT_NULLING:
        nulling = 1.0 / eps

        def modulation(t, N, I):
            return nulling

    elif fam is ModulationFamily.SWITCHED:

        def modulation(t, N, I):
            if g1r * I / (nu * N) > 1.0:
                return ((eps0 - nu) * N - g1r * I) / (eps0 * eps * N)
            return (1.0 - g1r * I / (eps0 * N)) / eps

    elif fam is ModulationFamily.IMMUNE_DECAY_DESIGN:
        neg_vartheta = -cfg.vartheta

        def modulation(t, N, I):
            return (N - math.exp(neg_vartheta * t)) / (eps * N)

    elif fam is ModulationFamily.DELAYED_TRACKING_ONSET:
        a = params.immune_pole
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


def boundary_fn(cfg: ControlConfig, params: ModelParams, r0: float):
    """boundary(t, N, I, negative) -> the ten values a step boundary records.

    The values come in row order, (V_a, V, g, h, h_dot, R_star, R_star_dot,
    K_N, K_I, dN), for a validated config and the run's initial immune
    count r0; ``integrate`` calls the closure at every boundary and
    ``seirvax.analysis.control_sample`` at one sample. It composes the population rate
    dN = (nu - mu)*N - rho*gamma*I, the profile's h and h_dot, the
    reference R_star = h*N with its product rule R_star_dot = h_dot*N +
    h*dN, the modulation (g = 0 under the NONE law, the configured family
    not consulted) and the gains, scheduled from the sample and memoryless:

        K_N = -(K_R + (nu - mu) K_Rd) h - K_Rd h_dot + eps0 (1 - eps g)
        K_I = gamma rho K_Rd h

    Under the NONE law nothing is applied (V_a = V = 0). Otherwise the
    demand is V_a = (K_N*N + K_I*I + K_R*R_star + K_Rd*R_star_dot)/(nu*N).
    The saturated law applies clamp(V_a, 0, 1). The unsaturated law falls
    back to the clamp only when the raw state had gone negative (negative:
    some component was < 0 before any reset at this boundary):

        V = V_a   if V_a >= 0 and not negative (may exceed 1)
        V = 1     if V_a > 1 and negative
        V = 0     if V_a < 0
        V = V_a   if V_a in [0, 1] and negative (reset-then-apply rule)

    A divisor that underflows to 0.0 raises ZeroDivisionError; the boundary
    then gives nan for the nine composed values, a non-finite demand, and
    keeps the finite dN.
    """
    applied = cfg.law is not VaccinationLaw.NONE
    profile = _profile_fn(cfg, params, r0)
    modulation = _modulation_fn(cfg, params, r0) if applied else _no_modulation
    growth = params.nu - params.mu
    deaths = params.rho * params.gamma
    K_R = cfg.K_R
    K_Rd = cfg.K_Rd
    eps = cfg.eps
    eps0 = cfg.eps0
    nu = params.nu
    kn_h = -(K_R + growth * K_Rd)
    ki_h = deaths * K_Rd
    saturate = cfg.law is VaccinationLaw.SATURATED

    def boundary(t, N, I, negative):
        dN = growth * N - deaths * I
        try:
            h, h_dot = profile(t, N)
            R_star, R_star_dot = h * N, h_dot * N + h * dN
            g = modulation(t, N, I)
            K_N = kn_h * h - K_Rd * h_dot + eps0 * (1.0 - eps * g)
            K_I = ki_h * h
            if not applied:
                V_a = V = 0.0
            else:
                V_a = (K_N * N + K_I * I + K_R * R_star + K_Rd * R_star_dot) / (nu * N)
                if V_a < 0.0:
                    V = 0.0
                elif V_a > 1.0 and (saturate or negative):
                    V = 1.0
                else:
                    V = V_a
        except ZeroDivisionError:
            return (math.nan,) * 9 + (dN,)
        return V_a, V, g, h, h_dot, R_star, R_star_dot, K_N, K_I, dN

    return boundary


def _derived_values(cfg: ControlConfig, params: ModelParams, N, V_a, g):
    """(theta0, theta1, identity_residual) from a validated config and the
    samples' population N, demand V_a and modulation g.

    theta0 = V_a < 0 and theta1 = V_a > 1 flag the demand leaving [0, 1].
    The identity residual is |nu*N*V_a - eps0*(1 - eps*g)*N| over
    max(|both sides|, eps0*N), 0 for a zero scale, and zero under the NONE
    law, which applies nothing. The scale is Python's max: a candidate is
    copied over the running value only where it compares greater, so a nan
    candidate is skipped where np.maximum would propagate it. Every step
    writes into preallocated buffers, two float and one bool scratch beside
    the residual, the same code for columns and for floats (0-d buffers).
    Floats give bools and a 0-d array, columns give columns.
    """
    residual = np.zeros(np.shape(V_a))
    if cfg.law is not VaccinationLaw.NONE:
        actual = np.empty_like(residual)
        target = np.empty_like(residual)
        mask = np.empty(residual.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.multiply(params.nu, N, out=actual)
            np.multiply(actual, V_a, out=actual)
            np.multiply(cfg.eps, g, out=target)
            np.subtract(1.0, target, out=target)
            np.multiply(cfg.eps0, target, out=target)
            np.multiply(target, N, out=target)
            np.subtract(actual, target, out=residual)
            np.abs(residual, out=residual)
            # the scale overwrites actual; target's buffer holds each candidate
            scale = np.abs(actual, out=actual)
            np.abs(target, out=target)
            np.greater(target, scale, out=mask)
            np.copyto(scale, target, where=mask)
            np.multiply(cfg.eps0, N, out=target)
            np.greater(target, scale, out=mask)
            np.copyto(scale, target, where=mask)
            np.divide(residual, scale, out=residual)
            np.equal(scale, 0.0, out=mask)
            np.copyto(residual, 0.0, where=mask)
    return V_a < 0.0, V_a > 1.0, residual


def decay_design_g_ceiling(cfg: ControlConfig, params: ModelParams) -> float:
    """Ceiling (eps0 - nu)/(eps*eps0) quoted for the decay design's
    alternative sufficiency argument.

    The decay modulation g(t) = (1 - e^{-vartheta t}/N)/eps sits above
    this ceiling exactly when N > (eps0/nu)*e^{-vartheta t}, a threshold of
    10.6 people at t = 0 on the immune-decay preset, falling with time;
    reports surface the comparison as a diagnostic rather than enforcing it.
    """
    return _decay_ceiling(cfg.validated(params), params)
