"""Feedback-vaccination synthesis: reference profiles, gain schedule,
modulation families, the closed-loop branch automaton, both laws, tracking
bounds, and the closed-form design oracles.

Single samples go through control_sample (and g_signal for one branch of
the switched design). Frozen decimals were computed independently (exact
rational arithmetic where possible) before being asserted here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from seirvax import (
    ControlConfig,
    ModelParams,
    ModulationFamily,
    ReferenceProfile,
    StateVec,
    TrackingCase,
    VaccinationLaw,
    control_sample,
    decay_design_g_ceiling,
    g_signal,
    immune_closed_form,
    stationary_tracking_level,
    tracking_bound,
)
from seirvax.errors import (
    ConfigError,
    DegenerateProfileError,
    IndicatorMismatchError,
)

from conftest import random_state

R0 = 200.0


def switched_config(**overrides) -> ControlConfig:
    base = dict(
        eps0=0.5,
        g_family=ModulationFamily.INTERIOR_BRANCH,
        h_family=ReferenceProfile.EXP_SETTLING,
        c=0.2,
        law=VaccinationLaw.SATURATED,
    )
    base.update(overrides)
    return ControlConfig(**base)


# Pins h = r0/N with h_dot = 0, so a sample's gains are those of a chosen h.
LEVEL = ControlConfig(h_family=ReferenceProfile.CONSTANT_LEVEL)


class TestReferenceProfiles:
    def test_exponential_settling_at_start(self, params, outbreak_x0):
        cfg = ControlConfig(h_family=ReferenceProfile.EXP_SETTLING, c=0.2)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.h == pytest.approx(0.2, rel=1e-14)
        assert s.h_dot == pytest.approx(0.16, rel=1e-14)
        assert s.R_star == pytest.approx(200.0, rel=1e-14)
        assert s.R_star_dot == pytest.approx(158.27629233511586, rel=1e-12)

    def test_exponential_settling_algebraic_form(self, params, outbreak_x0):
        # R* must equal e^{-ct} R0 + (1 - e^{-ct}) N at every sample
        cfg = ControlConfig(h_family=ReferenceProfile.EXP_SETTLING, c=0.2)
        n = outbreak_x0.N
        for t in (0.0, 1.3, 10.0, 57.0):
            s = control_sample(cfg, params, t, outbreak_x0, R0)
            decay = np.exp(-0.2 * t)
            assert s.R_star == pytest.approx(
                decay * R0 + (1.0 - decay) * n, rel=1e-14
            )

    def test_pole_matched_profile(self, params, outbreak_x0):
        cfg = ControlConfig(h_family=ReferenceProfile.POLE_MATCHED)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.R_star == pytest.approx(200.0, rel=1e-14)
        assert s.h_dot == pytest.approx(0.05647058823529412, rel=1e-12)

    def test_decay_design_profile(self, params, outbreak_x0):
        cfg = ControlConfig(h_family=ReferenceProfile.DECAY_DESIGN, vartheta=0.08)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.R_star == pytest.approx(200.0, rel=1e-14)
        assert s.h_dot == pytest.approx(-0.014047058823529413, rel=1e-12)

    def test_decay_design_degenerate_pole(self, params, outbreak_x0):
        cfg = ControlConfig(
            h_family=ReferenceProfile.DECAY_DESIGN,
            vartheta=params.mu + params.omega,
        )
        with pytest.raises(DegenerateProfileError):
            control_sample(cfg, params, 1.0, outbreak_x0, R0)

    def test_constant_level_reanchors(self, params, outbreak_x0):
        s = control_sample(LEVEL, params, 37.5, outbreak_x0, R0)
        assert s.R_star == 200.0  # exact, by construction
        assert s.h_dot == 0.0
        assert s.R_star_dot == pytest.approx(-1.7237076648841356, rel=1e-12)

    def test_negative_time_rejected(self, params, outbreak_x0):
        cfg = ControlConfig()
        with pytest.raises(ValueError):
            control_sample(cfg, params, -0.1, outbreak_x0, R0)


class TestGainSchedule:
    def test_frozen_gains(self, params, outbreak_x0):
        # K_R = K_Rd = 1, eps0 -> mu + omega; h = 200/1000, h_dot = 0, g = 0
        s = control_sample(LEVEL, params, 0.0, outbreak_x0, R0)
        assert (s.h, s.h_dot, s.g) == (0.2, 0.0, 0.0)
        assert s.K_N == pytest.approx(-0.12996078431372549, rel=1e-12)
        assert s.K_I == pytest.approx(0.00909090909090909, rel=1e-12)
        # g = 1/eps nulls the eps0 term, leaving the reference feedback alone
        nulling = replace(LEVEL, g_family=ModulationFamily.CONSTANT_NULLING, eps=2.0)
        s = control_sample(nulling, params, 0.0, outbreak_x0, R0)
        assert s.g == 0.5
        assert s.K_N == -(1.0 + (params.nu - params.mu)) * 0.2

    def test_infectious_gain_vanishes_without_channel(self, params, outbreak_x0):
        s = control_sample(LEVEL, replace(params, rho=0.0), 0.0, outbreak_x0, R0)
        assert s.K_I == 0.0
        s = control_sample(LEVEL, params, 0.0, outbreak_x0, 0.0)  # h = 0
        assert s.K_I == 0.0

    def test_gains_never_form_the_demand(self, params, outbreak_x0):
        # nu = 0 is a config the NONE law accepts; V_a's 1/(nu*N) must not
        # be evaluated (it would raise ZeroDivisionError), while the gains
        # are still scheduled with g = 0
        p = replace(params, nu=0.0)
        cfg = ControlConfig(law=VaccinationLaw.NONE)
        v = cfg.validated(p)
        s = control_sample(cfg, p, 12.5, outbreak_x0, R0)
        assert (s.V_a, s.V, s.g) == (0.0, 0.0, 0.0)
        assert s.K_N == (-(v.K_R + (p.nu - p.mu) * v.K_Rd) * s.h - v.K_Rd * s.h_dot
                         + v.eps0 * (1.0 - v.eps * 0.0))
        assert s.K_I == p.gamma * p.rho * v.K_Rd * s.h
        assert (s.theta0, s.theta1, s.identity_residual) == (False, False, 0.0)

    def test_none_law_kernel_applies_nothing(self, params, outbreak_x0):
        # nu = 0 and a family whose modulation divides by nu: under the NONE
        # law neither the demand nor the configured family is evaluated
        p = replace(params, nu=0.0)
        cfg = ControlConfig(
            law=VaccinationLaw.NONE, g_family=ModulationFamily.PROPORTIONAL_TO_RECOVERY
        )
        x = outbreak_x0
        out = control_sample(cfg, p, 12.5, x, R0, True)
        s = control_sample(replace(cfg, g_family=ModulationFamily.ZERO), p, 12.5, x, R0)
        dN = (p.nu - p.mu) * x.N - p.rho * p.gamma * x.I
        assert out == (0.0, 0.0, 0.0, s.h, s.h_dot, s.R_star, s.R_star_dot, s.K_N, s.K_I, dN,
                       False, False, 0.0)


class TestModulationFamilies:
    def test_zero_family(self, params, outbreak_x0):
        cfg = ControlConfig(g_family=ModulationFamily.ZERO)
        assert control_sample(cfg, params, 0.0, outbreak_x0, R0).g == 0.0

    def test_constant_nulling(self, params, outbreak_x0):
        cfg = ControlConfig(g_family=ModulationFamily.CONSTANT_NULLING, eps=2.0)
        assert control_sample(cfg, params, 0.0, outbreak_x0, R0).g == 0.5

    def test_interior_branch(self, params, outbreak_x0):
        cfg = switched_config()
        g = g_signal(cfg, params, outbreak_x0, False, False)
        assert g == pytest.approx(0.7954545454545454, rel=1e-12)
        calm = StateVec(760.0, 40.0, 0.0, 200.0)
        assert g_signal(cfg, params, calm, False, False) == pytest.approx(
            1.0 / cfg.eps, rel=1e-14
        )

    def test_saturated_branch(self, params, outbreak_x0):
        cfg = switched_config(g_family=ModulationFamily.SATURATED_BRANCH)
        upper = g_signal(cfg, params, outbreak_x0, False, True)
        assert upper == pytest.approx(0.7821212121212121, rel=1e-12)
        lower = g_signal(cfg, params, outbreak_x0, True, False)
        assert lower == pytest.approx(0.7954545454545454, rel=1e-12)

    def test_indicator_pattern_enforced(self, params, outbreak_x0):
        saturated = switched_config(g_family=ModulationFamily.SATURATED_BRANCH)
        for pattern in ((False, False), (True, True)):
            with pytest.raises(IndicatorMismatchError):
                g_signal(saturated, params, outbreak_x0, *pattern)
        interior = switched_config()
        for pattern in ((False, True), (True, False), (True, True)):
            with pytest.raises(IndicatorMismatchError):
                g_signal(interior, params, outbreak_x0, *pattern)
        # the other families have no branches to pick
        with pytest.raises(ConfigError, match="switched branches only"):
            g_signal(ControlConfig(), params, outbreak_x0, False, False)

    def test_immune_decay_design(self, params, outbreak_x0):
        cfg = ControlConfig(
            g_family=ModulationFamily.IMMUNE_DECAY_DESIGN, vartheta=0.08
        )
        g = control_sample(cfg, params, 0.0, outbreak_x0, R0).g
        assert g == pytest.approx(0.999, rel=1e-14)

    def test_delayed_onset(self, params, outbreak_x0):
        cfg = ControlConfig(g_family=ModulationFamily.DELAYED_TRACKING_ONSET)
        assert control_sample(cfg, params, 0.0, outbreak_x0, 200.0).g == 0.0
        # fully immune start with the pole-matched level: nothing to add
        full = StateVec(0.0, 0.0, 0.0, 1000.0)
        for t in (0.5, 5.0, 50.0):
            g = control_sample(cfg, params, t, full, 1000.0).g
            assert g == pytest.approx(0.0, abs=1e-12)

    def test_recovery_proportional_families(self, params, outbreak_x0):
        prop = ControlConfig(g_family=ModulationFamily.PROPORTIONAL_TO_RECOVERY)
        g = control_sample(prop, params, 0.0, outbreak_x0, R0).g
        assert g == pytest.approx(15.340909090909092, rel=1e-12)

        shifted = ControlConfig(g_family=ModulationFamily.RECOVERY_MINUS_UNIT)
        g = control_sample(shifted, params, 0.0, outbreak_x0, R0).g
        assert g == pytest.approx(14.340909090909092, rel=1e-12)

        sterile = replace(params, nu=0.0)
        for cfg in (prop, shifted):
            with pytest.raises(ConfigError):
                control_sample(cfg, params=sterile, t=0.0, x=outbreak_x0, r0=R0)


class TestClosedLoopAutomaton:
    def test_saturated_branch_engages_on_heavy_inflow(self, params, outbreak_x0):
        cfg = switched_config().validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.V_a == pytest.approx(16.340909090909093, rel=1e-12)
        assert s.g == pytest.approx(0.7821212121212121, rel=1e-12)
        assert s.V == 1.0
        assert s.theta1 and not s.theta0
        # the chosen branch is self-consistent: V_a = 1 + implied level
        assert s.V_a == pytest.approx(1.0 + 15.340909090909092, rel=1e-12)

    def test_interior_branch_for_light_inflow(self, params):
        cfg = switched_config().validated(params)
        x = StateVec(700.0, 50.0, 10.0, 240.0)
        s = control_sample(cfg, params, 0.0, x, R0)
        assert s.V_a == pytest.approx(0.6136363636363636, rel=1e-12)
        assert s.g == pytest.approx(0.9918181818181818, rel=1e-12)
        assert not s.theta0 and not s.theta1
        assert s.V == s.V_a

    def test_frozen_identity_values(self, params, outbreak_x0):
        cfg = switched_config().validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        actual = params.nu * outbreak_x0.N * s.V_a
        target = cfg.eps0 * (1.0 - cfg.eps * s.g) * outbreak_x0.N
        assert actual == pytest.approx(108.93939393939394, rel=1e-12)
        assert target == pytest.approx(108.93939393939394, rel=1e-12)
        assert s.identity_residual < 1e-12

    def test_identity_across_families_and_profiles(self, params, rng):
        # nu N V_a == eps0 (1 - eps g) N must hold for every family/profile
        # combination at arbitrary states and times: the reference terms
        # cancel algebraically.
        g_families = (
            ModulationFamily.ZERO,
            ModulationFamily.CONSTANT_NULLING,
            ModulationFamily.INTERIOR_BRANCH,
            ModulationFamily.IMMUNE_DECAY_DESIGN,
            ModulationFamily.DELAYED_TRACKING_ONSET,
            ModulationFamily.PROPORTIONAL_TO_RECOVERY,
            ModulationFamily.RECOVERY_MINUS_UNIT,
        )
        h_families = (
            ReferenceProfile.EXP_SETTLING,
            ReferenceProfile.POLE_MATCHED,
            ReferenceProfile.DECAY_DESIGN,
            ReferenceProfile.CONSTANT_LEVEL,
        )
        for g_family in g_families:
            for h_family in h_families:
                cfg = ControlConfig(
                    eps0=0.5, vartheta=0.08, g_family=g_family,
                    h_family=h_family,
                ).validated(params)
                for _ in range(25):
                    x = random_state(rng)
                    t = float(rng.uniform(0.0, 100.0))
                    s = control_sample(cfg, params, t, x, r0=x.R + 1.0)
                    assert s.identity_residual < 1e-10, (g_family, h_family, x, t)


class TestVaccinationLaws:
    def test_saturated_clamps_negative_demand(self, params, outbreak_x0):
        cfg = ControlConfig(
            eps0=0.5, g_family=ModulationFamily.RECOVERY_MINUS_UNIT
        ).validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.V_a == pytest.approx(-1000.5681818181819, rel=1e-12)
        assert s.theta0 and not s.theta1
        assert s.V == 0.0

    def test_theta_flags_follow_raw_level(self, params, outbreak_x0):
        cfg = ControlConfig(eps0=2.5 * params.nu).validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.V_a == pytest.approx(2.5, rel=1e-12)
        assert s.theta1 and not s.theta0
        assert s.V == 1.0

    def test_unsaturated_exceeds_one_when_states_clean(self, params, outbreak_x0):
        cfg = ControlConfig(
            eps0=2.5 * params.nu, law=VaccinationLaw.UNSATURATED
        ).validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        assert s.V == pytest.approx(2.5, rel=1e-12)
        assert s.V == s.V_a

    def test_unsaturated_falls_back_after_reset(self, params, outbreak_x0):
        cfg = ControlConfig(
            eps0=2.5 * params.nu, law=VaccinationLaw.UNSATURATED
        ).validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0, negative=True)
        assert s.V == 1.0  # demand above 1 with a reset just applied

    def test_unsaturated_keeps_interior_demand_after_reset(
        self, params, outbreak_x0
    ):
        cfg = ControlConfig(
            eps0=0.5 * params.nu, law=VaccinationLaw.UNSATURATED
        ).validated(params)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0, negative=True)
        assert s.V_a == pytest.approx(0.5, rel=1e-12)
        assert s.V == s.V_a

    def test_unsaturated_never_goes_negative(self, params, outbreak_x0):
        cfg = ControlConfig(
            eps0=0.5, g_family=ModulationFamily.RECOVERY_MINUS_UNIT,
            law=VaccinationLaw.UNSATURATED,
        ).validated(params)
        for negative in (False, True):
            s = control_sample(cfg, params, 0.0, outbreak_x0, R0, negative)
            assert s.V_a < 0.0 and s.V == 0.0


class TestTrackingBounds:
    def test_recovery_dominated_cases(self, params):
        cfg = switched_config().validated(params)
        b = tracking_bound(TrackingCase.CASE_III, params, cfg, N2=1000.0)
        assert b.ratio == pytest.approx(5.795454545454546, rel=1e-12)
        assert b.R_bar == pytest.approx(5795.454545454545, rel=1e-12)
        assert not b.feasible
        for case in (TrackingCase.CASE_IV, TrackingCase.CASE_VII):
            same = tracking_bound(case, params, cfg, N2=1000.0)
            assert same.ratio == b.ratio

    def test_birth_augmented_cases(self, params):
        cfg = switched_config().validated(params)
        b = tracking_bound(TrackingCase.CASE_II, params, cfg, N2=1000.0)
        assert b.ratio == pytest.approx(5.88989898989899, rel=1e-12)
        same = tracking_bound(TrackingCase.CASE_VI, params, cfg, N2=1000.0)
        assert same.ratio == b.ratio

    def test_saturated_branch_case_uses_modulation_floor(self, params):
        cfg = switched_config().validated(params)
        b = tracking_bound(TrackingCase.CASE_I, params, cfg, N2=1000.0, g_min=1.0)
        assert b.ratio == 0.0 and b.R_bar == 0.0 and b.feasible
        with pytest.raises(ConfigError):
            tracking_bound(TrackingCase.CASE_I, params, cfg, N2=1000.0)

    def test_full_mortality_extinguishes_immune_compartment(self, params):
        lethal = replace(params, rho=1.0)
        cfg = ControlConfig(eps0=0.5).validated(lethal)
        b = tracking_bound(TrackingCase.CASE_V, lethal, cfg, N2=1000.0)
        assert b.immune_extinction and b.R_bar == 0.0 and b.feasible
        partial = tracking_bound(TrackingCase.CASE_V, params, cfg, N2=1000.0)
        assert not partial.immune_extinction
        assert partial.ratio == pytest.approx(5.795454545454546, rel=1e-12)

    def test_modulated_ceiling_case(self, params):
        cfg = switched_config().validated(params)
        base = tracking_bound(TrackingCase.CASE_VIII, params, cfg,
                              N2=1000.0, g_max=0.0)
        two = tracking_bound(TrackingCase.CASE_II, params, cfg, N2=1000.0)
        assert base.ratio == pytest.approx(two.ratio, rel=1e-14)
        lifted = tracking_bound(TrackingCase.CASE_VIII, params, cfg,
                                N2=1000.0, g_max=2.0)
        assert lifted.ratio > base.ratio
        with pytest.raises(ConfigError):
            tracking_bound(TrackingCase.CASE_VIII, params, cfg, N2=1000.0)

    def test_population_bound_must_be_positive(self, params):
        cfg = ControlConfig().validated(params)
        with pytest.raises(ConfigError):
            tracking_bound(TrackingCase.CASE_II, params, cfg, N2=0.0)


class TestClosedFormOracles:
    def test_immune_decay_closed_form(self, params):
        cfg = ControlConfig(
            g_family=ModulationFamily.IMMUNE_DECAY_DESIGN, vartheta=0.08
        ).validated(params)
        assert immune_closed_form(cfg, params, 0.0, R0) == 200.0
        assert immune_closed_form(cfg, params, 50.0, R0) == pytest.approx(
            5.946980726542462, rel=1e-12
        )
        assert immune_closed_form(cfg, params, 200.0, R0) == pytest.approx(
            0.0001525476951250118, rel=1e-12
        )

    def test_closed_form_vectorized(self, params):
        cfg = ControlConfig(vartheta=0.08)
        t = np.array([0.0, 50.0, 200.0])
        out = immune_closed_form(cfg, params, t, R0)
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        for ti, oi in zip(t, out):
            assert oi == immune_closed_form(cfg, params, float(ti), R0)

    def test_closed_form_guards(self, params):
        with pytest.raises(ConfigError):
            immune_closed_form(ControlConfig(), params, 1.0, R0)
        with pytest.raises(ConfigError):
            immune_closed_form(ControlConfig(vartheta=0.05), params, 1.0, R0)

    def test_stationary_level_matches_population(self, params):
        a = params.mu + params.omega
        cfg = ControlConfig(vartheta=2.0 * a)  # vartheta = eps0 + pole
        level = stationary_tracking_level(cfg, params, N=737.0)
        assert level == pytest.approx(737.0, rel=1e-14)
        with pytest.raises(ConfigError):
            stationary_tracking_level(ControlConfig(), params, N=737.0)
        with pytest.raises(ConfigError):
            stationary_tracking_level(ControlConfig(vartheta=a), params, N=737.0)

    def test_decay_ceiling(self, params):
        cfg = ControlConfig(
            g_family=ModulationFamily.IMMUNE_DECAY_DESIGN, vartheta=0.08
        ).validated(params)
        ceiling = decay_design_g_ceiling(cfg, params)
        assert ceiling == pytest.approx(0.9055555555555556, rel=1e-12)
        # the design's own modulation exceeds the ceiling late in the run
        x = StateVec(800.0, 0.0, 0.0, 200.0)
        g = control_sample(cfg, params, 200.0, x, R0).g
        assert g > ceiling


class TestConfigValidation:
    def test_rate_feedback_gain_required(self, params):
        with pytest.raises(ConfigError):
            ControlConfig(K_Rd=0.0).validated(params)

    def test_eps_guards(self, params):
        with pytest.raises(ConfigError):
            ControlConfig(eps0=0.0).validated(params)
        with pytest.raises(ConfigError):
            ControlConfig(eps0=-0.1).validated(params)
        with pytest.raises(ConfigError):
            ControlConfig(eps=-1.0).validated(params)
        with pytest.raises(ConfigError):
            ControlConfig(
                eps=0.0, g_family=ModulationFamily.CONSTANT_NULLING
            ).validated(params)
        # eps = 0 with the modulation off is fine
        ControlConfig(eps=0.0).validated(params)

    @pytest.mark.parametrize("name", ["K_R", "K_Rd", "eps", "eps0", "c", "vartheta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, params, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ControlConfig(**{name: value}).validated(params)

    def test_active_law_needs_births(self, params):
        sterile = replace(params, nu=0.0)
        with pytest.raises(ConfigError):
            ControlConfig().validated(sterile)
        ControlConfig(law=VaccinationLaw.NONE).validated(sterile)

    def test_switched_floor(self, params):
        # floor = max(nu, gamma*(1-rho)) = 0.40909...; the guard is strict
        with pytest.raises(ConfigError):
            switched_config(eps0=0.4).validated(params)
        with pytest.raises(ConfigError):
            switched_config(eps0=params.immune_recovery_rate).validated(params)
        switched_config(eps0=0.41).validated(params)

    def test_decay_design_needs_vartheta(self, params):
        with pytest.raises(ConfigError):
            ControlConfig(
                g_family=ModulationFamily.IMMUNE_DECAY_DESIGN
            ).validated(params)
        with pytest.raises(ConfigError):
            ControlConfig(
                h_family=ReferenceProfile.DECAY_DESIGN
            ).validated(params)
        with pytest.raises(ConfigError):
            ControlConfig(
                g_family=ModulationFamily.IMMUNE_DECAY_DESIGN, vartheta=0.07
            ).validated(params)

    def test_reference_rates_cannot_grow(self, params):
        # exp(-c t) and exp(-vartheta t) must not grow; a zero rate holds
        # them at 1, and a profile that does not read the rate ignores it
        with pytest.raises(ConfigError, match="c >= 0"):
            ControlConfig(c=-1e-9).validated(params)
        with pytest.raises(ConfigError, match="vartheta >= 0"):
            ControlConfig(h_family=ReferenceProfile.DECAY_DESIGN,
                          vartheta=-1e-9).validated(params)
        ControlConfig(c=0.0).validated(params)
        ControlConfig(h_family=ReferenceProfile.DECAY_DESIGN, vartheta=0.0).validated(params)
        ControlConfig(c=-1.0, h_family=ReferenceProfile.CONSTANT_LEVEL).validated(params)
        ControlConfig(vartheta=-1.0).validated(params)

    def test_pole_matched_profile_needs_a_pole(self, params):
        # corollary2_i divides by mu + omega; eps0 given explicitly keeps
        # the eps0 > 0 guard from catching a zero pole first
        poleless = replace(params, mu=0.0, omega=0.0)
        cfg = ControlConfig(h_family=ReferenceProfile.POLE_MATCHED, eps0=0.5)
        with pytest.raises(ConfigError, match="mu \\+ omega > 0"):
            cfg.validated(poleless)
        cfg.validated(replace(poleless, omega=1e-9))
        ControlConfig(eps0=0.5).validated(poleless)

    def test_helpers_apply_the_same_guards(self, params, outbreak_x0):
        # every helper validates its config first, so each rejects what
        # validated() rejects (here a negative eps0)
        bad = ControlConfig(eps0=-0.1)
        calls = (
            lambda: control_sample(bad, params, 0.0, outbreak_x0, R0),
            lambda: g_signal(bad, params, outbreak_x0, False, False),
            lambda: control_sample(bad, params, 12.5, outbreak_x0, R0, True),
            lambda: tracking_bound(TrackingCase.CASE_II, params, bad, N2=1000.0),
            lambda: immune_closed_form(replace(bad, vartheta=0.08), params, 1.0, R0),
            lambda: stationary_tracking_level(replace(bad, vartheta=0.08), params, 1.0),
            lambda: decay_design_g_ceiling(bad, params),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="eps0 must be > 0"):
                call()

    def test_default_eps0_resolves_to_immune_pole(self, params):
        cfg = ControlConfig().validated(params)
        assert cfg.eps0 == pytest.approx(0.07058823529411765, rel=1e-14)
