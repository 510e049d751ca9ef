"""Feedback-vaccination synthesis: reference profiles, gain schedule,
modulation families, the closed-loop branch automaton, both laws, tracking
bounds, and the closed-form design oracles.

Single samples go through control_sample, the switched design's g on the
branch the sampled state selects included. Frozen decimals were computed
independently (exact rational arithmetic where possible) before being
asserted here.
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
    RunStatus,
    StateVec,
    TrackingCase,
    VaccinationLaw,
    build_preset,
    control_sample,
    decay_design_g_ceiling,
    immune_closed_form,
    integrate,
    stationary_tracking_level,
    tracking_bound,
)
from seirvax.cli import build_run_report, machine_items
from seirvax.errors import ConfigError, DegenerateProfileError

from conftest import random_state, run_columns

R0 = 200.0


def switched_config(**overrides) -> ControlConfig:
    base = dict(
        eps0=0.5,
        g_family=ModulationFamily.SWITCHED,
        h_family=ReferenceProfile.EXP_SETTLING,
        c=0.2,
        law=VaccinationLaw.SATURATED,
    )
    base.update(overrides)
    return ControlConfig(**base)


# section7 at c = 0 pins h = r0/N with h_dot = 0, so a sample's gains are
# those of a chosen h.
LEVEL = ControlConfig(c=0.0)


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

    def test_zero_settling_rate_holds_the_reference(self, params, outbreak_x0):
        # c = 0 pins h at R(0)/N with no explicit drift on every recorded
        # row, whichever law closes the loop
        for law in VaccinationLaw:
            sc = replace(build_preset("fig2-saturated"), x0=outbreak_x0,
                         control=replace(LEVEL, law=law), horizon=100.0, dt=0.5)
            traj = integrate(sc)
            assert traj.status is RunStatus.OK and len(traj.t) == 201, law
            assert np.array_equal(traj.h, outbreak_x0.R / traj.N), law
            assert (run_columns(traj)["h_dot"] == 0.0).all(), law

    def test_negative_time_rejected(self, params, outbreak_x0):
        cfg = ControlConfig()
        with pytest.raises(ValueError):
            control_sample(cfg, params, -0.1, outbreak_x0, R0)

    def test_nan_time_rejected(self, params, outbreak_x0):
        # nan compares false against 0 both ways: the guard must not let it
        # through to a sample of nan profile, gains and demand
        with pytest.raises(ValueError, match="t must be >= 0"):
            control_sample(switched_config(), params, math.nan, outbreak_x0, R0)


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

    def test_interior_branch(self, params):
        # with no infectious inflow the interior branch (eq. 33b) is 1/eps
        cfg = switched_config()
        calm = StateVec(760.0, 40.0, 0.0, 200.0)
        s = control_sample(cfg, params, 0.0, calm, R0)
        assert not (s.theta0 or s.theta1)
        assert s.g == 1.0 / cfg.eps

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


class TestUnderflow:
    def test_underflowed_divisor_gives_the_nan_sample(self, params, outbreak_x0):
        # the saturated branch divides by eps0*eps*N, and 0.5*5e-324 is 0.0:
        # every composed value but dN is nan, as integrate records it
        cfg = switched_config(eps=5e-324)
        s = control_sample(cfg, params, 0.0, outbreak_x0, R0)
        dN = control_sample(switched_config(), params, 0.0, outbreak_x0, R0).dN
        assert s.dN == dN and not (s.theta0 or s.theta1)
        composed = s[:9] + (s.identity_residual,)
        assert all(math.isnan(v) for v in composed), s


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
            ModulationFamily.SWITCHED,
            ModulationFamily.IMMUNE_DECAY_DESIGN,
            ModulationFamily.DELAYED_TRACKING_ONSET,
            ModulationFamily.PROPORTIONAL_TO_RECOVERY,
            ModulationFamily.RECOVERY_MINUS_UNIT,
        )
        h_families = (
            ReferenceProfile.EXP_SETTLING,
            ReferenceProfile.POLE_MATCHED,
            ReferenceProfile.DECAY_DESIGN,
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

    def test_saturated_branch_case_holds_on_a_switched_run(self, params):
        # case i's context: fig2's switched design with slower recovery and
        # faster waning, where the bound is feasible; the saturated branch
        # (upper indicator up, implied level above 1) is active on every row
        p = replace(params, gamma=0.05, omega=0.2)
        scenario = replace(build_preset("fig2-saturated"), params=p, horizon=3000.0, dt=0.1)
        traj = integrate(scenario)
        assert traj.status is RunStatus.OK and len(traj.t) == 30001
        assert traj.theta1.all()
        assert (p.immune_recovery_rate * traj.I / (p.nu * traj.N) > 1.0).all()
        N2 = float(traj.N.max())
        b = tracking_bound(TrackingCase.CASE_I, p, scenario.control, N2=N2,
                           g_min=float(traj.g.min()))
        assert b.feasible
        # the bound's ratio (0.189) against the tail peak of R/N2 (0.0313)
        tail = traj.R[len(traj.t) - len(traj.t) // 5:]
        assert b.ratio >= tail.max() / N2

    def test_nulled_modulation_cases_hold_on_a_run(self, params):
        # cases ii and iii's context: g = 1/eps on fig2's switched preset
        # with slower recovery and faster waning, where both bounds are
        # feasible; case iii also needs the upper indicator never up
        p = replace(params, gamma=0.05, omega=0.2)
        base = build_preset("fig2-saturated")
        control = replace(base.control, g_family=ModulationFamily.CONSTANT_NULLING)
        scenario = replace(base, params=p, control=control, horizon=3000.0, dt=0.1)
        traj = integrate(scenario)
        assert traj.status is RunStatus.OK
        assert (traj.g == 1.0 / control.eps).all()
        assert not traj.theta1.any()
        N2 = float(traj.N.max())
        tail = traj.R[len(traj.t) - len(traj.t) // 5:]
        # the bounds' ratios (case ii 0.253, case iii 0.221) against the
        # tail peak of R/N2 (0.020)
        for case in (TrackingCase.CASE_II, TrackingCase.CASE_III):
            b = tracking_bound(case, p, control, N2=N2)
            assert b.feasible
            assert b.ratio >= tail.max() / N2

    @staticmethod
    def birth_matched_run(params, family):
        """fig2's preset with slower recovery and faster waning, eps0 = nu
        and the given modulation, for 3000 days at dt = 0.1: the context of
        cases iv to viii, where their bounds are feasible. Returns the rates,
        the control, the run, N2 and the tail peak of R/N2."""
        p = replace(params, gamma=0.05, omega=0.2)
        base = build_preset("fig2-saturated")
        control = replace(base.control, g_family=family, eps0=p.nu)
        scenario = replace(base, params=p, control=control, horizon=3000.0, dt=0.1)
        traj = integrate(scenario)
        assert traj.status is RunStatus.OK and len(traj.t) == 30001
        N2 = float(traj.N.max())
        tail = traj.R[len(traj.t) - len(traj.t) // 5:]
        return p, control, traj, N2, tail.max() / N2

    def assert_bound_holds(self, case, p, control, N2, peak, **extremes):
        b = tracking_bound(case, p, control, N2=N2, **extremes)
        assert b.feasible and not b.immune_extinction
        assert b.ratio >= peak
        return b

    def test_nulled_demand_cases_hold_on_a_birth_matched_run(self, params):
        # case iv: nu = eps0 and g = 1/eps, so the demand eps0*(1 - eps*g)/nu
        # is 0 and both indicators are down; the lower one, V_a < 0, reads the
        # sign of the composed demand's rounding residue (|V_a| < 1e-13), so
        # the pattern is asserted on the demand itself
        p, control, traj, N2, peak = self.birth_matched_run(
            params, ModulationFamily.CONSTANT_NULLING)
        assert (traj.g == 1.0 / control.eps).all()
        assert not traj.theta1.any()
        assert np.abs(traj.V_a).max() < 1e-13
        # the bounds' ratios (case iv 0.221, case viii with g_max = 1/eps
        # 0.286) against the tail peak of R/N2 (0.020)
        self.assert_bound_holds(TrackingCase.CASE_IV, p, control, N2, peak)
        self.assert_bound_holds(TrackingCase.CASE_VIII, p, control, N2, peak,
                                g_max=float(traj.g.max()))

    def test_pinned_lower_indicator_case_holds_on_a_birth_matched_run(self, params):
        # case v: g = gamma*(1-rho)*I/(eps*nu*N) with nu = eps0 puts the
        # demand at 1 - gamma*(1-rho)*I/(nu*N), below 0 on every row here
        p, control, traj, N2, peak = self.birth_matched_run(
            params, ModulationFamily.PROPORTIONAL_TO_RECOVERY)
        assert traj.theta0.all()
        assert not traj.theta1.any()
        # the bounds' ratios (case v 0.221, case viii 0.414) against the tail
        # peak of R/N2 (0.020)
        self.assert_bound_holds(TrackingCase.CASE_V, p, control, N2, peak)
        self.assert_bound_holds(TrackingCase.CASE_VIII, p, control, N2, peak,
                                g_max=float(traj.g.max()))

    def test_unmodulated_cases_hold_on_a_birth_matched_run(self, params):
        # case vi: nu = eps0 and g = 0, so the demand is eps0/nu = 1 and the
        # lower indicator never fires. Case vii asks for the same context
        # with the lower indicator pinned up, which g = 0 rules out: its
        # demand eps0/nu is positive for every admissible eps0 and nu, so
        # no run can build case vii's context and it has no run check
        p, control, traj, N2, peak = self.birth_matched_run(params, ModulationFamily.ZERO)
        assert (traj.g == 0.0).all()
        assert not traj.theta0.any()
        # the bounds' ratios (cases vi and viii with g_max = 0, 0.253)
        # against the tail peak of R/N2 (0.031)
        vi = self.assert_bound_holds(TrackingCase.CASE_VI, p, control, N2, peak)
        viii = self.assert_bound_holds(TrackingCase.CASE_VIII, p, control, N2, peak,
                                       g_max=float(traj.g.max()))
        assert viii.ratio == vi.ratio

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

    def test_pole_free_params_are_a_config_error(self, params):
        # every bound divides by mu + omega; eps0 is given, so resolving the
        # controller itself does not divide by it
        pole_free = replace(params, mu=0.0, omega=0.0)
        cfg = ControlConfig(eps0=0.5)
        with pytest.raises(ConfigError, match="mu \\+ omega"):
            tracking_bound(TrackingCase.CASE_II, pole_free, cfg, N2=1000.0)


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

    @pytest.mark.parametrize("N, side", [(8.0, "exceeds"), (1.0, "within")])
    def test_decay_ceiling_threshold(self, N, side):
        # g exceeds the ceiling exactly when N > (eps0/nu)*e^{-vartheta t}:
        # 10.6 people at t = 0 on immune-decay, 7.1 by t = 5
        sc = build_preset("immune-decay")
        sc = replace(sc, x0=StateVec(*(v * N / sc.x0.N for v in sc.x0)), horizon=5.0)
        g_max, ceiling = build_run_report(integrate(sc)).decay_g
        assert ("exceeds" if g_max > ceiling else "within") == side


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

    def test_decay_design_needs_a_nonzero_eps_eps0(self, params):
        # the ceiling a report quotes divides by eps*eps0; 0.5*5e-324
        # underflows to 0.0 although each factor is > 0
        decay = ControlConfig(g_family=ModulationFamily.IMMUNE_DECAY_DESIGN, vartheta=0.08)
        for eps, eps0 in ((5e-324, 0.5), (1e-200, 1e-200)):
            with pytest.raises(ConfigError, match=r"eps\*eps0 > 0"):
                replace(decay, eps=eps, eps0=eps0).validated(params)
        # eps*eps0 = 5e-324 is nonzero, but (eps0 - nu)/5e-324 overflows
        with pytest.raises(ConfigError, match="finite ceiling"):
            replace(decay, eps=5e-324, eps0=1.0).validated(params)
        replace(decay, eps=1e-300, eps0=1.0).validated(params)
        # the ceiling itself applies the same guard to any family
        with pytest.raises(ConfigError, match=r"eps\*eps0 > 0"):
            decay_design_g_ceiling(ControlConfig(eps=5e-324, eps0=0.5), params)

    def test_decay_design_needs_a_finite_ceiling(self):
        # eps*eps0 is nonzero, but the ceiling (eps0 - nu)/(eps*eps0) is
        # inf; the run used to end blowup quoting decay_g_max = nan against
        # decay_g_ceiling = inf
        base = build_preset("immune-decay")
        sc = replace(base, x0=StateVec(1e-3, 0.0, 0.0, 0.0),
                     control=replace(base.control, eps=1e-322), horizon=2.0, dt=0.1)
        with pytest.raises(ConfigError, match=r"finite ceiling .* eps = 1e-322"):
            integrate(sc)

    def test_non_finite_decay_modulation_is_blowup(self):
        # the ceiling is finite, but g = (N - 1)/(eps*N) overflows to -inf
        # at t = 0; the demand is then non-finite, so the run ends blowup at
        # that boundary, and decay_g_max joins identity_max_residual as the
        # only non-finite [machine] fields
        base = build_preset("immune-decay")
        sc = replace(base, x0=StateVec(1e-6, 0.0, 0.0, 0.0),
                     control=replace(base.control, eps=1e-305), horizon=2.0, dt=0.1)
        traj = integrate(sc)
        assert (traj.status, len(traj), traj.g[0]) == (RunStatus.BLOWUP, 1, -np.inf)
        items = dict(machine_items(build_run_report(traj)))
        assert items["decay_g_max"] == "-inf"
        assert {k for k, v in items.items() if v in ("nan", "inf", "-inf")} == {
            "identity_max_residual", "decay_g_max"
        }

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
        ControlConfig(c=-1.0, h_family=ReferenceProfile.POLE_MATCHED).validated(params)
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
