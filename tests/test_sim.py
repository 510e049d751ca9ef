"""Integration engine: grid layout, conservation, truncation statuses,
steady-state detection, reset handling, and step-size convergence."""

from dataclasses import replace

import numpy as np
import pytest

from seirvax import (
    ControlConfig,
    ModelParams,
    RunStatus,
    ScenarioConfig,
    StateVec,
    SteadyState,
    Trajectory,
    VaccinationLaw,
    build_preset,
    convergence_study,
    detect_steady_state,
    integrate,
)
from seirvax import sim
from seirvax.errors import ConfigError

from conftest import nan_profile_from

# Between the grid points 703.7 and 703.8 at dt = 0.1: the row at 703.8 is
# the first with a nan demand.
NAN_ONSET = 703.75


def _plain_scenario(params, x0, **overrides) -> ScenarioConfig:
    base = dict(
        params=params, x0=x0,
        control=ControlConfig(law=VaccinationLaw.NONE),
        horizon=1.0, dt=0.1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGridAndRecording:
    def test_grid_layout(self, params, outbreak_x0):
        traj = integrate(_plain_scenario(params, outbreak_x0))
        assert traj.status is RunStatus.OK
        assert traj.halt_time is None
        assert len(traj) == 11
        assert np.array_equal(traj.t, np.arange(11) * 0.1)
        assert traj.dt == 0.1

    def test_population_rate_column(self, params, outbreak_x0):
        traj = integrate(_plain_scenario(params, outbreak_x0, horizon=5.0))
        p = traj.scenario.params
        expected = (p.nu - p.mu) * traj.N - p.rho * p.gamma * traj.I
        np.testing.assert_allclose(traj.dn, expected, rtol=1e-13)
        np.testing.assert_allclose(
            traj.dn, traj.rates.sum(axis=1), rtol=0.0, atol=1e-10 * traj.N.max()
        )

    def test_determinism(self, params, outbreak_x0):
        sc = _plain_scenario(params, outbreak_x0, horizon=5.0, dt=0.01)
        a = integrate(sc)
        b = integrate(sc)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.va, b.va)
        assert np.array_equal(a.identity_residual, b.identity_residual)

    def test_terminal_state(self, params, outbreak_x0):
        traj = integrate(_plain_scenario(params, outbreak_x0))
        assert traj.terminal_state() == traj.state(len(traj) - 1)


class TestInvariants:
    def test_balanced_births_conserve_population(self):
        sc = build_preset("constant-population-check")
        traj = integrate(sc)
        assert traj.status is RunStatus.OK
        drift = np.abs(traj.N / traj.N[0] - 1.0).max()
        assert drift < 1e-8
        assert traj.v.min() >= 0.0 and traj.v.max() <= 1.0

    def test_disease_free_compartments_stay_exactly_zero(self):
        traj = integrate(build_preset("immune-decay"))
        assert traj.status is RunStatus.OK
        assert np.all(traj.E == 0.0)
        assert np.all(traj.I == 0.0)


class TestTruncation:
    def test_extinction(self):
        p = ModelParams(mu=1000.0, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                        rho=0.1, nu=0.0)
        sc = _plain_scenario(p, StateVec(1.0, 0.0, 0.0, 0.0),
                             horizon=1.0, dt=0.001)
        traj = integrate(sc)
        assert traj.status is RunStatus.EXTINCT
        assert traj.halt_time is not None
        assert len(traj) < sc.step_count() + 1
        assert np.all(traj.N > 1e-12)

    def test_blowup(self, outbreak_x0):
        p = ModelParams(mu=0.01, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                        rho=0.1, nu=500.0)
        sc = _plain_scenario(p, outbreak_x0, horizon=2.0, dt=0.01)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert traj.halt_time is not None
        assert np.all(np.isfinite(traj.states))

    def test_nan_inside_a_step_is_blowup(self, monkeypatch):
        # the profile reads nan from the boundary at t = 703.8 on; the demand
        # V_a is then nan, the clamp passes it through, and the next stage
        # population is nan: a blowup, not an extinction.
        nan_profile_from(monkeypatch, NAN_ONSET)
        sc = replace(build_preset("fig2-saturated"), dt=0.1, horizon=800.0)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert traj.halt_time == traj.t[-1] + sc.dt
        assert np.isnan(traj.va[-1]) and np.isnan(traj.v[-1])
        assert np.all(np.isfinite(traj.states)) and traj.N[-1] > 100.0

    def test_nan_on_the_final_boundary_is_blowup(self, monkeypatch):
        # 703.8 is the last boundary, which takes no step: the run still
        # ends exactly as the longer run that steps into the nan does
        nan_profile_from(monkeypatch, NAN_ONSET)
        base = replace(build_preset("fig2-saturated"), dt=0.1)
        short = integrate(replace(base, horizon=703.8))
        full = integrate(replace(base, horizon=800.0))
        assert full.status is RunStatus.BLOWUP
        assert (short.status, short.halt_time, len(short)) == (
            full.status, full.halt_time, len(full)
        )
        assert len(short) == 7039 and np.isnan(short.v[-1])
        for name in (
            "t", "states", "rates", "dn", "va", "v", "g", "h", "h_dot", "r_star",
            "r_star_dot", "k_n", "k_i", "theta0", "theta1", "identity_residual",
            "reset_counts",
        ):
            assert getattr(short, name).tobytes() == getattr(full, name).tobytes(), name


class TestRateContract:
    """integrate looks its rate closure up as seirvax.sim.make_rate_fn at
    call time and calls it four times per step, plus once at the last
    recorded boundary; the traced benchmark counts calls through that name."""

    @staticmethod
    def count_rate_calls(monkeypatch) -> list:
        calls = [0]
        make_rate_fn = sim.make_rate_fn

        def counting_make_rate_fn(params):
            rate = make_rate_fn(params)

            def counted(S, E, I, R, V):
                calls[0] += 1
                return rate(S, E, I, R, V)

            return counted

        monkeypatch.setattr(sim, "make_rate_fn", counting_make_rate_fn)
        return calls

    def test_complete_run(self, monkeypatch):
        calls = self.count_rate_calls(monkeypatch)
        sc = replace(build_preset("fig2-saturated"), horizon=20.0, dt=0.1)
        traj = integrate(sc)
        assert traj.status is RunStatus.OK
        steps = len(traj) - 1
        assert steps == sc.step_count()
        assert calls[0] == 4 * steps + 1

    def test_run_cut_inside_a_step(self, monkeypatch):
        # the blowup of TestTruncation: after the last recorded boundary's
        # first stage, one to three more stages run, the last one raising
        calls = self.count_rate_calls(monkeypatch)
        nan_profile_from(monkeypatch, NAN_ONSET)
        sc = replace(build_preset("fig2-saturated"), dt=0.1, horizon=800.0)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert traj.halt_time == traj.t[-1] + sc.dt
        done = 4 * (len(traj) - 1) + 1
        assert done + 1 <= calls[0] <= done + 3
        assert calls[0] < 4 * sc.step_count() + 1


class TestSteadyState:
    def test_constant_trajectory_settles_immediately(self, params, outbreak_x0):
        # hand-built motionless record: the detector must anchor at t = 0
        # and average the window down to the constant state exactly
        n = 41
        sc = _plain_scenario(params, outbreak_x0, horizon=40.0, dt=1.0).resolved()
        zeros = np.zeros(n)
        traj = Trajectory(
            scenario=sc, status=RunStatus.OK, halt_time=None,
            t=np.arange(n) * 1.0,
            states=np.tile(outbreak_x0.as_array(), (n, 1)),
            rates=np.zeros((n, 4)),
            dn=zeros, va=zeros, v=zeros, g=zeros, h=zeros, h_dot=zeros,
            r_star=zeros, r_star_dot=zeros, k_n=zeros, k_i=zeros,
            theta0=np.zeros(n, dtype=bool), theta1=np.zeros(n, dtype=bool),
            identity_residual=zeros, reset_counts=np.zeros(n, dtype=np.int64),
            reset_events=(),
        )
        ss = detect_steady_state(traj)
        assert ss.found and ss.t_ss == 0.0
        assert ss.x_ss == outbreak_x0

    def test_window_longer_than_run(self):
        sc = replace(build_preset("constant-population-check"), horizon=20.0)
        ss = detect_steady_state(integrate(sc))
        assert not ss.found and ss.t_ss is None and ss.x_ss is None
        assert ss.infected_fraction is None
        assert ss == SteadyState()

    def test_growing_population_never_settles(self):
        # total population climbs ~0.3% per day, far above the tolerance
        ss = detect_steady_state(integrate(build_preset("immune-decay")))
        assert not ss.found

    def test_endemic_regime_frozen(self):
        traj = integrate(build_preset("fig1-no-vaccination"))
        assert traj.status is RunStatus.OK
        ss = detect_steady_state(traj)
        assert ss.found
        assert ss.t_ss == pytest.approx(57.13, abs=1e-9)
        expected = (241.98691325266844, 80.222500807664,
                    79.74178020205595, 471.3677280621548)
        for got, want in zip(ss.x_ss, expected):
            assert got == pytest.approx(want, rel=1e-12)
        assert ss.infected_fraction == pytest.approx(
            0.18316822975040722, rel=1e-12
        )


class TestResets:
    def test_overdriven_demand_fires_resets(self, params):
        sc = ScenarioConfig(
            params=params,
            x0=StateVec(100.0, 0.0, 0.0, 900.0),
            control=ControlConfig(eps0=5.0, law=VaccinationLaw.UNSATURATED),
            horizon=5.0,
            dt=0.01,
        )
        traj = integrate(sc)
        assert traj.status is RunStatus.OK
        total = int(traj.reset_counts.sum())
        assert total > 0 and total == len(traj.reset_events)
        for ev in traj.reset_events:
            assert ev.component == "S" and ev.index == 0
            assert ev.value_before < 0.0
        # recorded states are post-reset: never negative
        assert traj.states.min() >= 0.0
        # a reset boundary with demand above 1 pins the applied level at 1
        fired = traj.reset_counts > 0
        assert fired.any()
        assert np.all(traj.v[fired & (traj.va > 1.0)] == 1.0)

    def test_saturated_presets_never_reset(self):
        for name in ("fig2-saturated", "constant-population-check"):
            traj = integrate(build_preset(name))
            assert traj.reset_events == ()
            assert int(traj.reset_counts.sum()) == 0


class TestConvergence:
    def test_fourth_order_step_halving(self):
        sc = replace(build_preset("fig1-no-vaccination"), horizon=50.0)
        rows = convergence_study(sc, [0.01, 0.04, 0.02])
        assert [r.dt for r in rows] == [0.04, 0.02, 0.01]
        assert rows[-1].diff_from_finest == 0.0
        ratio = rows[0].diff_from_finest / rows[1].diff_from_finest
        # one halving of a 4th-order method against a fixed finest anchor:
        # (2^8 - 1)/(2^4 - 1) = 17 in the asymptotic regime
        assert 14.0 <= ratio <= 20.0

    def test_ladder_validation(self, params, outbreak_x0):
        sc = _plain_scenario(params, outbreak_x0)
        with pytest.raises(ConfigError):
            convergence_study(sc, [0.01])
        with pytest.raises(ConfigError):
            convergence_study(sc, [0.01, 0.01])
        with pytest.raises(ConfigError):
            convergence_study(sc, [0.01, -0.1])


class TestScenarioValidation:
    def test_grid_guards(self, params, outbreak_x0):
        with pytest.raises(ConfigError):
            _plain_scenario(params, outbreak_x0, dt=0.0).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, outbreak_x0, dt=-0.1).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, outbreak_x0, horizon=0.05, dt=0.1).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, outbreak_x0, steady_state_tol=0.0).resolved()

    def test_state_guards(self, params):
        with pytest.raises(ConfigError):
            _plain_scenario(params, StateVec(-1.0, 0.0, 0.0, 10.0)).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, StateVec(0.0, 0.0, 0.0, 0.0)).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, StateVec(float("nan"), 0.0, 0.0, 10.0)).resolved()
        # every component is finite but their sum overflows; the check comes
        # before the references default to that total
        huge = StateVec(1e308, 1e308, 1e308, 1e308)
        for p in (params, params.with_references(1.0, 1.0)):
            with pytest.raises(ConfigError, match="initial population total must be finite"):
                _plain_scenario(p, huge).resolved()

    def test_resolved_fills_references_and_gains(self, params, outbreak_x0):
        sc = ScenarioConfig(params=params, x0=outbreak_x0).resolved()
        assert sc.params.I0_ref == outbreak_x0.N
        assert sc.params.N0_ref == outbreak_x0.N
        assert sc.control.eps0 == pytest.approx(0.07058823529411765, rel=1e-14)
        # already-set references are left alone
        custom = replace(params, I0_ref=50.0, N0_ref=500.0)
        sc = ScenarioConfig(params=custom, x0=outbreak_x0).resolved()
        assert sc.params.I0_ref == 50.0

    def test_step_count(self, params, outbreak_x0):
        assert _plain_scenario(params, outbreak_x0).step_count() == 10
        sc = _plain_scenario(params, outbreak_x0, horizon=0.1, dt=0.1)
        assert sc.step_count() == 1
