"""Integration engine: grid layout, conservation, truncation statuses,
steady-state detection, reset handling and the reset rule itself, and
RK4's step-size order."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seirvax import (
    ControlConfig,
    ControlSample,
    ModelParams,
    ModulationFamily,
    RunStatus,
    ScenarioConfig,
    StateVec,
    SteadyState,
    Trajectory,
    VaccinationLaw,
    apply_reset,
    build_preset,
    detect_steady_state,
    integrate,
)
from seirvax import control, sim
from seirvax.cli import TRAJECTORY_COLUMNS
from seirvax.errors import ConfigError
from seirvax.presets import BALANCED_PARAMS, BASELINE_PARAMS

from conftest import (
    RECORDED_COLUMNS, assert_rows_match_control_sample, nan_profile_from, run_columns,
)
from test_control_grid import SCENARIOS as GRID

# Between the grid points 703.7 and 703.8 at dt = 0.1: the row at 703.8 is
# the first with a nan demand.
NAN_ONSET = 703.75

# Births at nu = 500 outrun every loss: a run's total overflows within two
# days at dt = 0.01.
RUNAWAY_PARAMS = ModelParams(mu=0.01, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                             rho=0.1, nu=500.0)


def _plain_scenario(params, x0, **overrides) -> ScenarioConfig:
    base = dict(
        params=params, x0=x0,
        control=ControlConfig(law=VaccinationLaw.NONE),
        horizon=1.0, dt=0.1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _collapsing_scenario() -> ScenarioConfig:
    """mu = 1000 empties the population within the first day, the stage
    that crosses the floor ending the run inside its step."""
    p = ModelParams(mu=1000.0, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                    rho=0.1, nu=0.0)
    return _plain_scenario(p, StateVec(1.0, 0.0, 0.0, 0.0), horizon=1.0, dt=0.001)


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
        np.testing.assert_allclose(traj.dN, expected, rtol=1e-13)
        np.testing.assert_allclose(
            traj.dN, traj.rates.sum(axis=1), rtol=0.0, atol=1e-10 * traj.N.max()
        )

    def test_determinism(self, params, outbreak_x0):
        sc = _plain_scenario(params, outbreak_x0, horizon=5.0, dt=0.01)
        a = integrate(sc)
        b = integrate(sc)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.V_a, b.V_a)
        assert np.array_equal(a.identity_residual, b.identity_residual)

    def test_runs_compare_by_identity(self, params, outbreak_x0):
        # the columns are arrays: field-wise equality would raise on them
        sc = _plain_scenario(params, outbreak_x0)
        a = integrate(sc)
        assert a == a
        assert a != integrate(sc)
        assert hash(a) == hash(a)

    def test_terminal_state(self, params, outbreak_x0):
        traj = integrate(_plain_scenario(params, outbreak_x0))
        assert traj.terminal_state() == traj.state(len(traj) - 1)

    def test_columns_are_read_only_views_of_the_table(self):
        # the row layout is named once, in _TABLE_COLUMNS: each column
        # attribute views its table column there, and trajectory.csv's
        # float columns are the table's but for the rates, in table order
        traj = integrate(build_preset("fig2-saturated"))
        names, rates = sim._TABLE_COLUMNS, sim._RATE_COLUMNS
        spans = {name: (j, j + 1) for j, name in enumerate(names) if name not in rates}
        spans["states"] = names.index("S"), names.index("R") + 1
        spans["rates"] = names.index(rates[0]), names.index(rates[-1]) + 1
        for name, (start, stop) in spans.items():
            view = getattr(traj, name)
            column = traj.table[:, start:stop].reshape(view.shape)
            assert np.shares_memory(view, column), name
            assert view.tobytes() == column.tobytes(), name
            assert not view.flags.writeable, name
        assert traj.states.shape == traj.rates.shape == (len(traj), 4)
        assert TRAJECTORY_COLUMNS[:12] == tuple(name for name in names if name not in rates)


class TestInvariants:
    def test_balanced_births_conserve_population(self):
        sc = build_preset("constant-population-check")
        traj = integrate(sc)
        assert traj.status is RunStatus.OK
        drift = np.abs(traj.N / traj.N[0] - 1.0).max()
        assert drift < 1e-8
        assert traj.V.min() >= 0.0 and traj.V.max() <= 1.0

    def test_disease_free_compartments_stay_exactly_zero(self):
        traj = integrate(build_preset("immune-decay"))
        assert traj.status is RunStatus.OK
        assert np.all(traj.E == 0.0)
        assert np.all(traj.I == 0.0)


class TestTruncation:
    def test_extinction(self):
        sc = _collapsing_scenario()
        traj = integrate(sc)
        assert traj.status is RunStatus.EXTINCT
        assert traj.halt_time == len(traj) * sc.dt
        assert len(traj) < sc.step_count() + 1
        assert np.all(traj.N > 1e-12)

    def test_blowup(self, outbreak_x0):
        sc = _plain_scenario(RUNAWAY_PARAMS, outbreak_x0, horizon=2.0, dt=0.01)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert traj.halt_time == len(traj) * sc.dt
        assert np.all(np.isfinite(traj.states))

    def test_nan_inside_a_step_is_blowup(self, monkeypatch):
        # the profile reads nan from the boundary at t = 703.8 on; the demand
        # V_a is then nan and the clamp passes it through, so that boundary
        # ends the run a blowup, before its step makes a nan stage population
        nan_profile_from(monkeypatch, NAN_ONSET)
        sc = replace(build_preset("fig2-saturated"), dt=0.1, horizon=800.0)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert traj.halt_time == len(traj) * sc.dt
        assert np.isnan(traj.V_a[-1]) and np.isnan(traj.V[-1])
        assert np.all(np.isfinite(traj.states)) and traj.N[-1] > 100.0

    def test_infinite_demand_is_blowup(self, params, outbreak_x0):
        # eps0 = 1e306 keeps eps0/nu = 1.5e308 finite, but K_N*N overflows
        # the demand at t = 0 to inf; the saturated law clamps it to V = 1,
        # which would run on to the horizon
        sc = ScenarioConfig(
            params=params, x0=outbreak_x0,
            control=ControlConfig(eps0=1e306), horizon=2.0, dt=0.1,
        )
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert (len(traj), traj.halt_time) == (1, 0.1)
        assert traj.V_a[0] == np.inf and traj.V[0] == 1.0

    # (g_family, control constants, rates, start, boundary k whose divisor
    # underflows); at t = 0 corollary2_ii returns g = 0 without dividing
    @pytest.mark.parametrize("family, constants, rates, x0, k", [
        pytest.param("eq33b", dict(eps0=0.5, eps=5e-324), {}, None, 0, id="eq33b-eps0*eps"),
        pytest.param("custom_case_a", dict(eps=5e-324), {}, None, 0, id="custom_case_a-eps*nu"),
        pytest.param("custom_case_a", dict(eps=1e-300), dict(nu=1e-30), None, 0,
                     id="custom_case_a-eps_nu*N"),
        pytest.param("corollary2_ii", dict(eps0=5e-324), {}, None, 1,
                     id="corollary2_ii-eps0*settled"),
        pytest.param("zero", dict(eps0=5e-324), dict(nu=5e-324), StateVec(0.4, 0.0, 0.0, 0.0),
                     0, id="zero-nu*N"),
    ])
    def test_underflowed_divisor_is_blowup(self, params, outbreak_x0, family, constants,
                                           rates, x0, k):
        # a divisor that underflows to 0.0 records nan for the boundary's
        # composed control values, a non-finite demand
        sc = ScenarioConfig(
            params=replace(params, **rates), x0=x0 or outbreak_x0,
            control=ControlConfig(g_family=ModulationFamily(family), **constants),
            horizon=2.0, dt=0.1,
        )
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert (len(traj), traj.halt_time) == (k + 1, (k + 1) * 0.1)
        assert np.all(np.isfinite(traj.V_a[:k]))
        columns = run_columns(traj)
        for name in ControlSample._fields[:9] + ("identity_residual",):
            assert np.isnan(columns[name][k]), name
        assert np.isfinite(traj.dN[k]) and not (traj.theta0[k] or traj.theta1[k])
        assert traj.reset_events == ()
        # control_sample returns the same nan sample, bit for bit
        assert_rows_match_control_sample(traj)

    def test_rate_pushes_the_next_boundary_to_extinction(self, params, monkeypatch):
        # only the step's last stage moves: dS = -6*N/dt takes S from 1 to 0
        # in one step, so the boundary at t = 0.1 reads N = 0 and ends the run
        calls = TestRateContract.count_rate_calls(
            monkeypatch, lambda n, d: (-60.0, 0.0, 0.0, 0.0) if n == 4 else (0.0,) * 4
        )
        sc = _plain_scenario(params, StateVec(1.0, 0.0, 0.0, 0.0), dt=0.1)
        traj = integrate(sc)
        assert traj.status is RunStatus.EXTINCT
        assert (len(traj), traj.halt_time, calls[0]) == (1, 0.1, 4)

    def test_overflowed_total_at_a_boundary_is_blowup(self, params, monkeypatch):
        # the last stage takes S and R to 1e308 each: both are finite, but
        # their sum overflows, so the boundary at t = 10 ends the run
        TestRateContract.count_rate_calls(
            monkeypatch, lambda n, d: (6e307, 0.0, 0.0, 6e307) if n == 4 else (0.0,) * 4
        )
        sc = _plain_scenario(params, StateVec(1.0, 0.0, 0.0, 1.0), horizon=30.0, dt=10.0)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert len(traj) == 1 and np.isfinite(traj.N).all()

    def test_overflowed_total_after_a_reset_is_blowup(self, params, monkeypatch):
        # the last stage lands on S = R = 1e308, E = -1e308: the raw sum is
        # finite, but the reset zeroes E and the total it records would
        # overflow, so the boundary at t = 10 ends the run and fires nothing
        TestRateContract.count_rate_calls(
            monkeypatch,
            lambda n, d: (6e307, -6e307, 0.0, 6e307) if n == 4 else (0.0,) * 4,
        )
        sc = _plain_scenario(params, StateVec(1.0, 0.0, 0.0, 1.0), horizon=30.0, dt=10.0)
        traj = integrate(sc)
        assert (traj.status, len(traj)) == (RunStatus.BLOWUP, 1)
        assert np.isfinite(traj.N).all()
        assert traj.reset_events == ()

    def test_negative_infinite_component_at_a_boundary_is_blowup(self, params,
                                                                 monkeypatch):
        # the last stage lands on S = -inf and E = -2: the reset clamps E
        # only, the total stays -inf and ends the run, and no event is kept
        # for the boundary it did not record
        TestRateContract.count_rate_calls(
            monkeypatch,
            lambda n, d: (-np.inf, -1.2, 0.0, 0.0) if n == 4 else (0.0,) * 4,
        )
        sc = _plain_scenario(params, StateVec(1.0, 0.0, 0.0, 1.0), horizon=30.0, dt=10.0)
        traj = integrate(sc)
        assert (traj.status, len(traj)) == (RunStatus.BLOWUP, 1)
        assert traj.reset_events == () and int(traj.reset_counts.sum()) == 0

    def test_negative_infinite_stage_total_is_blowup(self, params, monkeypatch):
        # the third stage's rates send the fourth stage's S and R to -inf:
        # a non-finite total is a blowup, although it is below the floor
        calls = TestRateContract.count_rate_calls(
            monkeypatch, lambda n, d: (-1e308, 0.0, 0.0, -1e308) if n == 3 else (0.0,) * 4
        )
        sc = _plain_scenario(params, StateVec(1.0, 0.0, 0.0, 1.0), horizon=30.0, dt=10.0)
        traj = integrate(sc)
        assert (traj.status, len(traj), calls[0]) == (RunStatus.BLOWUP, 1, 4)

    def test_nan_stage_population_is_blowup(self, params, outbreak_x0, monkeypatch):
        # a nan second-stage rate makes the third stage's population nan;
        # the demand stays finite, so the step itself ends the run
        nan = float("nan")
        calls = TestRateContract.count_rate_calls(
            monkeypatch, lambda n, d: (nan, 0.0, 0.0, 0.0) if n == 6 else d
        )
        traj = integrate(_plain_scenario(params, outbreak_x0))
        assert traj.status is RunStatus.BLOWUP
        assert (len(traj), traj.halt_time, calls[0]) == (2, 0.2, 7)

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
        assert len(short) == 7039 and np.isnan(short.V[-1])
        for name in RECORDED_COLUMNS:
            assert getattr(short, name).tobytes() == getattr(full, name).tobytes(), name


class TestRateContract:
    """integrate looks its rate closure up as seirvax.sim.make_rate_fn at
    call time and calls it four times per step, plus once at the last
    recorded boundary; the traced benchmark counts calls through that name."""

    @staticmethod
    def count_rate_calls(monkeypatch, edit=None) -> list:
        """Count integrate's rate calls; edit(n, d), when given, returns the
        n-th call's rates in place of the true ones d."""
        calls = [0]
        make_rate_fn = sim.make_rate_fn

        def counting_make_rate_fn(params):
            rate = make_rate_fn(params)

            def counted(S, E, I, R, V):
                calls[0] += 1
                d = rate(S, E, I, R, V)
                return d if edit is None else edit(calls[0], d)

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
        # after the last recorded boundary's first stage, one to three more
        # stages run, the last one raising
        calls = self.count_rate_calls(monkeypatch)
        sc = _collapsing_scenario()
        traj = integrate(sc)
        assert traj.status is RunStatus.EXTINCT
        assert traj.halt_time == len(traj) * sc.dt
        done = 4 * (len(traj) - 1) + 1
        assert done + 1 <= calls[0] <= done + 3
        assert calls[0] < 4 * sc.step_count() + 1

    def test_run_cut_by_a_nan_demand(self, monkeypatch):
        # the boundary that records the nan demand takes no step: its one
        # rate call is the run's last
        calls = self.count_rate_calls(monkeypatch)
        nan_profile_from(monkeypatch, NAN_ONSET)
        sc = replace(build_preset("fig2-saturated"), dt=0.1, horizon=800.0)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert calls[0] == 4 * (len(traj) - 1) + 1


class TestBoundaryContract:
    """integrate looks its controller closure up as seirvax.sim.boundary_fn
    at call time and calls it once per recorded row, with negative equal to
    that row's reset_counts[k] > 0: the inputs conftest.run_columns calls
    the closure with to recompute the four control values a run does not
    record."""

    def test_negative_is_the_rows_reset_flag(self, monkeypatch):
        negatives = []
        boundary_fn = sim.boundary_fn

        def recording_boundary_fn(cfg, params, r0):
            boundary = boundary_fn(cfg, params, r0)

            def recorded(t, N, I, negative):
                negatives.append(negative)
                return boundary(t, N, I, negative)

            return recorded

        monkeypatch.setattr(sim, "boundary_fn", recording_boundary_fn)
        resetting = 0
        for key, sc in GRID.items():
            negatives.clear()
            traj = integrate(sc)
            assert negatives == (traj.reset_counts > 0).tolist(), key
            resetting += any(negatives)
        assert resetting == 8


def _record(sc, states, rates) -> Trajectory:
    """A hand-built record of the resolved scenario sc: one row per state,
    one day apart, with its total, these rates and zero control values."""
    n = len(states)
    S, E, I, R = states.T
    columns = {"t": np.arange(n) * 1.0, "S": S, "E": E, "I": I, "R": R, "N": S + E + I + R}
    columns.update(zip(sim._RATE_COLUMNS, rates.T))
    table = np.column_stack([columns.get(name, np.zeros(n)) for name in sim._TABLE_COLUMNS])
    return Trajectory(sc, RunStatus.OK, table, np.zeros(n, dtype=np.int64), ())


def _motionless(params, x0, n) -> Trajectory:
    """A hand-built record of n rows one day apart, all holding x0 with
    zero rates."""
    sc = _plain_scenario(params, x0, horizon=40.0, dt=1.0).resolved()
    return _record(sc, np.tile(np.asarray(x0, dtype=float), (n, 1)), np.zeros((n, 4)))


class TestSteadyState:
    def test_constant_trajectory_settles_immediately(self, params, outbreak_x0):
        # the detector must anchor at t = 0 and average the window down to
        # the constant state exactly
        ss = detect_steady_state(_motionless(params, outbreak_x0, 41))
        assert ss.found and ss.t_ss == 0.0
        assert ss.x_ss == outbreak_x0

    def test_empty_trajectory_is_refused(self, params, outbreak_x0):
        with pytest.raises(ValueError, match="empty trajectory"):
            detect_steady_state(_motionless(params, outbreak_x0, 0))

    def test_step_longer_than_the_window(self):
        # round(30/100) = 0, so the window is one step; the balanced,
        # disease-free start never moves and settles at t = 0
        x0 = StateVec(1000.0, 0.0, 0.0, 0.0)
        sc = _plain_scenario(BALANCED_PARAMS, x0, horizon=1000.0, dt=100.0)
        ss = detect_steady_state(integrate(sc))
        assert ss.found and ss.t_ss == 0.0
        assert ss.x_ss == x0

    def test_window_longer_than_run(self):
        sc = replace(build_preset("constant-population-check"), horizon=20.0)
        ss = detect_steady_state(integrate(sc))
        assert not ss.found and ss.t_ss is None and ss.x_ss is None
        assert ss.infected_fraction is None
        assert ss == SteadyState()

    def test_window_past_the_float_range(self):
        # 30/dt overflows to inf below dt = 1.7e-307: no step count holds
        # the window, so the run does not settle rather than raise
        sc = replace(build_preset("fig2-saturated"), dt=1e-320, horizon=1e-319)
        traj = integrate(sc)
        assert len(traj) == 11
        assert detect_steady_state(traj) == SteadyState()

    def test_tolerance_past_the_float_range(self):
        # tol * N overflows to inf: an infinite threshold under which every
        # sample is still, so the run settles at its first row, and no
        # overflow warning is raised on the way
        sc = replace(build_preset("fig2-saturated"), horizon=40.0, dt=0.1,
                     steady_state_tol=1e308)
        traj = integrate(sc)
        assert len(traj) == 401
        ss = detect_steady_state(traj)
        assert ss.found and ss.t_ss == 0.0

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


# Kinds of recorded sample for the stillness patterns below: a still one
# has zero rates or one rate exactly at tol * N (the bound is inclusive); a
# moving one has a rate just above it, of either sign, or a nan rate.
STILL_KINDS = ("zero", "at_tol")
SAMPLE_KINDS = STILL_KINDS + ("above_tol", "below_neg_tol", "nan")
WINDOW = 30  # round(STEADY_STATE_WINDOW_DAYS / dt) at dt = 1


def _patterned(params, x0, kinds) -> Trajectory:
    """A hand-built record one day apart whose sample k is of kind kinds[k];
    its states drift row by row so each window has its own average."""
    n = len(kinds)
    traj = _motionless(params, x0, n)
    states = np.asarray(x0, dtype=float) * (1.0 + np.arange(n)[:, None] / 64.0)
    N = states[:, 0] + states[:, 1] + states[:, 2] + states[:, 3]
    tol = traj.scenario.steady_state_tol
    rates = np.zeros((n, 4))
    for k, kind in enumerate(kinds):
        edge = tol * N[k]
        rates[k, k % 4] = {
            "zero": 0.0,
            "at_tol": edge,
            "above_tol": np.nextafter(edge, np.inf),
            "below_neg_tol": -np.nextafter(edge, np.inf),
            "nan": np.nan,
        }[kind]
    return _record(traj.scenario, states, rates)


def _scan(traj) -> SteadyState:
    """The first window of WINDOW + 1 still samples, one window at a time."""
    tol = traj.scenario.steady_state_tol
    still = [all(abs(r) <= tol * n for r in row) for row, n in zip(traj.rates, traj.N)]
    for k in range(len(traj) - WINDOW):
        if all(still[k : k + WINDOW + 1]):
            window = traj.states[k : k + WINDOW + 1].mean(axis=0)
            return SteadyState(t_ss=float(traj.t[k]), x_ss=StateVec(*(float(v) for v in window)))
    return SteadyState()


stillness_patterns = st.lists(
    st.tuples(st.sampled_from(SAMPLE_KINDS), st.integers(1, 2 * WINDOW)),
    min_size=1, max_size=8,
).map(lambda runs: [kind for kind, length in runs for _ in range(length)][:120])


class TestSteadyStateSearch:
    """detect_steady_state's gap search against a window-by-window scan."""

    @pytest.mark.parametrize("kinds, t_ss", [
        # a still stretch of exactly w + 1 samples ending on the last row
        (["above_tol"] * 5 + ["zero"] * (WINDOW + 1), 5.0),
        # one of w samples, at the end and between moving samples
        (["nan"] * 5 + ["zero"] * WINDOW, None),
        (["zero"] * WINDOW + ["above_tol"] + ["at_tol"] * WINDOW + ["nan"], None),
        # n == w + 1, all still or one moving sample
        (["at_tol"] * (WINDOW + 1), 0.0),
        (["zero"] * WINDOW + ["below_neg_tol"], None),
        # a nan rate is moving, and the window starts after it
        (["zero"] * 10 + ["nan"] + ["zero"] * (WINDOW + 1), 11.0),
        (["zero"] * 10 + ["nan"] + ["zero"] * WINDOW, None),
        # the first of two qualifying stretches wins
        (["zero"] * (WINDOW + 2) + ["nan"] + ["zero"] * (WINDOW + 5), 0.0),
    ])
    def test_explicit_patterns(self, params, outbreak_x0, kinds, t_ss):
        traj = _patterned(params, outbreak_x0, kinds)
        ss = detect_steady_state(traj)
        assert ss.t_ss == t_ss
        assert ss == _scan(traj)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(kinds=stillness_patterns)
    def test_generated_patterns(self, kinds):
        traj = _patterned(BASELINE_PARAMS, StateVec(400.0, 150.0, 250.0, 200.0), kinds)
        assert detect_steady_state(traj) == _scan(traj)


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
        assert np.all(traj.V[fired & (traj.V_a > 1.0)] == 1.0)

    def test_infinite_demand_drops_later_rows_and_resets(self, params, monkeypatch):
        sc = ScenarioConfig(
            params=params,
            x0=StateVec(100.0, 0.0, 0.0, 900.0),
            control=ControlConfig(eps0=5.0, law=VaccinationLaw.UNSATURATED),
            horizon=5.0,
            dt=0.01,
        )
        clean = integrate(sc)
        # one boundary between the first and the last reset reads g = +inf:
        # K_N and the demand are -inf there and apply V = 0, so the loop
        # itself would run on and keep resetting
        k = 250
        t_k = float(clean.t[k])
        assert clean.reset_events[0].t < t_k < clean.reset_events[-1].t
        modulation_fn = control._modulation_fn

        def patched(cfg, p, r0):
            modulation = modulation_fn(cfg, p, r0)

            def spiked(t, N, I):
                return np.inf if t == t_k else modulation(t, N, I)

            return spiked

        monkeypatch.setattr(control, "_modulation_fn", patched)
        traj = integrate(sc)
        assert traj.status is RunStatus.BLOWUP
        assert (len(traj), traj.halt_time) == (k + 1, (k + 1) * sc.dt)
        assert traj.V_a[k] == -np.inf and traj.V[k] == 0.0
        assert traj.states.tobytes() == clean.states[: k + 1].tobytes()
        assert traj.reset_events == tuple(e for e in clean.reset_events if e.t <= t_k)
        assert np.array_equal(traj.reset_counts, clean.reset_counts[: k + 1])

    def test_reset_lifts_a_total_below_the_floor(self, params, monkeypatch):
        # the last stage lands on S = -5, R = 3: the raw sum -2 is below the
        # floor, but the boundary judges the clamped state, whose total is 3,
        # so it records that row with its one reset and runs on
        TestRateContract.count_rate_calls(
            monkeypatch, lambda n, d: (-3.6, 0.0, 0.0, 1.2) if n == 4 else (0.0,) * 4
        )
        sc = _plain_scenario(params, StateVec(1.0, 0.0, 0.0, 1.0), horizon=30.0, dt=10.0)
        traj = integrate(sc)
        assert (traj.status, len(traj)) == (RunStatus.OK, 4)
        (event,) = traj.reset_events
        assert (event.t, event.component) == (10.0, "S")
        assert event.value_before == pytest.approx(-5.0, abs=1e-12)
        assert traj.state(1) == StateVec(0.0, 0.0, 0.0, traj.R[1])
        assert traj.N[1] == traj.S[1] + traj.E[1] + traj.I[1] + traj.R[1] == traj.R[1]
        assert list(traj.reset_counts) == [0, 1, 0, 0]

    def test_saturated_presets_never_reset(self):
        for name in ("fig2-saturated", "constant-population-check"):
            traj = integrate(build_preset(name))
            assert traj.reset_events == ()
            assert int(traj.reset_counts.sum()) == 0


class TestNonnegativityTools:
    def test_reset_clamps_to_exact_zero(self):
        x = StateVec(1.0, -0.5, 0.0, -1e-14)
        cleaned, clamps = apply_reset(x)
        assert cleaned == StateVec(1.0, 0.0, 0.0, 0.0)
        assert cleaned.E == 0.0 and cleaned.R == 0.0
        assert clamps == ((1, -0.5), (3, -1e-14))

    def test_reset_leaves_negative_infinity(self):
        # only finite negatives are clamped: -inf is no rounding excursion,
        # and the run's total reads it as a blowup
        x = StateVec(1.0, -np.inf, -2.0, 0.0)
        cleaned, clamps = apply_reset(x)
        assert cleaned == StateVec(1.0, -np.inf, 0.0, 0.0)
        assert clamps == ((2, -2.0),)

    def test_reset_noop_passthrough(self):
        x = StateVec(1.0, 0.0, 2.0, 3.0)
        cleaned, clamps = apply_reset(x)
        assert cleaned is x
        assert clamps == ()


class TestConvergence:
    def test_fourth_order_step_halving(self):
        sc = replace(build_preset("fig1-no-vaccination"), horizon=50.0)
        runs = [integrate(replace(sc, dt=dt)) for dt in (0.04, 0.02, 0.01)]
        assert [run.status for run in runs] == [RunStatus.OK] * 3
        coarse, mid, fine = (np.asarray(run.terminal_state(), dtype=float) for run in runs)
        ratio = np.max(np.abs(coarse - fine)) / np.max(np.abs(mid - fine))
        # one halving of a 4th-order method against a fixed finest anchor:
        # (2^8 - 1)/(2^4 - 1) = 17 in the asymptotic regime
        assert 14.0 <= ratio <= 20.0


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

    @pytest.mark.parametrize("name", ["a\rb", "a\nb", "a\u2028b", "a\n"])
    def test_name_spans_one_line(self, params, outbreak_x0, name):
        # any break str.splitlines honours would split report.txt's line
        message = f"scenario name must be one line, got {name!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            integrate(_plain_scenario(params, outbreak_x0, name=name))

    def test_name_must_encode_as_utf8(self):
        # report.txt is UTF-8, which cannot hold a lone surrogate such as
        # the one an undecodable file name byte becomes in a str
        message = "scenario name must be encodable as UTF-8, got '\\udcff'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            integrate(replace(build_preset("fig2-saturated"), name="\udcff"))

    def test_empty_name_is_accepted(self, params, outbreak_x0):
        assert integrate(_plain_scenario(params, outbreak_x0, name="")).scenario.name == ""

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_steady_state_tol_guard(self, params, outbreak_x0, tol):
        message = f"steady_state_tol must be a positive finite number, got {tol!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            _plain_scenario(params, outbreak_x0, steady_state_tol=tol).resolved()

    def test_state_guards(self, params):
        with pytest.raises(ConfigError):
            _plain_scenario(params, StateVec(-1.0, 0.0, 0.0, 10.0)).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, StateVec(0.0, 0.0, 0.0, 0.0)).resolved()
        with pytest.raises(ConfigError):
            _plain_scenario(params, StateVec(float("nan"), 0.0, 0.0, 10.0)).resolved()
        # every component is finite but their sum overflows
        huge = StateVec(1e308, 1e308, 1e308, 1e308)
        with pytest.raises(ConfigError, match="initial population total must be finite"):
            _plain_scenario(params, huge).resolved()

    # (rates, eps0): the demand level eps0/nu overflows; both once ended
    # blowup after one row with V_a = inf
    @pytest.mark.parametrize("rates, eps0", [
        pytest.param(ModelParams(mu=0.0, omega=1.0, beta=0.0, sigma=0.0, gamma=0.0, rho=0.0,
                                 nu=5e-324), None, id="subnormal-nu"),
        pytest.param(BASELINE_PARAMS, 1e308, id="huge-eps0"),
    ])
    def test_infinite_demand_level_is_a_config_error(self, rates, eps0):
        sc = ScenarioConfig(params=rates, x0=StateVec(1.0, 0.0, 0.0, 0.0),
                            control=ControlConfig(eps0=eps0))
        resolved_eps0 = rates.immune_pole if eps0 is None else eps0
        message = (f"an active vaccination law needs a finite eps0/nu, got "
                   f"eps0 = {resolved_eps0!r} and nu = {rates.nu!r}")
        with pytest.raises(ConfigError, match=re.escape(message)):
            integrate(sc)
        # the none law applies no demand
        no_law = replace(sc, control=ControlConfig(eps0=eps0, law=VaccinationLaw.NONE))
        assert integrate(no_law).status is RunStatus.OK

    def test_resolved_fills_gains_and_keeps_params(self, params, outbreak_x0):
        sc = ScenarioConfig(params=params, x0=outbreak_x0).resolved()
        assert sc.params is params
        assert sc.control.eps0 == pytest.approx(0.07058823529411765, rel=1e-14)
        assert sc.control.eps0 == params.immune_pole

    def test_step_count(self, params, outbreak_x0):
        assert _plain_scenario(params, outbreak_x0).step_count() == 10
        sc = _plain_scenario(params, outbreak_x0, horizon=0.1, dt=0.1)
        assert sc.step_count() == 1
