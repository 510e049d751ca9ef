"""End-to-end acceptance criteria.

Each test pins one headline behavior of the package at its stated
tolerance: endemic levels, conservation, positivity, the controller
identity, the population integral, closed-form tracking, Metzler scans,
and integrator order. Expected levels were derived independently before
being frozen here.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from seirvax import (
    BASELINE_PARAMS,
    MatrixVariant,
    ModelParams,
    RunStatus,
    ScenarioConfig,
    StateVec,
    VaccinationLaw,
    build_matrix,
    build_preset,
    check_metzler,
    detect_steady_state,
    immune_closed_form,
    integral_test,
    integrate,
    standard_verdicts,
)
from seirvax.cli import build_run_report
from seirvax.control import ControlConfig

from conftest import continuous_reference, random_state

PRESET_NAMES = (
    "fig1-no-vaccination",
    "fig2-saturated",
    "fig3-unsaturated",
    "constant-population-check",
    "immune-decay",
    "disease-free-tracking",
)


@pytest.fixture(scope="module")
def preset_runs():
    """Integrate every bundled preset once for the whole module."""
    return {name: integrate(build_preset(name)) for name in PRESET_NAMES}


class TestEndemicLevels:
    def test_unvaccinated_endemic_state_and_runtime(self):
        # criterion 1: settled latent/infectious pools near 81 each,
        # infected fraction near 0.18, full 600-day run under 10 s
        start = time.perf_counter()
        traj = integrate(build_preset("fig1-no-vaccination"))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert traj.status is RunStatus.OK
        ss = detect_steady_state(traj)
        assert ss.found
        assert ss.x_ss.E == pytest.approx(81.0, abs=3.0)
        assert ss.x_ss.I == pytest.approx(81.0, abs=3.0)
        assert ss.infected_fraction == pytest.approx(0.18, abs=0.01)

    def test_saturated_vaccination_lowers_endemic_state(self, preset_runs):
        # criterion 2
        ss = detect_steady_state(preset_runs["fig2-saturated"])
        assert ss.found
        assert ss.x_ss.E == pytest.approx(74.0, abs=5.0)
        assert ss.x_ss.I == pytest.approx(74.0, abs=5.0)
        assert ss.infected_fraction == pytest.approx(0.16, abs=0.02)

    def test_unsaturated_variant_settles_lower_still(self, preset_runs):
        ss2 = detect_steady_state(preset_runs["fig2-saturated"])
        ss3 = detect_steady_state(preset_runs["fig3-unsaturated"])
        assert ss3.found
        assert ss3.infected_fraction < ss2.infected_fraction


class TestConservationAndPositivity:
    def test_balanced_births_hold_population_constant(self, preset_runs):
        # criterion 3: nu = mu with no disease mortality channel
        traj = preset_runs["constant-population-check"]
        drift = np.abs(traj.N / traj.N[0] - 1.0).max()
        assert drift < 1e-8
        assert traj.V.min() >= 0.0 and traj.V.max() <= 1.0

    def test_states_stay_nonnegative_without_resets(self, preset_runs):
        # criterion 4, preset part
        for name in ("fig1-no-vaccination", "fig2-saturated", "fig3-unsaturated"):
            traj = preset_runs[name]
            assert int(traj.reset_counts.sum()) == 0, name
            assert traj.states.min() >= -1e-6, name

    def test_random_starts_stay_nonnegative(self):
        # criterion 4, randomized part: 100 arbitrary nonnegative starts
        # under the saturated switched controller
        control = build_preset("fig2-saturated").control
        rng = np.random.default_rng(917)
        for _ in range(100):
            x0 = random_state(rng)
            sc = ScenarioConfig(
                params=BASELINE_PARAMS, x0=x0, control=control,
                horizon=60.0, dt=0.02,
            )
            traj = integrate(sc)
            assert traj.status is RunStatus.OK, x0
            assert int(traj.reset_counts.sum()) == 0, x0
            assert traj.states.min() >= -1e-6, x0


class TestControllerIdentity:
    def test_identity_residual_on_every_preset(self, preset_runs):
        # criterion 5: nu N V_a == eps0 (1 - eps g) N along every run
        for name, traj in preset_runs.items():
            assert traj.identity_residual.max(initial=0.0) < 1e-10, name


class TestPopulationIntegral:
    def test_pointwise_identity_and_quadrature_order(self, preset_runs):
        # criterion 6: trapezoid check of the weighted-population identity
        traj = preset_runs["fig1-no-vaccination"]
        diag = integral_test(traj)
        assert diag.max_pointwise_residual / traj.N[0] < 1e-3
        assert diag.consistent

        maxima = []
        for dt in (0.04, 0.02):
            coarse = integrate(
                replace(build_preset("fig1-no-vaccination"), dt=dt)
            )
            d = integral_test(coarse)
            maxima.append(d.max_pointwise_residual)
        maxima.append(diag.max_pointwise_residual)
        # second-order quadrature: each halving buys at least a factor 2
        assert maxima[0] / maxima[1] >= 2.0
        assert maxima[1] / maxima[2] >= 2.0

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_quick_start_idiom_is_the_report(self, preset_runs, name):
        # README's standard_verdicts(params, integral_test(traj)) on every
        # preset, including those where births do not outpace deaths
        traj = preset_runs[name]
        verdicts = standard_verdicts(traj.scenario.params, integral_test(traj))
        assert verdicts == build_run_report(traj).verdicts


class TestImmuneDecayDesign:
    def test_matches_closed_form_at_fine_step(self):
        # criterion 7: the decay-designed run reproduces its closed form
        sc = replace(build_preset("immune-decay"), dt=5e-4)
        traj = integrate(sc)
        assert traj.status is RunStatus.OK
        expected = immune_closed_form(
            sc.control, sc.params, traj.t, traj.R[0]
        )
        rel = np.abs(traj.R - expected) / np.abs(expected)
        assert rel.max() < 1e-6
        assert traj.R[-1] < 1e-3 * traj.R[0]

    @pytest.mark.xfail(
        strict=True,
        reason="the applied vaccination level is sampled and held across "
        "each step, an O(dt) input error; at dt = 0.01 the closed-form "
        "match cannot reach 1e-6",
    )
    def test_closed_form_tolerance_at_default_step(self):
        sc = build_preset("immune-decay")
        traj = integrate(sc)
        expected = immune_closed_form(
            sc.control, sc.params, traj.t, traj.R[0]
        )
        rel = np.abs(traj.R - expected) / np.abs(expected)
        assert rel.max() < 1e-6


class TestZeroOrderHoldFloor:
    # (max row error / N at dt 0.02, at dt 0.01, the range of the order
    # between them), measured over 200 days against continuous_reference.
    # fig3 and immune-decay apply a V that moves within a step, so holding
    # it costs O(dt); the other three runs hold a V constant on every row,
    # so RK4's O(dt^4) sets their error. disease-free-tracking sits at
    # rounding, where no order shows.
    ORDER_1, ORDER_4, ANY = (0.9, 1.1), (3.5, np.inf), (-np.inf, np.inf)
    FLOORS = {
        "fig1-no-vaccination": (5.80e-11, 3.61e-12, ORDER_4),
        "fig2-saturated": (5.82e-11, 3.62e-12, ORDER_4),
        "constant-population-check": (5.79e-11, 3.60e-12, ORDER_4),
        "fig3-unsaturated": (4.91e-4, 2.45e-4, ORDER_1),
        "immune-decay": (2.76e-7, 1.38e-7, ORDER_1),
        "disease-free-tracking": (8.28e-14, 7.48e-14, ANY),
    }

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_error_against_continuous_reference(self, name):
        coarse, fine, (low, high) = self.FLOORS[name]
        errors = []
        for dt in (0.02, 0.01):
            traj = integrate(replace(build_preset(name), horizon=200.0, dt=dt))
            assert traj.status is RunStatus.OK
            assert traj.reset_counts.sum() == 0
            gap = np.abs(traj.states - continuous_reference(traj)).max(axis=1)
            errors.append(float((gap / traj.N).max()))
        assert errors[0] <= 1.5 * coarse and errors[1] <= 1.5 * fine, errors
        assert low <= np.log2(errors[0] / errors[1]) <= high, errors


class TestNearFloatCeiling:
    @pytest.mark.xfail(
        strict=True,
        reason="the incidence product beta * S * I / N overflows to inf at "
        "the second RK4 stage (S = 1e305, I = 9.5e307), so a finite, "
        "shrinking population ends blowup after one row. Reordering the "
        "product would not mend it: with a finite incidence, each stage's "
        "dI is about -0.96e308 and the RK4 update's 2.0 * (d2I + d3I) "
        "overflows to -inf next",
    )
    def test_shrinking_population_near_the_float_maximum_runs(self):
        p = ModelParams(mu=0.01, omega=0.0, beta=1.0, sigma=0.5, gamma=1.0,
                        rho=1.0, nu=0.02)
        sc = ScenarioConfig(
            params=p, x0=StateVec(0.0, 0.0, 1e308, 0.0),
            control=ControlConfig(law=VaccinationLaw.NONE),
            horizon=1.0, dt=0.1,
        )
        # dN/dt = (nu - mu) N - rho gamma I < 0 from the start
        traj = integrate(sc)
        assert traj.status is RunStatus.OK
        assert len(traj.t) == 11
        assert traj.N[-1] < traj.N[0]

    @pytest.mark.xfail(
        strict=True,
        reason="the vector field's incidence beta * S * I / N (model.py:133) overflows "
        "to inf at t = 0, as S*I = 1e310, so a run from S = I = 1e155 ends "
        "blowup after one row under either law; spelled beta * (I / N) * S it is finite",
    )
    def test_outbreak_of_1e155_people_runs(self):
        for law in (VaccinationLaw.NONE, VaccinationLaw.SATURATED):
            sc = ScenarioConfig(
                params=BASELINE_PARAMS, x0=StateVec(1e155, 0.0, 1e155, 0.0),
                control=ControlConfig(law=law), horizon=1.0, dt=0.1,
            )
            traj = integrate(sc)
            assert traj.status is RunStatus.OK, law
            assert len(traj) == 11


class TestReferenceTracking:
    def test_disease_free_tracking_converges_to_full_immunity(self, preset_runs):
        # criterion 8: immune pool follows its target to within 1e-6
        # everywhere and ends at essentially full population coverage
        traj = preset_runs["disease-free-tracking"]
        assert traj.status is RunStatus.OK
        rel = np.abs(traj.R - traj.R_star) / traj.R_star
        assert rel.max() < 1e-6
        assert traj.R[-1] / traj.N[-1] >= 0.999


class TestMetzlerScan:
    def test_scan_agrees_with_brute_force(self):
        # criterion 9: the report must equal a literal off-diagonal scan
        # across random admissible parameters and states, every variant
        rng = np.random.default_rng(424243)
        for _ in range(1000):
            p = ModelParams(
                mu=float(rng.uniform(0.0, 2.0)),
                omega=float(rng.uniform(0.0, 2.0)),
                beta=float(rng.uniform(0.0, 2.0)),
                sigma=float(rng.uniform(0.0, 2.0)),
                gamma=float(rng.uniform(0.0, 2.0)),
                rho=float(rng.uniform(0.0, 1.0)),
                nu=float(rng.uniform(0.0, 2.0)),
            )
            x = random_state(rng)
            for variant in MatrixVariant:
                m = build_matrix(p, x, variant)
                report = check_metzler(m)
                brute = tuple(
                    (i, j, float(m[i, j]))
                    for i in range(4)
                    for j in range(4)
                    if i != j and m[i, j] < 0.0
                )
                assert report.violating_entries == brute
                assert report.is_metzler == (not brute)


class TestIntegratorOrder:
    def test_fourth_order_against_matrix_exponential(self, outbreak_x0):
        # criterion 10: with transmission off the model is linear, so the
        # exact solution is a matrix exponential; step halving must cut the
        # terminal error by about 2^4
        p = replace(BASELINE_PARAMS, beta=0.0)
        m = build_matrix(
            p, outbreak_x0, MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH
        )
        horizon = 50.0
        exact = scipy.linalg.expm(m * horizon) @ np.asarray(outbreak_x0, dtype=float)

        errors = []
        for dt in (0.4, 0.2, 0.1, 0.05):
            sc = ScenarioConfig(
                params=p, x0=outbreak_x0,
                control=ControlConfig(law=VaccinationLaw.NONE),
                horizon=horizon, dt=dt,
            )
            traj = integrate(sc)
            assert traj.status is RunStatus.OK
            err = np.abs(np.asarray(traj.terminal_state(), dtype=float) - exact).max()
            errors.append(err)
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0
