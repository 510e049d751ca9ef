"""Stability predicates and the population/infectious integral check."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from seirvax import (
    IntegralDiagnostic,
    ModelParams,
    StabilityCriterion,
    StabilityVerdict,
    check_mortality_absorbs_growth,
    check_population_nonincreasing,
    check_unforced_boundedness,
    integral_test,
    integral_verdict,
    standard_verdicts,
)
from seirvax.errors import NonUniformGridError, NotApplicableError


def _by_name(verdict, name):
    matches = [c for c in verdict.conditions if c.name == name]
    assert len(matches) == 1, f"{name!r} not found once in {verdict.conditions}"
    return matches[0]


class TestPopulationNonincreasing:
    def test_growing_population_fails(self, params):
        verdict = check_population_nonincreasing(params)
        assert verdict.criterion is StabilityCriterion.POPULATION_NONINCREASING
        assert verdict.criterion.value == "T2"
        assert not verdict.hypothesis_holds
        bad = _by_name(verdict, "nu <= mu")
        assert not bad.satisfied
        assert bad.lhs == params.nu and bad.rhs == params.mu
        # the only failing inequality is the birth/death balance
        assert all(c.satisfied for c in verdict.conditions if c is not bad)

    def test_small_birth_rate_holds(self, params):
        verdict = check_population_nonincreasing(replace(params, nu=0.001))
        assert verdict.hypothesis_holds and verdict.applicable

    def test_constant_population_note(self, params):
        balanced = replace(params, nu=params.mu, rho=0.0)
        verdict = check_population_nonincreasing(balanced)
        assert verdict.hypothesis_holds
        assert any("constant" in note for note in verdict.notes)
        # mortality channel active: no special note
        verdict = check_population_nonincreasing(replace(params, nu=params.mu))
        assert verdict.hypothesis_holds and verdict.notes == ()


class TestMortalityAbsorbsGrowth:
    def test_endemic_parameters_hold(self, params):
        verdict = check_mortality_absorbs_growth(params)
        assert verdict.criterion.value == "T3_necessary"
        assert verdict.applicable and verdict.hypothesis_holds
        check = _by_name(verdict, "gamma >= (nu - mu)/rho")
        assert check.rhs == pytest.approx(0.027450980392156862, rel=1e-12)
        assert check.lhs == params.gamma

    def test_no_mortality_channel_fails(self, params):
        verdict = check_mortality_absorbs_growth(replace(params, rho=0.0))
        assert verdict.applicable and not verdict.hypothesis_holds
        assert not _by_name(verdict, "rho > 0").satisfied
        assert all(c.name != "gamma >= (nu - mu)/rho" for c in verdict.conditions)

    def test_not_applicable_when_births_balanced(self, params):
        verdict = check_mortality_absorbs_growth(replace(params, nu=params.mu))
        assert not verdict.applicable
        assert not verdict.hypothesis_holds
        assert verdict.notes

    def test_boundary_gamma_exactly_at_threshold(self):
        p = ModelParams(mu=0.01, omega=0.1, beta=1.0, sigma=0.5, gamma=0.02,
                        rho=0.5, nu=0.02)
        verdict = check_mortality_absorbs_growth(p)
        assert verdict.hypothesis_holds  # >= is inclusive


class TestUnforcedBoundedness:
    def test_case_one(self, params):
        failing = check_unforced_boundedness(params, 1)
        assert failing.criterion.value == "T4_case1"
        assert not failing.hypothesis_holds
        assert not _by_name(failing, "nu <= mu").satisfied

        holding = check_unforced_boundedness(replace(params, nu=params.mu), 1)
        assert holding.hypothesis_holds

    def test_case_two(self, params):
        failing = check_unforced_boundedness(params, 2)
        assert failing.criterion.value == "T4_case2"
        assert not failing.hypothesis_holds
        assert not _by_name(failing, "mu > 4*beta + nu").satisfied

        p = ModelParams(mu=0.01, omega=0.1, beta=0.001, sigma=0.4, gamma=0.4,
                        rho=0.1, nu=0.002)
        holding = check_unforced_boundedness(p, 2)
        assert holding.hypothesis_holds

    def test_case_out_of_range(self, params):
        with pytest.raises(ValueError):
            check_unforced_boundedness(params, 3)

    def test_impossible_clause_reported_as_flag_only(self, params):
        p = ModelParams(mu=0.01, omega=0.1, beta=0.001, sigma=0.4, gamma=0.4,
                        rho=0.1, nu=0.002)
        for case in (1, 2):
            verdict = check_unforced_boundedness(p if case == 2 else params, case)
            assert len(verdict.flags) == 1
            flag = verdict.flags[0]
            assert not flag.satisfied  # never holds for nonnegative rates
            assert flag.rhs == -(p.mu if case == 2 else params.mu)
        # the flag does not drag the hypothesis down
        assert check_unforced_boundedness(p, 2).hypothesis_holds


def _synthetic_unforced_decay(params, horizon=50.0, dt=0.05):
    """Disease-free closed form: N grows exponentially, I stays zero."""
    t = np.arange(0.0, horizon + 0.5 * dt, dt)
    n0 = 1000.0
    n = n0 * np.exp((params.nu - params.mu) * t)
    return SimpleNamespace(t=t, I=np.zeros_like(t), N=n)


class TestIntegralIdentity:
    def test_requires_growing_births(self, params):
        traj = _synthetic_unforced_decay(params)
        with pytest.raises(NotApplicableError):
            integral_test(traj, replace(params, nu=params.mu))

    def test_grid_validation(self, params):
        with pytest.raises(NonUniformGridError):
            integral_test(
                SimpleNamespace(t=[0.0], I=[0.0], N=[1.0]), params
            )
        with pytest.raises(NonUniformGridError):
            integral_test(
                SimpleNamespace(t=[0.0, 0.1, 0.3], I=[0.0] * 3, N=[1.0] * 3),
                params,
            )

    def test_disease_free_growth_is_flagged_inconsistent(self, params):
        # With I identically zero the weighted population is exactly
        # conserved pointwise, yet the horizon residual equals N(0) while
        # the tail bound is zero: unbounded growth is correctly refused.
        traj = _synthetic_unforced_decay(params)
        diag = integral_test(traj, params)
        assert diag.rhs == 0.0
        assert diag.max_pointwise_residual == pytest.approx(0.0, abs=1e-9)
        assert diag.residual == pytest.approx(1000.0, rel=1e-12)
        assert diag.tail_bound == 0.0
        assert not diag.consistent

    def test_verdict_from_diagnostic(self, params):
        diag = IntegralDiagnostic(
            horizon=100.0, lhs=1000.0, rhs=990.0, residual=10.0,
            max_pointwise_residual=0.5, tail_bound=50.0, pointwise_tol=1e-3,
        )
        assert diag.consistent
        verdict = integral_verdict(params, diag)
        assert verdict.criterion.value == "T3_integral"
        assert verdict.hypothesis_holds and verdict.applicable
        assert verdict.conditions == diag.conditions
        pointwise, horizon = diag.conditions
        assert (pointwise.lhs, pointwise.rhs) == (0.5, 1.0)
        assert (horizon.lhs, horizon.rhs) == (10.0, 51.0)
        # either inequality alone breaks consistency and the verdict
        for broken in (replace(diag, max_pointwise_residual=1.5),
                       replace(diag, residual=-51.5)):
            assert not broken.consistent
            assert not integral_verdict(params, broken).hypothesis_holds

    def test_verdict_without_diagnostic(self, params):
        verdict = integral_verdict(params, None)
        assert not verdict.hypothesis_holds
        assert verdict.applicable  # nu > mu, just no trajectory
        assert verdict.notes

        balanced = replace(params, nu=params.mu)
        verdict = integral_verdict(balanced, None)
        assert not verdict.applicable


class TestStandardVerdicts:
    def test_stable_order_and_titles(self, params):
        verdicts = standard_verdicts(params)
        assert [v.criterion.value for v in verdicts] == [
            "T2", "T3_necessary", "T3_integral", "T4_case1", "T4_case2"
        ]
        for v in verdicts:
            assert isinstance(v.title, str) and v.title

    def test_diagnostic_threaded_through(self, params):
        diag = IntegralDiagnostic(
            horizon=1.0, lhs=1.0, rhs=1.0, residual=0.0,
            max_pointwise_residual=0.0, tail_bound=1.0, pointwise_tol=1e-3,
        )
        verdicts = standard_verdicts(params, diag)
        assert verdicts[2].hypothesis_holds

    def test_hypothesis_holds_is_all_conditions(self, params):
        diags = (
            None,
            IntegralDiagnostic(
                horizon=1.0, lhs=1.0, rhs=1.0, residual=0.0,
                max_pointwise_residual=0.0, tail_bound=1.0, pointwise_tol=1e-3,
            ),
            IntegralDiagnostic(
                horizon=1.0, lhs=1.0, rhs=0.0, residual=1.0,
                max_pointwise_residual=0.0, tail_bound=0.0, pointwise_tol=1e-3,
            ),
        )
        for p in (params, replace(params, nu=params.mu), replace(params, mu=0.0)):
            for diag in diags:
                for v in standard_verdicts(p, diag):
                    assert v.hypothesis_holds == all(
                        c.satisfied for c in v.conditions
                    ), v.criterion
        # the flag is derived, so a verdict cannot be built disagreeing with it
        verdict = standard_verdicts(params)[0]
        with pytest.raises(TypeError):
            StabilityVerdict(
                criterion=verdict.criterion,
                hypothesis_holds=not verdict.hypothesis_holds,
                conditions=verdict.conditions,
            )
