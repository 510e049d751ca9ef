"""Stability predicates and the population/infectious integral check."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seirvax import (
    ConditionCheck,
    MatrixVariant,
    ModelParams,
    StabilityCriterion,
    StabilityVerdict,
    integral_test,
    metzler_parameter_criterion,
    standard_verdicts,
)

from conftest import rate


def _by_name(verdict, name):
    matches = [c for c in verdict.conditions if c.name == name]
    assert len(matches) == 1, f"{name!r} not found once in {verdict.conditions}"
    return matches[0]


class TestPopulationNonincreasing:
    def test_growing_population_fails(self, params):
        verdict = standard_verdicts(params)[0]
        assert verdict.criterion is StabilityCriterion.POPULATION_NONINCREASING
        assert verdict.criterion.value == "T2"
        assert not verdict.hypothesis_holds
        bad = _by_name(verdict, "nu <= mu")
        assert not bad.satisfied
        assert bad.lhs == params.nu and bad.rhs == params.mu
        # the only failing inequality is the birth/death balance
        assert all(c.satisfied for c in verdict.conditions if c is not bad)

    def test_small_birth_rate_holds(self, params):
        verdict = standard_verdicts(replace(params, nu=0.001))[0]
        assert verdict.hypothesis_holds and verdict.applicable

    def test_constant_population_note(self, params):
        balanced = replace(params, nu=params.mu, rho=0.0)
        verdict = standard_verdicts(balanced)[0]
        assert verdict.hypothesis_holds
        assert any("constant" in note for note in verdict.notes)
        # mortality channel active: no special note
        verdict = standard_verdicts(replace(params, nu=params.mu))[0]
        assert verdict.hypothesis_holds and verdict.notes == ()


class TestMortalityAbsorbsGrowth:
    def test_endemic_parameters_hold(self, params):
        verdict = standard_verdicts(params)[1]
        assert verdict.criterion.value == "T3_necessary"
        assert verdict.applicable and verdict.hypothesis_holds
        check = _by_name(verdict, "gamma >= (nu - mu)/rho")
        assert check.rhs == pytest.approx(0.027450980392156862, rel=1e-12)
        assert check.lhs == params.gamma

    def test_no_mortality_channel_fails(self, params):
        verdict = standard_verdicts(replace(params, rho=0.0))[1]
        assert verdict.applicable and not verdict.hypothesis_holds
        assert not _by_name(verdict, "rho > 0").satisfied
        assert all(c.name != "gamma >= (nu - mu)/rho" for c in verdict.conditions)

    def test_not_applicable_when_births_balanced(self, params):
        verdict = standard_verdicts(replace(params, nu=params.mu))[1]
        assert not verdict.applicable
        assert not verdict.hypothesis_holds
        assert verdict.notes
        # applicable carries the standing assumption; no condition repeats it
        assert [c.name for c in verdict.conditions] == ["rho > 0", "gamma >= (nu - mu)/rho"]

    def test_boundary_gamma_exactly_at_threshold(self):
        p = ModelParams(mu=0.01, omega=0.1, beta=1.0, sigma=0.5, gamma=0.02,
                        rho=0.5, nu=0.02)
        verdict = standard_verdicts(p)[1]
        assert verdict.hypothesis_holds  # >= is inclusive


class TestUnforcedBoundedness:
    def test_case_one(self, params):
        failing = standard_verdicts(params)[3]
        assert failing.criterion.value == "T4_case1"
        assert not failing.hypothesis_holds
        assert not _by_name(failing, "nu <= mu").satisfied

        holding = standard_verdicts(replace(params, nu=params.mu))[3]
        assert holding.hypothesis_holds

    def test_case_two(self, params):
        failing = standard_verdicts(params)[4]
        assert failing.criterion.value == "T4_case2"
        assert not failing.hypothesis_holds
        assert not _by_name(failing, "mu > 4*beta + nu").satisfied

        p = ModelParams(mu=0.01, omega=0.1, beta=0.001, sigma=0.4, gamma=0.4,
                        rho=0.1, nu=0.002)
        holding = standard_verdicts(p)[4]
        assert holding.hypothesis_holds


def _synthetic_unforced_decay(params, horizon=50.0, dt=0.05, i_const=0.0):
    """Closed form with a constant infectious count i_const: dN/dt =
    (nu - mu)N - rho*gamma*i_const from N(0) = 1000. Disease-free (I
    identically zero) by default, when N grows exponentially."""
    t = np.arange(0.0, horizon + 0.5 * dt, dt)
    n0 = 1000.0
    growth = np.exp((params.nu - params.mu) * t)
    n = n0 * growth
    if i_const:
        n -= params.rho * params.gamma * i_const * (growth - 1.0) / (params.nu - params.mu)
    return SimpleNamespace(
        t=t, I=np.full_like(t, i_const), N=n, dt=dt, scenario=SimpleNamespace(params=params)
    )


def _balanced_run(params):
    """The infectious count whose disease deaths balance the excess births
    at N = 1000: the total stays put and the run is consistent."""
    i_const = (params.nu - params.mu) * 1000.0 / (params.rho * params.gamma)
    return _synthetic_unforced_decay(params, i_const=i_const)


class TestIntegralIdentity:
    def test_requires_growing_births(self, params):
        p = replace(params, nu=params.mu)
        verdict = integral_test(_synthetic_unforced_decay(p))
        assert verdict == standard_verdicts(p)[2]
        assert not verdict.applicable and not verdict.hypothesis_holds

    def test_requires_two_samples(self, params):
        traj = _synthetic_unforced_decay(params, horizon=0.0)
        assert len(traj.t) == 1
        assert integral_test(traj) == standard_verdicts(params)[2]

    def test_disease_free_growth_is_flagged_inconsistent(self, params):
        # With I identically zero the weighted population is exactly
        # conserved pointwise, yet the horizon residual equals N(0) while
        # the tail bound is zero: unbounded growth is correctly refused.
        verdict = integral_test(_synthetic_unforced_decay(params))
        assert verdict.applicable and not verdict.hypothesis_holds
        pointwise, horizon = verdict.conditions
        assert pointwise.lhs == pytest.approx(0.0, abs=1e-9)
        assert pointwise.rhs == 1.0 and pointwise.satisfied
        assert horizon.lhs == pytest.approx(1000.0, rel=1e-12)
        assert horizon.rhs == 1.0  # tail bound 0 plus tol*N(0)
        assert not horizon.satisfied

    def test_verdict_from_a_consistent_run(self, params):
        traj = _balanced_run(params)
        verdict = integral_test(traj)
        assert verdict.criterion.value == "T3_integral"
        assert verdict.hypothesis_holds and verdict.applicable
        assert verdict.notes == ()
        pointwise, horizon = verdict.conditions
        assert pointwise.name == "max pointwise identity residual <= tol*N(0)"
        assert horizon.name == "|N(0) - integral| <= tail bound + tol*N(0)"
        assert pointwise.lhs < 1e-6 and pointwise.rhs == 1.0
        # the horizon residual is the undecayed mass 1000 e^{(mu-nu)T}, and
        # at the balancing I the tail bound equals it
        mass = 1000.0 * np.exp((params.mu - params.nu) * traj.t[-1])
        assert horizon.lhs == pytest.approx(mass, rel=1e-6)
        assert horizon.rhs == pytest.approx(mass + 1.0, rel=1e-12)
        # either inequality alone breaks the verdict: a pointwise excursion
        # of 2 people one step in, then the disease-free run above
        traj.N[1] += 2.0
        pointwise, horizon = integral_test(traj).conditions
        assert not pointwise.satisfied and horizon.satisfied
        assert not integral_test(traj).hypothesis_holds
        pointwise, horizon = integral_test(_synthetic_unforced_decay(params)).conditions
        assert pointwise.satisfied and not horizon.satisfied


class TestStandardVerdicts:
    def test_stable_order_and_titles(self, params):
        verdicts = standard_verdicts(params)
        assert [v.criterion.value for v in verdicts] == [
            "T2", "T3_necessary", "T3_integral", "T4_case1", "T4_case2"
        ]
        for v in verdicts:
            assert isinstance(v.title, str) and v.title

    def test_no_run_is_not_applicable(self, params):
        # no run to check: N/A, nothing judged
        verdict = standard_verdicts(params)[2]
        assert not verdict.applicable and not verdict.hypothesis_holds
        assert verdict.conditions == ()
        assert verdict.notes == ("no trajectory diagnostic available",)

    def test_integral_verdict_threaded_through(self, params):
        integral = integral_test(_balanced_run(params))
        verdicts = standard_verdicts(params, integral)
        assert verdicts[2] is integral and verdicts[2].hypothesis_holds

    def test_hypothesis_holds_is_all_conditions(self, params):
        integrals = (
            None,
            integral_test(_balanced_run(params)),
            integral_test(_synthetic_unforced_decay(params)),
        )
        for p in (params, replace(params, nu=params.mu), replace(params, mu=0.0)):
            for integral in integrals:
                for v in standard_verdicts(p, integral):
                    assert v.hypothesis_holds == (
                        v.applicable and all(c.satisfied for c in v.conditions)
                    ), v.criterion
        # a verdict that does not apply never holds, even on satisfied conditions
        t3 = standard_verdicts(replace(params, nu=params.mu))[1]
        assert all(c.satisfied for c in t3.conditions)
        assert not t3.applicable and not t3.hypothesis_holds
        # the flag is derived, so a verdict cannot be built disagreeing with it
        verdict = standard_verdicts(params)[0]
        with pytest.raises(TypeError):
            StabilityVerdict(
                criterion=verdict.criterion,
                hypothesis_holds=not verdict.hypothesis_holds,
                conditions=verdict.conditions,
            )


@st.composite
def admissible_rates(draw):
    """The seven rates, with the edges of the paper's statements drawn
    often: signed zeros, nu = mu, nu = beta, rho in {0, 1} and gamma at
    its threshold (nu - mu)/rho."""
    zero = st.sampled_from([0.0, -0.0])
    mu = draw(st.one_of(zero, rate(0.0, 0.1)))
    beta = draw(st.one_of(zero, rate(0.0, 0.02), rate(0.0, 2.0)))
    nu = draw(st.one_of(zero, st.just(mu), st.just(beta), rate(0.0, 0.2)))
    rho = draw(st.one_of(st.sampled_from([0.0, 1.0]), rate(0.0, 1.0)))
    gammas = [zero, rate(0.0, 1.0)]
    if rho > 0.0 and 0.0 <= (nu - mu) / rho < np.inf:
        gammas.append(st.just((nu - mu) / rho))
    return ModelParams(
        mu=mu, omega=draw(st.one_of(zero, rate(0.0, 1.0))), beta=beta,
        sigma=draw(st.one_of(zero, rate(0.0, 1.0))), gamma=draw(st.one_of(*gammas)),
        rho=rho, nu=nu,
    )


class TestGeneratedRates:
    """Each verdict, and the Metzler criterion, equals the paper's
    statement on generated admissible rates."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(p=admissible_rates())
    # T4_case2 holding, and gamma exactly at T3's threshold
    @example(p=ModelParams(mu=0.01, omega=0.1, beta=0.001, sigma=0.4, gamma=0.4,
                           rho=0.1, nu=0.002))
    @example(p=ModelParams(mu=0.01, omega=0.1, beta=1.0, sigma=0.5, gamma=0.02,
                           rho=0.5, nu=0.02))
    def test_verdicts_are_the_papers_statements(self, p):
        t2, t3, t3_integral, case1, case2 = standard_verdicts(p)
        growing = p.nu > p.mu
        assert (t2.applicable, t2.hypothesis_holds) == (True, p.nu <= p.mu)
        assert (t3.applicable, t3.hypothesis_holds) == (
            growing, growing and p.rho > 0.0 and p.gamma >= (p.nu - p.mu) / p.rho
        )
        # no run is given, so the integral identity never applies
        assert (t3_integral.applicable, t3_integral.hypothesis_holds) == (False, False)
        assert (case1.applicable, case1.hypothesis_holds) == (
            True, p.mu > 0.0 and p.nu <= p.mu
        )
        assert (case2.applicable, case2.hypothesis_holds) == (
            True, p.mu > 0.0 and p.mu > 4.0 * p.beta + p.nu and p.nu > p.beta
        )
        # mu > 4*beta + nu with beta >= 0 gives nu < mu: case 2 implies
        # case 1, whose conclusion is T2's, so T2's run oracle covers both
        assert case1.hypothesis_holds or not case2.hypothesis_holds
        # T2 and T4_case1 judge the same birth/death balance, and both T4
        # cases the same mortality floor
        assert t2.conditions == case1.conditions[1:] == (
            ConditionCheck("nu <= mu", p.nu, p.mu, p.nu <= p.mu),
        )
        assert case1.conditions[0] == case2.conditions[0] == (
            ConditionCheck("mu > 0", p.mu, 0.0, p.mu > 0.0)
        )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(p=admissible_rates())
    def test_metzler_criterion_is_the_papers_statement(self, p):
        # only the contact drain -beta*S/N can leave the diagonal negative:
        # a birth variant lifts it by nu, the others need beta = 0
        for variant in MatrixVariant:
            drain_in_i = variant.base in (
                MatrixVariant.BILINEAR_VIA_I, MatrixVariant.SPLIT_DRAIN_I_GAIN_S
            )
            lifted = p.nu >= p.beta if variant.includes_birth_term else p.beta == 0.0
            assert metzler_parameter_criterion(p, variant) is (not drain_in_i or lifted)
