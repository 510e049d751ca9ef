"""Boundedness/stability predicates on the model parameters, plus the
trajectory-level integral check that ties the simulated population decay
to the infectious history.

standard_verdicts builds the five verdicts a report carries, taking the
run-level one from integral_test. Each StabilityVerdict carries every
inequality it evaluated, so reports can show exactly which condition
failed; whether the hypothesis holds is derived from those conditions,
never stored. A verdict whose standing assumption fails, or that has no
run to check, is not applicable and never holds. Verdict ids (the enum
values) are stable strings used in machine-readable output.

The paper states these theorems for admissible rates (all nonnegative, rho
in [0, 1]). ModelParams refuses any other rate set when it is built, so the
verdicts list only the conditions an admissible rate set can fail.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .model import ModelParams

# integral_test's tolerance on the pointwise identity residual, relative to N(0).
POINTWISE_TOL = 1e-3


class StabilityCriterion(enum.Enum):
    # Total population nonincreasing: holds iff nu <= mu. Then
    # dN/dt = (nu - mu)N - rho*gamma*I <= 0 for nonnegative states, so N
    # never exceeds N(0) and every compartment stays bounded.
    POPULATION_NONINCREASING = "T2"
    # Necessary condition for boundedness when births outpace deaths. Its
    # standing assumption nu > mu is the applicable flag; with it,
    # boundedness requires rho > 0 and gamma >= (nu - mu)/rho (the disease
    # mortality channel must be able to drain the net inflow).
    MORTALITY_ABSORBS_GROWTH = "T3_necessary"
    # Finite-horizon quadrature check of the exact population/infectious
    # integral identity (the "if and only if" characterization alongside
    # the necessary condition above), evaluated on a run by integral_test.
    POPULATION_INTEGRAL_IDENTITY = "T3_integral"
    # Boundedness of the vaccination-free system, two alternative cases,
    # both needing mu > 0. Low-birth case: nu <= mu.
    BOUNDED_SMALL_BIRTH = "T4_case1"
    # Dominant-mortality case: mu > 4*beta + nu and nu > beta. The paper's
    # alternative clause max(sigma, gamma) < -mu is not evaluated: no
    # admissible rate set can satisfy it.
    BOUNDED_DOMINANT_MORTALITY = "T4_case2"


class ConditionCheck(NamedTuple):
    """One evaluated inequality: `name` relates lhs to rhs."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool


class StabilityVerdict(NamedTuple):
    criterion: StabilityCriterion
    conditions: tuple[ConditionCheck, ...]
    # False when a standing assumption fails, or the criterion needs a run
    # and has none: the criterion then says nothing.
    applicable: bool = True
    notes: tuple[str, ...] = ()

    @property
    def hypothesis_holds(self) -> bool:
        """The verdict is exactly its conditions, where it applies."""
        return self.applicable and all(c.satisfied for c in self.conditions)

    @property
    def title(self) -> str:
        return _CRITERION_TITLES[self.criterion]


_CRITERION_TITLES = {
    StabilityCriterion.POPULATION_NONINCREASING:
        "population nonincreasing (births at or below deaths)",
    StabilityCriterion.MORTALITY_ABSORBS_GROWTH:
        "disease mortality absorbs excess births (necessary condition)",
    StabilityCriterion.POPULATION_INTEGRAL_IDENTITY:
        "population/infectious-history integral identity",
    StabilityCriterion.BOUNDED_SMALL_BIRTH:
        "unforced boundedness, low-birth case",
    StabilityCriterion.BOUNDED_DOMINANT_MORTALITY:
        "unforced boundedness, dominant-mortality case",
}


def _cond(name: str, lhs: float, rhs: float, satisfied: bool) -> ConditionCheck:
    return ConditionCheck(name, float(lhs), float(rhs), bool(satisfied))


# T3_integral without a run to check, or where the identity does not apply
_INTEGRAL_NOT_APPLICABLE = StabilityVerdict(
    criterion=StabilityCriterion.POPULATION_INTEGRAL_IDENTITY,
    conditions=(),
    applicable=False,
    notes=("no trajectory diagnostic available",),
)


def integral_test(traj) -> StabilityVerdict:
    """The T3_integral verdict: a quadrature check of the identity

        e^{(mu-nu) t} N(t) = N(0) - rho*gamma * int_0^t e^{(mu-nu) tau} I dtau,

    which the continuous system satisfies exactly for nu > mu.

    Reads the run's own rates (`traj.scenario.params`) and step (`traj.dt`)
    with its sample times `t`, infectious counts `I` and totals `N`, which
    lie on the uniform grid t_k = k*dt as every Trajectory's do. The
    verdict is not applicable unless births outpace deaths (nu > mu) and
    the run recorded at least two samples. Uses trapezoidal quadrature on
    that grid. Its two conditions, with tol = POINTWISE_TOL: the largest
    pointwise identity residual along the run, in absolute population
    units, is at most tol*N(0); and the horizon residual |N(0) - integral|,
    the undecayed mass e^{(mu-nu)T} N(T), is at most the tail bound
    rho*gamma*max(I)*e^{(mu-nu)T}/(nu - mu) plus tol*N(0).
    """
    params = traj.scenario.params
    t = np.asarray(traj.t, dtype=float)
    if params.nu <= params.mu or t.size < 2:
        return _INTEGRAL_NOT_APPLICABLE
    i_pop = np.asarray(traj.I, dtype=float)
    n_pop = np.asarray(traj.N, dtype=float)
    dt = traj.dt

    n0 = float(n_pop[0])
    # three scratch columns written in place: the weight, whose exp runs on
    # a contiguous buffer as it always has, the integrand and the trapezoid
    weight = np.multiply(params.mu - params.nu, t)
    np.exp(weight, out=weight)
    integrand = np.multiply(params.rho * params.gamma, weight)
    np.multiply(integrand, i_pop, out=integrand)
    # cumulative trapezoid on the uniform grid, rhs_t[0] = 0
    rhs_t = np.empty_like(integrand)
    rhs_t[0] = 0.0
    steps = rhs_t[1:]
    np.add(integrand[1:], integrand[:-1], out=steps)
    np.multiply(0.5 * dt, steps, out=steps)
    np.cumsum(steps, out=steps)
    rhs = float(rhs_t[-1])
    pointwise = np.multiply(weight, n_pop, out=weight)
    np.subtract(pointwise, np.subtract(n0, rhs_t, out=rhs_t), out=pointwise)
    max_pointwise = float(np.abs(pointwise, out=pointwise).max())

    i_max = float(i_pop.max(initial=0.0))
    tail_bound = (
        params.rho * params.gamma * i_max
        * float(np.exp((params.mu - params.nu) * float(t[-1])))
        / (params.nu - params.mu)
    )
    tol_abs = POINTWISE_TOL * n0
    horizon_residual = abs(n0 - rhs)
    return StabilityVerdict(
        criterion=StabilityCriterion.POPULATION_INTEGRAL_IDENTITY,
        conditions=(
            _cond(
                "max pointwise identity residual <= tol*N(0)",
                max_pointwise, tol_abs, max_pointwise <= tol_abs,
            ),
            _cond(
                "|N(0) - integral| <= tail bound + tol*N(0)",
                horizon_residual, tail_bound + tol_abs,
                horizon_residual <= tail_bound + tol_abs,
            ),
        ),
    )


def standard_verdicts(params: ModelParams, integral: StabilityVerdict | None = None):
    """The five verdicts every report carries, in stable order; integral is
    the run's integral_test verdict, not applicable when there is no run.
    Each criterion's statement is at its StabilityCriterion member."""
    mu, nu, rho, gamma, beta = params.mu, params.nu, params.rho, params.gamma, params.beta
    small_birth = _cond("nu <= mu", nu, mu, nu <= mu)
    has_mortality = _cond("mu > 0", mu, 0.0, mu > 0.0)
    constant = ()
    if mu == nu and (rho == 0.0 or gamma == 0.0):
        constant = (
            "population is exactly constant: births balance deaths and the "
            "disease mortality channel is off",
        )
    absorbs = (_cond("rho > 0", rho, 0.0, rho > 0.0),)
    if rho > 0.0:
        threshold = (nu - mu) / rho
        absorbs += (_cond("gamma >= (nu - mu)/rho", gamma, threshold, gamma >= threshold),)
    growing = nu > mu
    bound = 4.0 * beta + nu
    return (
        StabilityVerdict(StabilityCriterion.POPULATION_NONINCREASING, (small_birth,),
                         notes=constant),
        StabilityVerdict(
            StabilityCriterion.MORTALITY_ABSORBS_GROWTH, absorbs, applicable=growing,
            notes=() if growing else ("births do not exceed deaths; criterion says nothing",),
        ),
        _INTEGRAL_NOT_APPLICABLE if integral is None else integral,
        StabilityVerdict(StabilityCriterion.BOUNDED_SMALL_BIRTH, (has_mortality, small_birth)),
        StabilityVerdict(StabilityCriterion.BOUNDED_DOMINANT_MORTALITY, (
            has_mortality,
            _cond("mu > 4*beta + nu", mu, bound, mu > bound),
            _cond("nu > beta", nu, beta, nu > beta),
        )),
    )
