"""Boundedness/stability predicates on the model parameters, plus an
integral diagnostic that ties the simulated population decay to the
infectious history.

Each predicate returns a StabilityVerdict carrying every inequality it
evaluated, so reports can show exactly which condition failed; whether the
hypothesis holds is derived from those conditions, never stored. Verdict ids
(the enum values) are stable strings used in machine-readable output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NonUniformGridError, NotApplicableError
from .model import ModelParams

# integral_test's tolerance on the pointwise identity residual, relative to N(0).
POINTWISE_TOL = 1e-3


class StabilityCriterion(enum.Enum):
    # Total population nonincreasing (births at or below deaths): every
    # trajectory stays bounded by N(0).
    POPULATION_NONINCREASING = "T2"
    # With births exceeding deaths, boundedness needs the disease mortality
    # channel to absorb the excess growth: gamma >= (nu - mu)/rho.
    MORTALITY_ABSORBS_GROWTH = "T3_necessary"
    # Finite-horizon quadrature check of the exact population/infectious
    # integral identity (the "if and only if" characterization alongside
    # the necessary condition above).
    POPULATION_INTEGRAL_IDENTITY = "T3_integral"
    # Unforced boundedness, low-birth case: 0 <= nu <= mu.
    BOUNDED_SMALL_BIRTH = "T4_case1"
    # Unforced boundedness, dominant-mortality case: mu > 4*beta + nu and
    # nu > beta >= 0.
    BOUNDED_DOMINANT_MORTALITY = "T4_case2"


@dataclass(frozen=True)
class ConditionCheck:
    """One evaluated inequality: `name` relates lhs to rhs."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class StabilityVerdict:
    criterion: StabilityCriterion
    conditions: tuple[ConditionCheck, ...]
    # False when a standing assumption fails and the criterion says nothing.
    applicable: bool = True
    notes: tuple[str, ...] = ()
    # Informational checks excluded from hypothesis_holds (e.g. clauses
    # that can never hold for admissible rates and exist only to be shown).
    flags: tuple[ConditionCheck, ...] = ()

    @property
    def hypothesis_holds(self) -> bool:
        """The verdict is exactly its conditions."""
        return all(c.satisfied for c in self.conditions)

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


def _rate_sign_conditions(p: ModelParams) -> list[ConditionCheck]:
    m = min(p.beta, p.sigma, p.omega, p.gamma)
    return [
        _cond("min(beta, sigma, omega, gamma) >= 0", m, 0.0, m >= 0.0),
        _cond("rho >= 0", p.rho, 0.0, p.rho >= 0.0),
        _cond("rho <= 1", p.rho, 1.0, p.rho <= 1.0),
    ]


def check_population_nonincreasing(params: ModelParams) -> StabilityVerdict:
    """Holds iff 0 <= nu <= mu with admissible remaining rates.

    Then dN/dt = (nu - mu)N - rho*gamma*I <= 0 for nonnegative states, so N
    never exceeds N(0) and every compartment stays bounded.
    """
    conditions = [
        _cond("nu >= 0", params.nu, 0.0, params.nu >= 0.0),
        _cond("nu <= mu", params.nu, params.mu, params.nu <= params.mu),
        *_rate_sign_conditions(params),
    ]
    notes = ()
    if params.mu == params.nu and (params.rho == 0.0 or params.gamma == 0.0):
        notes = (
            "population is exactly constant: births balance deaths and the "
            "disease mortality channel is off",
        )
    return StabilityVerdict(
        criterion=StabilityCriterion.POPULATION_NONINCREASING,
        conditions=tuple(conditions),
        notes=notes,
    )


def check_mortality_absorbs_growth(params: ModelParams) -> StabilityVerdict:
    """Necessary condition for boundedness when births outpace deaths.

    Standing assumption nu > mu; with it, boundedness requires rho > 0 and
    gamma >= (nu - mu)/rho (the disease mortality channel must be able to
    drain the net inflow). When nu <= mu the verdict is marked not
    applicable.
    """
    applicable = params.nu > params.mu
    conditions = [
        _cond("nu > mu (standing assumption)", params.nu, params.mu, applicable)
    ]
    if params.rho > 0.0:
        threshold = (params.nu - params.mu) / params.rho
        conditions.append(_cond("rho > 0", params.rho, 0.0, True))
        conditions.append(
            _cond("gamma >= (nu - mu)/rho", params.gamma, threshold,
                  params.gamma >= threshold)
        )
    else:
        conditions.append(_cond("rho > 0", params.rho, 0.0, False))
    return StabilityVerdict(
        criterion=StabilityCriterion.MORTALITY_ABSORBS_GROWTH,
        conditions=tuple(conditions),
        applicable=applicable,
        notes=() if applicable else ("births do not exceed deaths; criterion says nothing",),
    )


def check_unforced_boundedness(params: ModelParams, case: int) -> StabilityVerdict:
    """Boundedness of the vaccination-free system, two alternative cases.

    case 1: 0 <= nu <= mu. case 2: mu > 4*beta + nu and nu > beta >= 0.
    Both share admissible-rate conditions and mu > 0. The clause
    max(sigma, gamma) < -mu is impossible for nonnegative rates; it is
    evaluated literally but reported as an informational flag, outside the
    hypothesis.
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case!r}")
    conditions = [
        *_rate_sign_conditions(params),
        _cond("mu > 0", params.mu, 0.0, params.mu > 0.0),
    ]
    if case == 1:
        criterion = StabilityCriterion.BOUNDED_SMALL_BIRTH
        conditions.append(_cond("nu >= 0", params.nu, 0.0, params.nu >= 0.0))
        conditions.append(_cond("nu <= mu", params.nu, params.mu, params.nu <= params.mu))
    else:
        criterion = StabilityCriterion.BOUNDED_DOMINANT_MORTALITY
        bound = 4.0 * params.beta + params.nu
        conditions.append(_cond("mu > 4*beta + nu", params.mu, bound, params.mu > bound))
        conditions.append(_cond("nu > beta", params.nu, params.beta, params.nu > params.beta))
        conditions.append(_cond("beta >= 0", params.beta, 0.0, params.beta >= 0.0))
    worst = max(params.sigma, params.gamma)
    flags = (
        _cond("max(sigma, gamma) < -mu (literal clause, impossible for "
              "nonnegative rates)", worst, -params.mu, worst < -params.mu),
    )
    return StabilityVerdict(
        criterion=criterion,
        conditions=tuple(conditions),
        flags=flags,
    )


@dataclass(frozen=True)
class IntegralDiagnostic:
    """Finite-horizon evaluation of the population/infectious identity.

    The continuous system satisfies, for nu > mu,

        e^{(mu-nu) t} N(t) = N(0) - rho*gamma * int_0^t e^{(mu-nu) tau} I dtau

    exactly. lhs is N(0); rhs the quadrature of the right-hand integral at
    the horizon; residual = lhs - rhs equals the remaining (undecayed) mass
    e^{(mu-nu)T} N(T), and should not exceed tail_bound when the run is
    consistent with boundedness. max_pointwise_residual tracks the identity
    along the whole trajectory, in absolute population units; consistency
    compares it against pointwise_tol * N(0). conditions holds the two
    inequalities; the run is consistent when both are satisfied.
    """

    horizon: float
    lhs: float
    rhs: float
    residual: float
    max_pointwise_residual: float
    tail_bound: float
    pointwise_tol: float

    @property
    def conditions(self) -> tuple[ConditionCheck, ConditionCheck]:
        tol_abs = self.pointwise_tol * self.lhs
        return (
            _cond(
                "max pointwise identity residual <= tol*N(0)",
                self.max_pointwise_residual, tol_abs,
                self.max_pointwise_residual <= tol_abs,
            ),
            _cond(
                "|N(0) - integral| <= tail bound + tol*N(0)",
                abs(self.residual), self.tail_bound + tol_abs,
                abs(self.residual) <= self.tail_bound + tol_abs,
            ),
        )

    @property
    def consistent(self) -> bool:
        return all(c.satisfied for c in self.conditions)


def integral_test(traj, params: ModelParams) -> IntegralDiagnostic:
    """Quadrature check of the population/infectious integral identity.

    traj must expose uniform sample times `t`, infectious counts `I`, and
    totals `N` (any Trajectory from the engine qualifies). Requires the
    growing-births regime nu > mu; otherwise NotApplicableError. Uses
    trapezoidal quadrature on the trajectory's own grid, with the pointwise
    tolerance POINTWISE_TOL * N(0).
    """
    if params.nu <= params.mu:
        raise NotApplicableError(
            "integral identity check requires nu > mu "
            f"(got nu={params.nu!r}, mu={params.mu!r})"
        )
    t = np.asarray(traj.t, dtype=float)
    i_pop = np.asarray(traj.I, dtype=float)
    n_pop = np.asarray(traj.N, dtype=float)
    if t.size < 2:
        raise NonUniformGridError("need at least two samples")
    steps = np.diff(t)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=0.0, atol=1e-9 * max(dt, 1e-12)):
        raise NonUniformGridError("trajectory samples are not uniformly spaced")

    n0 = float(n_pop[0])
    weight = np.exp((params.mu - params.nu) * t)
    integrand = params.rho * params.gamma * weight * i_pop
    # cumulative trapezoid on the uniform grid
    rhs_t = np.concatenate(
        ([0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1])))
    )
    pointwise = weight * n_pop - (n0 - rhs_t)
    max_pointwise = float(np.abs(pointwise).max())

    horizon = float(t[-1])
    lhs = n0
    rhs = float(rhs_t[-1])
    residual = lhs - rhs
    i_max = float(i_pop.max(initial=0.0))
    tail_bound = (
        params.rho * params.gamma * i_max
        * float(np.exp((params.mu - params.nu) * horizon))
        / (params.nu - params.mu)
    )
    return IntegralDiagnostic(
        horizon=horizon,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        max_pointwise_residual=max_pointwise,
        tail_bound=tail_bound,
        pointwise_tol=POINTWISE_TOL,
    )


def integral_verdict(params: ModelParams, diag: IntegralDiagnostic | None) -> StabilityVerdict:
    """Wrap an IntegralDiagnostic as a verdict; None marks not-applicable."""
    if diag is None:
        applicable = params.nu > params.mu
        conditions = (
            _cond("nu > mu (standing assumption)", params.nu, params.mu, applicable),
            _cond("identity evaluated along a trajectory", 0.0, 1.0, False),
        )
        return StabilityVerdict(
            criterion=StabilityCriterion.POPULATION_INTEGRAL_IDENTITY,
            conditions=conditions,
            applicable=applicable,
            notes=("no trajectory diagnostic available",),
        )
    return StabilityVerdict(
        criterion=StabilityCriterion.POPULATION_INTEGRAL_IDENTITY,
        conditions=diag.conditions,
    )


def standard_verdicts(params: ModelParams, diag: IntegralDiagnostic | None = None):
    """The five verdicts every report carries, in stable order."""
    return (
        check_population_nonincreasing(params),
        check_mortality_absorbs_growth(params),
        integral_verdict(params, diag),
        check_unforced_boundedness(params, 1),
        check_unforced_boundedness(params, 2),
    )
