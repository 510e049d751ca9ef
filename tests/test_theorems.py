"""The paper's theorems as oracles on generated runs.

Each test draws scenarios whose verdict hypothesis holds and checks the
verdict's conclusion on the recorded run, not only on the parameters.

Theorem 2 (POPULATION_NONINCREASING): with nu <= mu,
dN/dt = (nu - mu)*N - rho*gamma*I <= 0 on nonnegative states, so N never
exceeds N(0). Under the saturated or the none law no boundary reset adds
people, so every recorded total is at most the first. The unsaturated law
is left out: its resets raise a negative component to zero, which adds to
N.

The recorded totals are rounded sums of rounded updates, so on runs that
conserve N exactly (nu == mu with no disease mortality) they drift either
way by rounding; the check allows that drift, bounded per step.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from seirvax import (
    ConfigError,
    ModelParams,
    RunStatus,
    ScenarioConfig,
    StateVec,
    VaccinationLaw,
    build_preset,
    check_population_nonincreasing,
    integrate,
    preset_names,
)

from conftest import rate

# unit round-off of a double
U = 2.0**-53

# every preset controller whose law adds no one at a boundary
RESET_FREE_CONTROLS = tuple(
    build_preset(name).control for name in preset_names()
    if build_preset(name).control.law in (VaccinationLaw.SATURATED, VaccinationLaw.NONE)
)


@st.composite
def nonincreasing_rates(draw):
    """Admissible rates with nu <= mu, drawing nu == mu and rho in {0, 1}
    often."""
    mu = draw(rate(0.0, 0.1))
    return ModelParams(
        mu=mu, omega=draw(rate(0.0, 1.0)), beta=draw(rate(0.0, 2.0)),
        sigma=draw(rate(0.0, 1.0)), gamma=draw(rate(0.0, 1.0)),
        rho=draw(st.one_of(st.sampled_from((0.0, 1.0)), rate(0.0, 1.0))),
        nu=draw(st.one_of(st.just(mu), rate(0.0, mu))),
    )


# a start component, often exactly zero
_component = st.one_of(st.just(0.0), rate(0.0, 1000.0))


@st.composite
def t2_scenarios(draw):
    params = draw(nonincreasing_rates())
    x0 = StateVec(*(draw(_component) for _ in range(3)), draw(rate(1.0, 1000.0)))
    return ScenarioConfig(
        params=params, x0=x0,
        control=draw(st.sampled_from(RESET_FREE_CONTROLS)),
        horizon=draw(rate(10.0, 100.0)), dt=draw(st.sampled_from((0.05, 0.1, 0.5))),
    )


def rounding_allowance(sc, steps: int) -> float:
    """An upper bound on how far rounding can lift the recorded total above
    N(0) over this many steps, in population units.

    Per step the four component updates round once each, at most u of
    each nonnegative component, u*N in all; the increments' own roundings
    are at most 16u times dt times the sum of |term| of the rates, bounded
    as in test_run_invariants by N times the coefficient below (V in
    [0, 1]). N(0) and the last total are themselves rounded sums of three
    additions each. 1500 undirected draws of t2_scenarios lifted N by at
    most 0.36u per step.
    """
    p = sc.params
    coeff = (p.mu + 2 * p.omega + 2 * p.beta + 2 * p.sigma + 2 * p.gamma
             + abs(p.nu - p.mu) + p.rho * p.gamma + 3 * p.nu)
    return (steps * (1.0 + 16.0 * sc.dt * coeff) + 6.0) * U * sc.x0.N


@settings(derandomize=True, max_examples=80, deadline=None)
@given(sc=t2_scenarios())
def test_population_never_exceeds_its_start_when_t2_holds(sc):
    assert check_population_nonincreasing(sc.params).hypothesis_holds
    try:
        sc.resolved()
    except ConfigError:
        # the controller's design guards refuse these rates
        reject()
    traj = integrate(sc)
    assert traj.status is RunStatus.OK
    assert traj.reset_counts.sum() == 0
    excess = traj.N.max() - traj.N[0]
    assert excess <= rounding_allowance(sc, len(traj) - 1), excess / (U * traj.N[0])
