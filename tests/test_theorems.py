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

Theorem 3's necessary condition (MORTALITY_ABSORBS_GROWTH): with nu > mu,
dN/dt = (nu - mu)*N - rho*gamma*I >= a*N for a = nu - mu - rho*gamma, as
I <= N on nonnegative states, so N(t) >= N(0)*exp(a*t). Where the verdict
fails, a > 0 and N grows without bound. The controllers are Theorem 2's.

The immune ceiling of a clamped law: with r = R/N and i = I/N the model
gives r' = nu*V - (nu + omega)*r + (g1r + rho*gamma*r)*i, g1r =
gamma*(1 - rho). With V <= 1 and i <= 1 - r on nonnegative states,
r' <= q(r) = nu - (nu + omega)*r + (g1r + rho*gamma*r)*(1 - r). q is
concave with q(0) >= 0 and q(1) = -omega, so with omega > 0 it has one
last root r_bar in [0, 1) and is negative above it: r never exceeds
max(r(0), r_bar), and a clamped run cannot reach the objective R -> N.
The controllers are Theorem 2's.
"""

import numpy as np
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
    check_mortality_absorbs_growth,
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


@st.composite
def growing_rates(draw):
    """Admissible rates with nu > mu, drawing rho in {0, 1} often and the
    birth surplus nu - mu on both sides of rho*gamma."""
    mu = draw(rate(0.0, 0.1))
    rho = draw(st.one_of(st.sampled_from((0.0, 1.0)), rate(0.0, 1.0)))
    gamma = draw(rate(0.0, 1.0))
    surplus = draw(st.one_of(rate(1e-3, 0.3), rate(0.5, 2.0).map(lambda f: f * rho * gamma)))
    return ModelParams(
        mu=mu, omega=draw(rate(0.0, 1.0)), beta=draw(rate(0.0, 2.0)),
        sigma=draw(rate(0.0, 1.0)), gamma=gamma, rho=rho, nu=mu + max(surplus, 1e-3),
    )


@st.composite
def t3_scenarios(draw):
    # I0 >= 1, and S0 = E0 = R0 = 0 (often drawn) starts the run at I = N,
    # where the bound is tight
    params = draw(growing_rates())
    x0 = StateVec(draw(_component), draw(_component), draw(rate(1.0, 1000.0)), draw(_component))
    return ScenarioConfig(
        params=params, x0=x0,
        control=draw(st.sampled_from(RESET_FREE_CONTROLS)),
        horizon=draw(rate(10.0, 100.0)), dt=draw(st.sampled_from((0.05, 0.1, 0.5))),
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(sc=t3_scenarios())
def test_population_keeps_theorem_3s_lower_bound(sc):
    p = sc.params
    a = p.nu - p.mu - p.rho * p.gamma
    if not check_mortality_absorbs_growth(p).hypothesis_holds:
        assert a > 0.0
    try:
        sc.resolved()
    except ConfigError:
        reject()
    traj = integrate(sc)
    assert traj.status is RunStatus.OK
    # A step multiplies N by P(z), the degree-4 Taylor polynomial of
    # exp(z) at z = a*dt, and adds rho*gamma*(S + E + R) of each stage with
    # weights positive for |z| < 1 (the drawn |a| <= 1, so |z| <= 0.5). While
    # the stages keep S + E + R >= 0, a run keeps N[k] >= N(0)*P(z)**k: the
    # theorem's N(0)*exp(a*t_k) less RK4's own error on dN/dt = a*N, about
    # k*z**5/120 relative for z > 0, and above it for z < 0.
    z = a * sc.dt
    assert abs(z) < 1.0
    P = 1.0 + z * (1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0)))
    k = np.arange(len(traj))
    lower = traj.N[0] * P**k
    # rounding as for Theorem 2, relative to the bound; 1500 undirected
    # draws used at most 0.43 of it
    allowance = rounding_allowance(sc, k) * (lower / sc.x0.N)
    deficit = lower - traj.N
    assert (deficit <= allowance).all(), (deficit / allowance).max()


def immune_ceiling(p) -> float:
    """r_bar, q's last root in [0, 1), by bisection: q >= 0 on [0, r_bar]
    and q < 0 on (r_bar, 1], as q is concave with q(0) >= 0 > q(1)."""
    g1r = p.gamma * (1.0 - p.rho)

    def q(r):
        return p.nu - (p.nu + p.omega) * r + (g1r + p.rho * p.gamma * r) * (1.0 - r)

    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if q(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


@st.composite
def waning_scenarios(draw):
    """Admissible rates with omega > 0 under a reset-free controller. Half
    the starts sit on the ceiling with S = E = 0, where i = 1 - r and
    r' = nu*(V - 1) <= 0, so the bound is tight; the others are often
    disease-free and often without an immune count."""
    params = ModelParams(
        mu=draw(rate(0.0, 0.1)), omega=draw(rate(1e-3, 1.0)), beta=draw(rate(0.0, 2.0)),
        sigma=draw(rate(0.0, 1.0)), gamma=draw(rate(0.0, 1.0)),
        rho=draw(st.one_of(st.sampled_from((0.0, 1.0)), rate(0.0, 1.0))),
        # a subnormal nu makes the demand eps0/nu overflow: the run ends
        # blowup at its first boundary
        nu=draw(st.one_of(st.just(0.0), rate(1e-3, 0.5))),
    )
    if draw(st.booleans()):
        n0, r_bar = draw(rate(1.0, 1000.0)), immune_ceiling(params)
        x0 = StateVec(0.0, 0.0, (1.0 - r_bar) * n0, r_bar * n0)
    else:
        x0 = StateVec(draw(rate(1.0, 1000.0)), draw(_component), draw(_component),
                      draw(_component))
    return ScenarioConfig(
        params=params, x0=x0,
        control=draw(st.sampled_from(RESET_FREE_CONTROLS)),
        horizon=draw(rate(10.0, 80.0)), dt=draw(st.sampled_from((0.05, 0.1, 0.5))),
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(sc=waning_scenarios())
def test_immune_fraction_stays_under_its_ceiling_when_v_is_at_most_1(sc):
    try:
        sc.resolved()
    except ConfigError:
        reject()
    traj = integrate(sc)
    # everyone infectious with rho = 1 and no births dies out: the bound
    # holds on every recorded row all the same
    assert traj.status in (RunStatus.OK, RunStatus.EXTINCT)
    assert traj.reset_counts.sum() == 0
    assert ((traj.V >= 0.0) & (traj.V <= 1.0)).all()
    r = traj.R / traj.N
    ceiling = max(r[0], immune_ceiling(sc.params))
    # RK4 follows the bound: rounding of R and of N, each bounded as for
    # Theorem 2, relative to N(0), is all it allows. 1500 undirected draws,
    # 955 of them peaking within 1e-3 of r_bar, used at most 0.05 of it;
    # with 10% more vaccinated inflow into R, these 80 draws fail
    allowance = 2.0 * rounding_allowance(sc, np.arange(len(traj))) / sc.x0.N
    excess = r - ceiling
    assert (excess <= allowance).all(), (excess / allowance).max()
