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

The objective under disease-free tracking: with nu = mu, rho = 0 and
E = I = 0, N is constant and the law (pole-matched reference, g = 0,
unsaturated, eps0 = mu + omega) demands eps0/nu = V* = 1 + omega/nu, the
one level that holds r = 1 (r' = nu*V - (nu + omega)*r). Then
R' = -a*R + a*N with a = mu + omega, whose solution is the reference
R* = N - (N - R(0))*e^{-a t}, so R tracks R* and R/N reaches 1 with it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
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
    integrate,
    preset_names,
    standard_verdicts,
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
    assert standard_verdicts(sc.params)[0].hypothesis_holds
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
    if not standard_verdicts(p)[1].hypothesis_holds:
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


# the design of the disease-free-tracking preset
TRACKING = build_preset("disease-free-tracking").control


@st.composite
def tracking_scenarios(draw):
    """Balanced rates (nu = mu, rho = 0) and a disease-free start, often
    without an immune count, under the tracking design. The susceptibles
    decay as e^{-a t}, and the horizon ends while S/N >= 1e-9: at the
    rounding level a rounding-negative S fires the unsaturated law's reset
    fallback, which applies V = 1 for that step instead of V*."""
    mu = draw(rate(1e-3, 0.1))
    params = ModelParams(
        mu=mu, omega=draw(st.one_of(st.just(0.0), rate(0.0, 1.0))),
        beta=draw(rate(0.0, 2.0)), sigma=draw(rate(0.0, 1.0)), gamma=draw(rate(0.0, 1.0)),
        rho=0.0, nu=mu,
    )
    n0, s = draw(rate(1.0, 1000.0)), draw(st.one_of(st.just(1.0), rate(0.01, 1.0)))
    dt = draw(st.sampled_from((0.05, 0.1, 0.5)))
    cap = math.log(s * 1e9) / params.immune_pole
    return ScenarioConfig(
        params=params, x0=StateVec(s * n0, 0.0, 0.0, (1.0 - s) * n0), control=TRACKING,
        horizon=max(dt, min(draw(rate(10.0, 100.0)), cap)), dt=dt,
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(sc=tracking_scenarios())
def test_tracking_design_applies_v_star_and_reaches_full_immunity(sc):
    p, cfg = sc.params, sc.control
    a = p.immune_pole
    traj = integrate(sc)
    assert traj.status is RunStatus.OK
    assert traj.reset_counts.sum() == 0
    # V_a = (K_N*N + K_R*R* + K_Rd*R*_dot)/(nu*N) sums terms up to
    # (K_R*h + K_Rd*|h_dot|)*N, h <= 1 and |h_dot| <= a, to eps0*N: rounding
    # is relative to those terms. Two runs of 1500 undirected draws used at
    # most 0.13 of it
    v_star = 1.0 + p.omega / p.nu
    v_allowance = 8.0 * U * (2.0 * (cfg.K_R + cfg.K_Rd * a) + a) / p.nu
    assert (np.abs(traj.V - v_star) <= v_allowance).all()
    # RK4 multiplies the gap N - R by P(z), the degree-4 Taylor polynomial of
    # e^z at z = -a*dt, where the reference multiplies it by e^z; rounding
    # adds per step as for Theorem 2, with the demand's rounding applied to
    # nu*N. The same draws used at most 0.19 of the rounding part; with the
    # vaccinated stream 1e-12 larger, these 80 draws fail
    n0, r0 = sc.x0.N, sc.x0.R
    z = -a * sc.dt
    P = 1.0 + z * (1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0)))
    k = np.arange(len(traj))
    rk4 = abs(n0 - r0) * np.abs(P**k - np.exp(z * k))
    rounding = ((k * (1.0 + 64.0 * sc.dt * a) + 6.0) * U * n0
                + 2.0 * k * sc.dt * p.nu * n0 * v_allowance)
    gap = np.abs(traj.R - traj.R_star)
    assert (gap <= rk4 + rounding).all(), ((gap - rk4) / rounding).max()
    # the reference's own tail, at the row's total: 1 - R*/N =
    # (1 - R(0)/N)*e^{-a t}; the same draws used at most 0.35 of 8u
    tail = (1.0 - r0 / traj.N[-1]) * math.exp(-a * traj.t[-1])
    assert abs((1.0 - traj.h[-1]) - tail) <= 8.0 * U


@pytest.mark.xfail(
    strict=True,
    reason="boundary_fn's unsaturated fallback (V = 1.0 when V_a > 1.0 and negative) "
    "applies V = 1 instead of V* = 1 + omega/nu = 128.5 to the step that starts at a "
    "rounding-level reset (S = -1.89e-14 at t = 3.0), so R/N falls from 1 to 0.779",
)
def test_tracking_design_holds_full_immunity_through_a_rounding_reset():
    # R = N from the start, so the objective is met before the first step;
    # S leaves zero only by rounding
    design = build_preset("disease-free-tracking")
    mu = 1.0 / 255.0
    sc = ScenarioConfig(
        params=replace(design.params, mu=mu, nu=mu, omega=0.5),
        x0=StateVec(0.0, 0.0, 0.0, 1000.0), control=design.control,
        horizon=60.0, dt=0.5,
    )
    traj = integrate(sc)
    assert (traj.R / traj.N >= 1.0 - 1e-6).all()
