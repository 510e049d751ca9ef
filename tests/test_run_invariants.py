"""Run-level invariants on generated admissible scenarios.

Hypothesis draws a (g_family, h_family, law) combination, the seven rates,
a starting state, the design constants the combination needs and a grid of
2 to 20 days at dt 0.05 to 0.5, built so that every draw passes the
configuration guards. Each run must keep three properties: the dN/dt
identity within a derived round-off bound, no reset and V in [0, 1] under
the saturated law, and an exact round trip through trajectory.csv.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seirvax import (
    ControlConfig,
    ModelParams,
    ModulationFamily,
    ReferenceProfile,
    ScenarioConfig,
    StateVec,
    VaccinationLaw,
    integrate,
)
from seirvax.cli import TRAJECTORY_COLUMNS, read_trajectory_csv, write_trajectory_csv

from conftest import csv_column, rate

# unit round-off of a double
U = 2.0**-53


@st.composite
def scenarios(draw):
    params = ModelParams(
        mu=draw(rate(1e-4, 0.05)), omega=draw(rate(0.0, 0.2)), beta=draw(rate(0.0, 2.0)),
        sigma=draw(rate(0.0, 1.0)), gamma=draw(rate(0.0, 1.0)), rho=draw(rate(0.0, 1.0)),
        nu=draw(rate(1e-3, 0.05)),
    )
    # eps0 above the switched design's floor, vartheta above the decay pole
    floor = max(params.nu, params.immune_recovery_rate)
    control = ControlConfig(
        eps0=floor * (1.0 + draw(rate(0.01, 2.0))),
        vartheta=params.immune_pole + draw(rate(0.01, 1.0)),
        c=draw(rate(0.0, 1.0)),
        g_family=draw(st.sampled_from(ModulationFamily)),
        h_family=draw(st.sampled_from(ReferenceProfile)),
        law=draw(st.sampled_from(VaccinationLaw)),
    )
    x0 = StateVec(*(draw(rate(0.0, 1000.0)) for _ in range(3)), draw(rate(1.0, 1000.0)))
    return ScenarioConfig(
        params=params, x0=x0, control=control,
        horizon=draw(rate(2.0, 20.0)), dt=draw(rate(0.05, 0.5)),
    )


def identity_scale(traj) -> np.ndarray:
    """Per row, an upper bound on the sum of |term| over the terms of the
    four rates and of dN.

    Every term is a rate constant times a nonnegative component, N times nu
    (and |V|), or the incidence beta*S*I/N <= beta*N, so the sum is at most
    N*(mu + 2*omega + 2*beta + 2*sigma + 2*gamma + |nu - mu| + rho*gamma
    + nu*(1 + 2|V|)), which this returns.
    """
    p = traj.scenario.params
    coeff = (p.mu + 2 * p.omega + 2 * p.beta + 2 * p.sigma + 2 * p.gamma
             + abs(p.nu - p.mu) + p.rho * p.gamma)
    return traj.N * (coeff + p.nu * (1.0 + 2.0 * np.abs(traj.V)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sc=scenarios())
def test_generated_runs_keep_the_run_invariants(sc, tmp_path_factory):
    """Three properties of every recorded row.

    dN identity: each rate is a sum of at most five terms, each term a
    product of at most four rounded factors (the incidence beta*S*I/N, with
    N a three-addition sum, carries six roundings), and the row sum adds
    the four rates, so the summed rates carry at most 6 + 4 + 3 = 13
    roundings per term: |fl(sum) - exact| <= gamma_13 * T, with T the sum
    of |term| and gamma_k = k*u/(1 - k*u). dN = (nu - mu)*N - rho*gamma*I
    has at most six roundings per term, so it is within gamma_6 * D of the
    same exact value, D the sum of its |term|. Hence |sum(rates) - dN| <=
    gamma_13 * (T + D) <= 16*u*identity_scale; the 16 leaves room for
    gamma_13's denominator and the check's own roundings. Rows with a
    non-finite V (a run's last, blowup row) are skipped: their rates are
    not numbers.

    Saturated law: V is clamped to [0, 1], so the field keeps the orthant
    and no reset fires.

    trajectory.csv: every written column reads back bit for bit, by name.
    """
    traj = integrate(sc)
    assert len(traj) >= 1
    finite = np.isfinite(traj.V)
    gap = np.abs(traj.rates.sum(axis=1) - traj.dN)[finite]
    bound = 16.0 * U * identity_scale(traj)[finite]
    assert np.all(gap <= bound), (gap / bound).max()

    if sc.control.law is VaccinationLaw.SATURATED:
        assert traj.reset_counts.sum() == 0
        assert np.all((traj.V >= 0.0) & (traj.V <= 1.0))

    path = tmp_path_factory.mktemp("run") / "trajectory.csv"
    write_trajectory_csv(traj, path)
    data = read_trajectory_csv(path)
    assert tuple(data) == TRAJECTORY_COLUMNS
    for name in TRAJECTORY_COLUMNS:
        want = csv_column(traj, name).astype(np.float64)
        assert data[name].tobytes() == want.tobytes(), name
