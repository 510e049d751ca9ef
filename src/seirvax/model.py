"""SEIR dynamics with demographic turnover and a vaccination input.

State layout is (S, E, I, R): susceptible, latent, infectious, and immune
populations, with derived total N = S + E + I + R. All rates are per day.
Transmission uses the density-scaled incidence beta*S*I/N, which makes the
vector field degree-1 homogeneous in the state.

The vaccination input V routes the newborn stream nu*N: a fraction V goes
straight to the immune compartment, the rest enters the susceptibles. V may
leave [0, 1] (the laws upstream decide whether to clamp it).

make_rate_fn is the one spelling of the vector field. Its eight matrix
factorizations (MatrixVariant, build_matrix, forcing_vector,
reconstruct_derivative) are analysis, not run code: they live in
seirvax.analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, SingularStateError

# Total population at or below this is treated as extinct rather than
# letting the incidence term divide toward infinity.
N_FLOOR = 1e-12

# Component order used everywhere a state is spelled out.
COMPONENT_NAMES = ("S", "E", "I", "R")


class StateVec(NamedTuple):
    """Population state (counts)."""

    S: float
    E: float
    I: float
    R: float

    @property
    def N(self) -> float:
        """Total population."""
        return self.S + self.E + self.I + self.R

    @property
    def infected_fraction(self) -> float:
        """(E + I)/N."""
        return (self.E + self.I) / self.N


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological rates (all per day).

    mu      death rate unrelated to the infection
    omega   rate of immunity loss
    beta    transmission constant
    sigma   inverse latent period
    gamma   inverse infective period
    rho     per-capita probability of death from the infection
    nu      newborn/vaccination stream rate
    """

    mu: float
    omega: float
    beta: float
    sigma: float
    gamma: float
    rho: float
    nu: float

    def __post_init__(self):
        for name in ("mu", "omega", "beta", "sigma", "gamma", "rho", "nu"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
            if name != "rho" and v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho!r}")

    @property
    def immune_recovery_rate(self) -> float:
        """Rate at which infectious individuals survive into immunity."""
        return self.gamma * (1.0 - self.rho)

    @property
    def immune_pole(self) -> float:
        """mu + omega, the rate at which the immune compartment drains."""
        return self.mu + self.omega


def make_rate_fn(params: ModelParams):
    """The vaccinated SEIR vector field, as a plain-float closure.

    Returns rate(S, E, I, R, V) -> (dS, dE, dI, dR). V is the applied
    vaccination signal, used as given even outside [0, 1]. Raises
    SingularStateError at or below the extinction floor.
    """
    mu = params.mu
    omega = params.omega
    beta = params.beta
    sigma = params.sigma
    gamma = params.gamma
    nu = params.nu
    g1r = params.immune_recovery_rate
    mu_sigma = mu + sigma
    # negated once here: -mu * S parses as (-mu) * S and negation is exact
    neg_mu = -mu
    neg_mu_gamma = -(mu + gamma)
    neg_mu_omega = -params.immune_pole

    def rate(S: float, E: float, I: float, R: float, V: float):
        N = S + E + I + R
        if not N > N_FLOOR:
            raise SingularStateError(N, N_FLOOR)
        incidence = beta * S * I / N
        births = nu * N
        vaccinated = births * V
        return (
            neg_mu * S + omega * R - incidence + births - vaccinated,
            incidence - mu_sigma * E,
            neg_mu_gamma * I + sigma * E,
            neg_mu_omega * R + g1r * I + vaccinated,
        )

    return rate
