"""SEIR dynamics with demographic turnover and a vaccination input.

State layout is (S, E, I, R): susceptible, latent, infectious, and immune
populations, with derived total N = S + E + I + R. All rates are per day.
Transmission uses the density-scaled incidence beta*S*I/N, which makes the
vector field degree-1 homogeneous in the state.

The vaccination input V routes the newborn stream nu*N: a fraction V goes
straight to the immune compartment, the rest enters the susceptibles. V may
leave [0, 1] (the laws upstream decide whether to clamp it).

make_rate_fn is the one spelling of the vector field. build_matrix and
forcing_vector factor it as a bare 4x4 matrix times the state plus an input
vector, eight ways (MatrixVariant, ForcingForm); reconstruct_derivative
rebuilds it from such a pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

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

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological rates (all per day) plus decomposition references.

    mu      death rate unrelated to the infection
    omega   rate of immunity loss
    beta    transmission constant
    sigma   inverse latent period
    gamma   inverse infective period
    rho     per-capita probability of death from the infection
    nu      newborn/vaccination stream rate

    I0_ref / N0_ref are the constant references used by the
    constant-plus-varying matrix split (``decompose_star``). When left unset
    the split uses a reference infectious fraction of 1, the worst case, so
    any admissible state satisfies the feasibility constraint.
    """

    mu: float
    omega: float
    beta: float
    sigma: float
    gamma: float
    rho: float
    nu: float
    I0_ref: float | None = None
    N0_ref: float | None = None

    def __post_init__(self):
        for name in ("mu", "omega", "beta", "sigma", "gamma", "rho", "nu"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
            if name != "rho" and v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho!r}")
        if (self.I0_ref is None) != (self.N0_ref is None):
            raise ConfigError("I0_ref and N0_ref must be set together")
        if self.I0_ref is not None:
            for name in ("I0_ref", "N0_ref"):
                v = getattr(self, name)
                if not np.isfinite(v):
                    raise ConfigError(f"{name} must be finite, got {v!r}")
            if not (self.N0_ref >= self.I0_ref > 0):
                raise ConfigError(
                    "references must satisfy N0_ref >= I0_ref > 0, got "
                    f"I0_ref={self.I0_ref!r}, N0_ref={self.N0_ref!r}"
                )

    @property
    def immune_recovery_rate(self) -> float:
        """Rate at which infectious individuals survive into immunity."""
        return self.gamma * (1.0 - self.rho)

    @property
    def reference_infectious_fraction(self) -> float:
        """I0_ref/N0_ref, defaulting to the worst case 1."""
        if self.I0_ref is None:
            return 1.0
        return self.I0_ref / self.N0_ref

    def with_references(self, I0_ref: float, N0_ref: float) -> "ModelParams":
        return replace(self, I0_ref=I0_ref, N0_ref=N0_ref)


def _require_population(x) -> float:
    S, E, I, R = x
    N = S + E + I + R
    if not N > N_FLOOR:
        raise SingularStateError(f"total population {N!r} at or below floor {N_FLOOR}", N)
    return N


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
    neg_mu_omega = -(mu + omega)

    def rate(S: float, E: float, I: float, R: float, V: float):
        N = S + E + I + R
        if not N > N_FLOOR:
            raise SingularStateError(
                f"total population {N!r} at or below floor {N_FLOOR}", N
            )
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


class MatrixVariant(enum.Enum):
    """The eight ways the dynamics factor into matrix * state + forcing.

    The transmission bilinearity beta*S*I/N can be attributed to the S
    column (coefficient beta*I/N) or the I column (coefficient beta*S/N),
    independently for the susceptible drain and the latent gain; that gives
    four base variants. Each has a sibling with the newborn inflow folded
    into the matrix as a rank-one first-row shift (+nu in every column of
    row S) instead of living in the forcing vector.

    Enum values are the stable ids used in configs and reports.
    """

    BILINEAR_VIA_S = "A1"
    BILINEAR_VIA_I = "A2"
    SPLIT_DRAIN_I_GAIN_S = "A3"
    SPLIT_DRAIN_S_GAIN_I = "A4"
    BILINEAR_VIA_S_WITH_BIRTH = "A1_0"
    BILINEAR_VIA_I_WITH_BIRTH = "A2_0"
    SPLIT_DRAIN_I_GAIN_S_WITH_BIRTH = "A3_0"
    SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH = "A4_0"

    @property
    def includes_birth_term(self) -> bool:
        return self.value.endswith("_0")

    @property
    def base(self) -> "MatrixVariant":
        """The sibling without the birth term (self if already base)."""
        return MatrixVariant(self.value[:2])


# Canonical representation used internally; the others exist for analysis
# and cross-checks.
CANONICAL_VARIANT = MatrixVariant.SPLIT_DRAIN_S_GAIN_I


class ForcingForm(enum.Enum):
    """How the input enters alongside a matrix variant.

    VACCINE_PLUS_BIRTH_VECTOR   affine: (-nu, 0, 0, nu)*N*V + (nu, 0, 0, 0)*N
    BIRTH_ROUTED_CONTROL        nu*N*(1-V, 0, 0, V), a nonnegative control
                                vector whenever V is in [0, 1]
    BIRTH_INSIDE_MATRIX         (-nu, 0, 0, nu)*N*V only; pairs with the
                                _WITH_BIRTH matrix variants
    """

    VACCINE_PLUS_BIRTH_VECTOR = "vaccine-plus-birth-vector"
    BIRTH_ROUTED_CONTROL = "birth-routed-control"
    BIRTH_INSIDE_MATRIX = "birth-inside-matrix"


def build_matrix(params: ModelParams, x: StateVec, variant: MatrixVariant) -> np.ndarray:
    """Instantaneous state matrix for the given factoring variant.

    Row/column order is (S, E, I, R).
    """
    S, E, I, R = x
    N = _require_population(x)
    foi = params.beta * I / N  # force of infection, multiplies S
    contact = params.beta * S / N  # contact drain, multiplies I
    mu = params.mu

    m = np.zeros((4, 4))
    m[2] = (0.0, params.sigma, -(mu + params.gamma), 0.0)
    m[3] = (0.0, 0.0, params.immune_recovery_rate, -(mu + params.omega))

    base = variant.base
    if base is MatrixVariant.BILINEAR_VIA_S:
        m[0] = (-(mu + foi), 0.0, 0.0, params.omega)
        m[1] = (foi, -(mu + params.sigma), 0.0, 0.0)
    elif base is MatrixVariant.BILINEAR_VIA_I:
        m[0] = (-mu, 0.0, -contact, params.omega)
        m[1] = (0.0, -(mu + params.sigma), contact, 0.0)
    elif base is MatrixVariant.SPLIT_DRAIN_I_GAIN_S:
        m[0] = (-mu, 0.0, -contact, params.omega)
        m[1] = (foi, -(mu + params.sigma), 0.0, 0.0)
    else:  # SPLIT_DRAIN_S_GAIN_I
        m[0] = (-(mu + foi), 0.0, 0.0, params.omega)
        m[1] = (0.0, -(mu + params.sigma), contact, 0.0)

    if variant.includes_birth_term:
        m[0] += params.nu

    return m


def forcing_vector(params: ModelParams, x: StateVec, V: float, form: ForcingForm) -> np.ndarray:
    """Input vector matching a forcing form (see ForcingForm)."""
    N = _require_population(x)
    births = params.nu * N
    vaccinated = births * V
    if form is ForcingForm.VACCINE_PLUS_BIRTH_VECTOR:
        return np.array([births - vaccinated, 0.0, 0.0, vaccinated])
    if form is ForcingForm.BIRTH_ROUTED_CONTROL:
        return births * np.array([1.0 - V, 0.0, 0.0, V])
    return np.array([-vaccinated, 0.0, 0.0, vaccinated])


def reconstruct_derivative(
    params: ModelParams,
    x: StateVec,
    V: float,
    variant: MatrixVariant,
    form: ForcingForm,
) -> np.ndarray:
    """Rebuild the vector field as matrix*state + forcing, (dS, dE, dI, dR).

    The birth inflow must live in exactly one place, so the matrix variant
    and the forcing form have to agree on who carries it.
    """
    wants_birth_matrix = form is ForcingForm.BIRTH_INSIDE_MATRIX
    if variant.includes_birth_term != wants_birth_matrix:
        raise ConfigError(
            f"forcing form {form.value!r} does not pair with variant {variant.value!r}: "
            "the birth inflow would be dropped or double-counted"
        )
    m = build_matrix(params, x, variant)
    return m @ np.asarray(x, dtype=float) + forcing_vector(params, x, V, form)
