"""Nonnegativity machinery: Metzler checks, constant/varying matrix split,
runtime monitoring, and the reset rule that clamps negative populations.

A matrix is Metzler when every off-diagonal entry is nonnegative; linear
systems driven by such matrices (plus nonnegative forcing) keep nonnegative
states nonnegative, which is the backbone of the positivity argument for
this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .model import (
    DynamicsMatrix,
    MatrixVariant,
    ModelParams,
    StateVec,
    _require_population,
)


@dataclass(frozen=True)
class MetzlerReport:
    """Result of scanning a matrix's off-diagonal entries.

    violating_entries holds (row, col, value) triples, 0-based indices.
    """

    variant: MatrixVariant | None
    is_metzler: bool
    min_offdiagonal: float
    violating_entries: tuple[tuple[int, int, float], ...]


def check_metzler(matrix, tol: float = 0.0) -> MetzlerReport:
    """Scan the actual off-diagonal entries of a matrix instance.

    Accepts a DynamicsMatrix or a plain square array. Entries below -tol
    count as violations; tol=0 is the strict definition.
    """
    variant = None
    if isinstance(matrix, DynamicsMatrix):
        variant = matrix.variant
        entries = matrix.entries
    else:
        entries = np.asarray(matrix, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    off_mask = ~np.eye(entries.shape[0], dtype=bool)
    rows, cols = np.nonzero(off_mask & (entries < -tol))  # row-major order
    violations = tuple(
        (int(i), int(j), float(entries[i, j])) for i, j in zip(rows, cols)
    )
    return MetzlerReport(
        variant=variant,
        is_metzler=not violations,
        min_offdiagonal=float(entries[off_mask].min()),
        violating_entries=violations,
    )


def metzler_parameter_criterion(params: ModelParams, variant: MatrixVariant) -> bool:
    """Parameter-only Metzler predicate for a matrix variant.

    Evaluates the worst admissible state (all population fractions at 1),
    so it holds iff every state with 0 <= S, I <= N produces a Metzler
    matrix. The state-dependent entries are -beta*S/N (variants that put
    the contact drain in the I column) and +beta*I/N, +beta*S/N gains.
    """
    g1r = params.immune_recovery_rate
    shared = min(params.omega, params.sigma, g1r)
    base = variant.base
    drain_in_i = base in (MatrixVariant.BILINEAR_VIA_I, MatrixVariant.SPLIT_DRAIN_I_GAIN_S)
    if not variant.includes_birth_term:
        if drain_in_i:
            # the -beta*S/N entry is only nonnegative when beta is zero
            return params.beta == 0.0 and shared >= 0.0
        return min(shared, params.beta) >= 0.0
    lifted = min(params.nu, params.omega + params.nu, params.beta, params.sigma, g1r)
    if drain_in_i:
        # first-row entry nu - beta*S/N, worst case S/N = 1
        return min(params.nu - params.beta, lifted) >= 0.0
    return lifted >= 0.0


def decompose_star(
    params: ModelParams, x: StateVec, include_birth: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Split the canonical state matrix into constant + state-varying parts.

    Returns (A_const, B) with A_const + B equal to the canonical matrix at
    x. A_const freezes the infectious fraction at the configured reference
    (I0_ref/N0_ref, default 1) and carries no latent-gain coupling, so its
    eigenvalues sit on the diagonal. B collects the difference in the
    susceptible drain, B[0,0] = beta*(ref_fraction - I/N), plus the latent
    gain B[1,2] = beta*S/N; both are nonnegative whenever the current
    infectious fraction stays at or below the reference.

    With include_birth the rank-one newborn shift (+nu across the first
    row) is folded into the constant part.

    Raises DecompositionError when I/N exceeds the reference fraction.
    """
    S, E, I, R = x
    N = _require_population(x)
    ref = params.reference_infectious_fraction
    frac = I / N
    if frac > ref + 1e-12:
        raise DecompositionError(
            f"infectious fraction {frac!r} exceeds reference {ref!r}; "
            "the varying part would go negative"
        )
    mu = params.mu
    a_const = np.array(
        [
            [-(mu + params.beta * ref), 0.0, 0.0, params.omega],
            [0.0, -(mu + params.sigma), 0.0, 0.0],
            [0.0, params.sigma, -(mu + params.gamma), 0.0],
            [0.0, 0.0, params.immune_recovery_rate, -(mu + params.omega)],
        ]
    )
    if include_birth:
        a_const[0] += params.nu
    b = np.zeros((4, 4))
    b[0, 0] = params.beta * (ref - frac)
    b[1, 2] = params.beta * S / N
    return a_const, b


@dataclass(frozen=True)
class NonnegativityReport:
    ok: bool
    min_value: float
    # (record index, component index) of the worst entry when violating
    first_violation: tuple[int, int] | None
    violation_count: int


def monitor_nonnegativity(states, tol: float = 1e-9) -> NonnegativityReport:
    """Check recorded states for components below -tol.

    Integration roundoff smaller than tol is not a violation. states is
    anything ndarray-like with shape (n, 4).
    """
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    min_value = float(arr.min()) if arr.size else 0.0
    bad = arr < -tol
    count = int(bad.any(axis=1).sum())
    first = None
    if count:
        rows, cols = np.nonzero(bad)
        first = (int(rows[0]), int(cols[0]))
    return NonnegativityReport(
        ok=count == 0,
        min_value=min_value,
        first_violation=first,
        violation_count=count,
    )


@dataclass(frozen=True)
class ResetEvent:
    """One clamped component at a step boundary."""

    t: float
    component: str
    index: int
    value_before: float


def apply_reset(x: StateVec) -> tuple[StateVec, tuple[tuple[int, float], ...]]:
    """Clamp negative components to exactly zero.

    Returns the clamped state and (component index, value before) pairs for
    each component that was negative; empty tuple means nothing fired.
    """
    clamps = tuple((i, v) for i, v in enumerate(x) if v < 0.0)
    if not clamps:
        return x, ()
    cleaned = StateVec(*(0.0 if v < 0.0 else v for v in x))
    return cleaned, clamps
