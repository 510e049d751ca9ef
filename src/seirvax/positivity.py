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
    CANONICAL_VARIANT,
    COMPONENT_NAMES,
    MatrixVariant,
    ModelParams,
    StateVec,
    _require_population,
    build_matrix,
)


@dataclass(frozen=True)
class MetzlerReport:
    """Result of scanning a matrix's off-diagonal entries.

    violating_entries holds (row, col, value) triples, 0-based indices.
    """

    min_offdiagonal: float
    violating_entries: tuple[tuple[int, int, float], ...]

    @property
    def is_metzler(self) -> bool:
        return not self.violating_entries


def check_metzler(matrix, tol: float = 0.0) -> MetzlerReport:
    """Scan the actual off-diagonal entries of a square matrix.

    Entries below -tol count as violations; tol=0 is the strict definition.
    """
    entries = np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    off_mask = ~np.eye(entries.shape[0], dtype=bool)
    rows, cols = np.nonzero(off_mask & (entries < -tol))  # row-major order
    violations = tuple(
        (int(i), int(j), float(entries[i, j])) for i, j in zip(rows, cols)
    )
    return MetzlerReport(
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

    Returns (A_const, B). B collects the susceptible drain's excess over
    the configured reference fraction (I0_ref/N0_ref, default 1),
    B[0,0] = beta*(ref_fraction - I/N), plus the latent gain
    B[1,2] = beta*S/N; both are nonnegative whenever the current infectious
    fraction stays at or below the reference. A_const is the canonical
    matrix at x minus B: it freezes the infectious fraction at the
    reference and carries no latent-gain coupling, so its eigenvalues sit
    on the diagonal.

    With include_birth the canonical matrix is its birth sibling, so the
    rank-one newborn shift (+nu across the first row) lands in A_const.

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
    b = np.zeros((4, 4))
    b[0, 0] = params.beta * (ref - frac)
    b[1, 2] = params.beta * S / N
    variant = (
        MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH if include_birth
        else CANONICAL_VARIANT
    )
    a_const = build_matrix(params, x, variant) - b
    return a_const, b


@dataclass(frozen=True)
class NonnegativityReport:
    min_value: float
    # (record index, component index) of the worst entry when violating
    first_violation: tuple[int, int] | None
    violation_count: int

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


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
        min_value=min_value,
        first_violation=first,
        violation_count=count,
    )


@dataclass(frozen=True)
class ResetEvent:
    """One clamped component at a step boundary."""

    t: float
    index: int
    value_before: float

    @property
    def component(self) -> str:
        return COMPONENT_NAMES[self.index]


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
