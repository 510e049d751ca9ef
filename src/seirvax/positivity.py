"""Nonnegativity machinery: Metzler checks, constant/varying matrix split,
and the reset rule that clamps negative populations.

A matrix is Metzler when every off-diagonal entry is nonnegative; linear
systems driven by such matrices (plus nonnegative forcing) keep nonnegative
states nonnegative, which is the backbone of the positivity argument for
this model. The parameter-level Metzler criterion is that scan at one
state, the worst admissible one; ModelParams has already refused any rate
set outside the paper's standing assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DecompositionError
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


def check_metzler(matrix) -> MetzlerReport:
    """Scan the actual off-diagonal entries of a square matrix.

    Every negative off-diagonal entry is a violation (the strict definition).
    A 1x1 or 0x0 matrix has no off-diagonal entry: Metzler, minimum inf.
    """
    entries = np.asarray(matrix, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    off_mask = ~np.eye(entries.shape[0], dtype=bool)
    rows, cols = np.nonzero(off_mask & (entries < 0.0))  # row-major order
    violations = tuple(
        (int(i), int(j), float(entries[i, j])) for i, j in zip(rows, cols)
    )
    return MetzlerReport(
        min_offdiagonal=float(entries[off_mask].min(initial=np.inf)),
        violating_entries=violations,
    )


def metzler_parameter_criterion(params: ModelParams, variant: MatrixVariant) -> bool:
    """Parameter-only Metzler predicate for a matrix variant: the scan of
    the matrix at the all-susceptible state.

    It holds iff every state with 0 <= S, I <= N gives a Metzler matrix.
    Admissible rates make every off-diagonal entry a nonnegative rate or
    beta*I/N or beta*S/N, except the contact drain -beta*S/N of variants
    that put it in the I column (nu - beta*S/N with the birth term), which
    is smallest at S = N.
    """
    corner = StateVec(1.0, 0.0, 0.0, 0.0)
    return check_metzler(build_matrix(params, corner, variant)).is_metzler


def decompose_star(
    params: ModelParams,
    x: StateVec,
    ref_fraction: float = 1.0,
    include_birth: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the canonical state matrix into constant + state-varying parts.

    Returns (A_const, B). B collects the susceptible drain's excess over
    the reference infectious fraction ref_fraction (default 1, the worst
    case, which every admissible state satisfies),
    B[0,0] = beta*(ref_fraction - I/N), plus the latent gain
    B[1,2] = beta*S/N; both are nonnegative whenever the current infectious
    fraction stays at or below the reference. A_const is the canonical
    matrix at x minus B: it freezes the infectious fraction at the
    reference and carries no latent-gain coupling, so its eigenvalues sit
    on the diagonal.

    With include_birth the canonical matrix is its birth sibling, so the
    rank-one newborn shift (+nu across the first row) lands in A_const.

    Raises ConfigError unless 0 < ref_fraction <= 1, and
    DecompositionError when I/N exceeds ref_fraction.
    """
    if not 0.0 < ref_fraction <= 1.0:
        raise ConfigError(f"ref_fraction must be in (0, 1], got {ref_fraction!r}")
    S, E, I, R = x
    N = _require_population(x)
    frac = I / N
    if frac > ref_fraction + 1e-12:
        raise DecompositionError(
            f"infectious fraction {frac!r} exceeds reference {ref_fraction!r}; "
            "the varying part would go negative"
        )
    b = np.zeros((4, 4))
    b[0, 0] = params.beta * (ref_fraction - frac)
    b[1, 2] = params.beta * (S / N)
    variant = (
        MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH if include_birth
        else CANONICAL_VARIANT
    )
    a_const = build_matrix(params, x, variant) - b
    return a_const, b


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
    """Clamp finite negative components to exactly zero; a -inf one is
    left for the run's total to read as a blowup.

    Returns the clamped state and (component index, value before) pairs for
    each clamped component; no pairs mean nothing fired and x comes back.
    """
    clamps = tuple((i, v) for i, v in enumerate(x) if -math.inf < v < 0.0)
    if not clamps:
        return x, ()
    return x._replace(**{x._fields[i]: 0.0 for i, _ in clamps}), clamps
