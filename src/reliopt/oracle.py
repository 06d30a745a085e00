"""Closed-form solver for the box-constrained reliability maximum.

The reliability objective is a monotone transform of a linear score, so its
exact global maximum over a box sits at the vertex selected by the
coefficient signs. The pipeline reports that vertex next to the stochastic
optimizer's results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Bounds
from .errors import DimensionMismatchError
from .logistic import LogisticModel, freeze_fields, reliability

# Fitted coefficients are never exactly zero; this threshold documents what
# counts as a flat (reliability-irrelevant) direction.
ZERO_COEFFICIENT_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class CornerSolution:
    """A box vertex with its reliability and the sign that chose each side.

    Sign +1 means the upper bound, -1 the lower bound, and 0 a flat
    direction (zero coefficient) pinned to the lower bound by convention.
    """

    position: np.ndarray
    value: float
    active_signs: np.ndarray

    def __post_init__(self) -> None:
        freeze_fields(self, position=float, active_signs=int)


def corner_optimum(model: LogisticModel, bounds: Bounds) -> CornerSolution:
    """Exact global maximum of the reliability over the box, in closed form."""
    if bounds.n != model.n_features:
        raise DimensionMismatchError(
            f"model has {model.n_features} features, bounds have {bounds.n}"
        )
    coefficients = model.beta[1:]
    signs = np.where(
        np.abs(coefficients) < ZERO_COEFFICIENT_TOL, 0, np.sign(coefficients)
    ).astype(int)
    position = np.where(signs > 0, bounds.upper, bounds.lower)
    return CornerSolution(
        position=position,
        value=reliability(model, position),
        active_signs=signs,
    )
