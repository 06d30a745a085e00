"""Reference answers the tests check the package against.

The reliability objective is a monotone transform of a linear score, so its
exact maximum over a box sits at a vertex. ``enumerate_corners`` finds that
vertex by exhaustive search, independently of the closed form in
``reliopt.oracle.corner_optimum``.
"""

import itertools

import numpy as np

from reliopt.data import Bounds
from reliopt.errors import ReliOptError
from reliopt.logistic import LogisticModel, reliability
from reliopt.oracle import CornerSolution

MAX_ENUMERATION_DIMS = 20


class DimensionTooLargeError(ReliOptError):
    """Exhaustive corner enumeration refuses to expand 2**n this large."""


def within(bounds: Bounds, x) -> bool:
    """Whether x lies in the closed box."""
    x = np.asarray(x, dtype=float)
    return bool((x >= bounds.lower).all() and (x <= bounds.upper).all())


def enumerate_corners(model: LogisticModel, bounds: Bounds) -> CornerSolution:
    """Best vertex by exhaustive 2**n search.

    Ties go to the lexicographically smallest sign vector (-1 before +1),
    which the enumeration order delivers for free.
    """
    n = bounds.n
    if n > MAX_ENUMERATION_DIMS:
        raise DimensionTooLargeError(f"refusing to enumerate 2**{n} corners")

    best: CornerSolution | None = None
    for signs in itertools.product((-1, 1), repeat=n):
        sign_vector = np.asarray(signs, dtype=int)
        position = np.where(sign_vector > 0, bounds.upper, bounds.lower)
        value = reliability(model, position)
        if best is None or value > best.value:
            best = CornerSolution(position=position, value=value, active_signs=sign_vector)
    assert best is not None
    return best
