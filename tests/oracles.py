"""Reference answers the tests check the package against.

The reliability objective is a monotone transform of a linear score, so its
exact maximum over a box sits at a vertex. ``enumerate_corners`` finds that
vertex by exhaustive search, independently of the closed form in
``reliopt.oracle.corner_optimum``.
"""

import numpy as np

from reliopt.data import Bounds
from reliopt.errors import ReliOptError
from reliopt.logistic import LogisticModel, reliability_rows
from reliopt.oracle import CornerSolution

MAX_ENUMERATION_DIMS = 20
CHUNK_CORNERS = 2**12  # corners scored per reliability_rows block


class DimensionTooLargeError(ReliOptError):
    """Exhaustive corner enumeration refuses to expand 2**n this large."""


def within(bounds: Bounds, x) -> bool:
    """Whether x lies in the closed box."""
    x = np.asarray(x, dtype=float)
    return bool((x >= bounds.lower).all() and (x <= bounds.upper).all())


def enumerate_corners(model: LogisticModel, bounds: Bounds) -> CornerSolution:
    """Best vertex by exhaustive 2**n search, scored in fixed-size chunks.

    Corner k takes the upper bound in coordinate j when bit n-1-j of k is
    set, so k counts through the sign vectors lexicographically (-1 before
    +1). Ties go to the smallest sign vector: the first maximum of the first
    chunk that holds one. ``reliability_rows`` gives a row the same bits in
    any chunk.
    """
    n = bounds.n
    if n > MAX_ENUMERATION_DIMS:
        raise DimensionTooLargeError(f"refusing to enumerate 2**{n} corners")

    shifts = np.arange(n - 1, -1, -1)
    best: CornerSolution | None = None
    for start in range(0, 2**n, CHUNK_CORNERS):
        k = np.arange(start, min(start + CHUNK_CORNERS, 2**n))
        upper = ((k[:, np.newaxis] >> shifts) & 1).astype(bool)
        positions = np.where(upper, bounds.upper, bounds.lower)
        values = reliability_rows(model, positions)
        i = int(np.argmax(values))
        if best is None or values[i] > best.value:
            best = CornerSolution(
                position=positions[i],
                value=float(values[i]),
                active_signs=np.where(upper[i], 1, -1),
            )
    assert best is not None
    return best
