"""Printed-text comparison for the differential tests against deleted scalar code.

Two computations of the same quantity that differ in the last bit print the
same text except at boundary values: pairs a few ulp apart whose texts fall on
either side of a rounding boundary of the printed precision.
"""

import numpy as np


def boundary_values(new, old, fmt: str = "%.12g", ulps: int = 1) -> int:
    """Number of entries whose ``fmt`` text differs between ``new`` and ``old``.

    Every such entry must be a boundary value: the two doubles lie at most
    ``ulps`` ulp apart, so the text moved only because they straddle a rounding
    boundary."""
    new, old = np.ravel(np.asarray(new, dtype=float)), np.ravel(np.asarray(old, dtype=float))
    assert new.shape == old.shape
    moved = [(a, b) for a, b in zip(new.tolist(), old.tolist()) if fmt % a != fmt % b]
    for a, b in moved:
        assert abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b))), f"{a!r} and {b!r} are not a boundary pair"
    return len(moved)
