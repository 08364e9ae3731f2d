"""Scalar nearest-node reference for the simulator's batched lookup.

``Policy._continue_indices`` finds the nearest grid node of a whole
array of beliefs at once.  ``nearest_index`` does it for one belief with
a single ``searchsorted`` and an explicit tie rule, so the tests can
compare the two.
"""

import numpy as np


def nearest_index(points: np.ndarray, pi: float) -> int:
    """Index of the grid node nearest ``pi``; a tie goes to the lower node,
    and beliefs outside [0, 1] take the end nodes."""
    idx = int(np.searchsorted(points, pi))
    if idx == 0:
        return 0
    if idx >= points.size:
        return points.size - 1
    if pi - points[idx - 1] <= points[idx] - pi:
        return idx - 1
    return idx
