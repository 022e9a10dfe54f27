"""Whole paths from the windows of ``sample_wiener`` and ``euler_maruyama_ensemble``.

Both samplers return an iterator of windows ``(j, rows)`` whose ``rows`` hold
nodes ``j .. j + w``; tests that compare whole paths collect them here.
"""

import numpy as np


def collect_windows(windows, node_axis: int = 0) -> np.ndarray:
    """Every node of ``windows`` in one C-contiguous array, with the nodes on
    ``node_axis``.

    A window's first row repeats the last row of the window before, so it is
    taken once.  ``sample_wiener`` gives ``(n_nodes, dim)``; an ensemble with
    ``node_axis=1`` gives ``(n_paths, n_nodes, dim_state)``.  The layout is
    the memory order too, since it sets the order in which numpy sums an axis.
    """
    parts, end = [], 0  # end: the number of nodes collected
    for j, rows in windows:
        assert j == max(end - 1, 0), "a window starts at the last node of the one before"
        parts.append(rows[end - j:])
        end = j + len(rows)
    return np.ascontiguousarray(np.moveaxis(np.concatenate(parts), 0, node_axis))
