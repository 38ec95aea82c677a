"""Register-liveness accounting.

The paper's register-file masking model (Section 4.1): a raw error
strikes each register with equal probability; the error is masked iff the
struck register holds a value that will never be read again. The
per-cycle vulnerability of the register file is therefore the fraction of
registers currently *live* (value still to be read).

The microarchitecture simulator emits, for every architectural register,
the intervals (in cycles) during which its current value is live; this
module turns interval sets into per-cycle live counts with a
difference-array sweep.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import TraceError


def live_counts_from_intervals(
    intervals: Iterable[tuple[int, int]],
    n_cycles: int,
) -> np.ndarray:
    """Per-cycle count of live registers from half-open live intervals.

    Parameters
    ----------
    intervals:
        ``(start_cycle, end_cycle)`` pairs, half-open ``[start, end)``,
        each marking one register's value being live over those cycles.
        Intervals may overlap arbitrarily (different registers) and are
        clipped to ``[0, n_cycles)``.
    n_cycles:
        Length of the observation window.

    Returns
    -------
    ``int64`` array of shape ``(n_cycles,)``.
    """
    if n_cycles <= 0:
        raise TraceError(f"cycle count must be positive, got {n_cycles}")
    if not isinstance(intervals, np.ndarray):
        intervals = list(intervals)
    pairs = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
    start = np.maximum(pairs[:, 0], 0)
    end = np.minimum(pairs[:, 1], n_cycles)
    # Reversed/empty intervals and ones wholly outside the window drop out.
    keep = (pairs[:, 1] > pairs[:, 0]) & (start < n_cycles) & (end > 0)
    diff = np.bincount(start[keep], minlength=n_cycles + 1) - np.bincount(
        end[keep], minlength=n_cycles + 1
    )
    return np.cumsum(diff[:-1], dtype=np.int64)
