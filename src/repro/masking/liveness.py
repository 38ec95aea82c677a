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

from typing import Iterable, Sequence

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


def live_fraction(
    intervals: Iterable[tuple[int, int]],
    n_cycles: int,
    n_registers: int,
) -> np.ndarray:
    """Per-cycle live fraction (the register-file vulnerability mask)."""
    if n_registers <= 0:
        raise TraceError(f"register count must be positive, got {n_registers}")
    counts = live_counts_from_intervals(intervals, n_cycles)
    if counts.max(initial=0) > n_registers:
        raise TraceError(
            "live count exceeds register count; overlapping intervals for "
            "one register?"
        )
    return counts / float(n_registers)


def merge_register_intervals(
    per_register: Sequence[Sequence[tuple[int, int]]],
) -> list[tuple[int, int]]:
    """Flatten per-register interval lists, validating per-register order.

    Within one register, live intervals must be non-overlapping and
    sorted (a register's value is redefined before it can be live again).
    """
    merged: list[tuple[int, int]] = []
    for reg_index, intervals in enumerate(per_register):
        prev_end = -1
        for start, end in intervals:
            if start < prev_end:
                raise TraceError(
                    f"register {reg_index} has overlapping live intervals"
                )
            prev_end = end
            merged.append((start, end))
    return merged
