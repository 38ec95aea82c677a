"""Series (first-failure) systems: the SOFR step.

The SOFR step models a system as failing at the first failure of any
component (a series system without redundancy — Section 2.3 assumption 2,
which this library keeps, following the paper). :func:`sofr_mttf` is
that combination: the sum of reciprocal component MTTFs, the step under
examination. The exact series system superposes the component hazards
(:class:`~repro.core.system.SystemModel`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError


def sofr_mttf(component_mttfs: Sequence[float]) -> float:
    """The SOFR step: ``MTTF_sys = 1 / sum_i (1 / MTTF_i)``.

    Infinite component MTTFs contribute zero failure rate. If every
    component is infinite the system MTTF is infinite; a NaN MTTF
    propagates. The rates are summed by ``np.cumsum``, a sequential
    left fold, so the result has the bits of a per-component loop.
    """
    if not len(component_mttfs):
        raise ConfigurationError("need at least one component MTTF")
    mttfs = np.asarray(component_mttfs, dtype=float)
    nonpositive = mttfs <= 0
    if nonpositive.any():
        first = component_mttfs[int(nonpositive.argmax())]
        raise ConfigurationError(f"MTTF must be positive, got {first}")
    rates = 1.0 / mttfs[~np.isinf(mttfs)]
    total_rate = float(np.cumsum(rates)[-1]) if rates.size else 0.0
    if total_rate == 0.0:
        return math.inf
    return 1.0 / total_rate
