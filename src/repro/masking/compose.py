"""Profile composition.

Two distinct composition semantics appear in the paper's experiments:

* **Hazard addition** — independent raw-error processes per component;
  the processor fails when any unit fails. That composition lives in
  :meth:`repro.core.system.SystemModel.combined_intensity` (intensities
  add) and is what Section 4.2 uses ("apply these three traces ...
  simultaneously").
* **Strike attribution** — a *single* strike process hitting a
  component made of sub-structures, each strike landing on one of them
  with given probabilities: the component's profile is the pointwise
  weighted average of theirs (:func:`weighted_average_profile`; the
  Section-4.2 processor-level profile averages the three unit traces).
  No experiment has a strike that several sub-structures can each
  unmask, so there is no pointwise-OR composition.

Phase-structured workloads (the ``combined`` benchmark's outer loop)
sequence profiles in time as a
:class:`~repro.masking.profile.NestedProfile`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ProfileError
from ..reliability.hazard import _REL_TOL  # shared tolerance
from .profile import PiecewiseProfile


def weighted_average_profile(
    profiles: Sequence[PiecewiseProfile], weights: Sequence[float]
) -> PiecewiseProfile:
    """Pointwise convex combination of same-period profiles.

    Used to model a component whose strikes are distributed across
    sub-structures with given probabilities (e.g. a register file whose
    strike lands on the integer bank with probability 80/256).
    """
    if not profiles:
        raise ProfileError("need at least one profile")
    if len(weights) != len(profiles):
        raise ProfileError("weights must match profiles in length")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or w.sum() <= 0:
        raise ProfileError("weights must be non-negative and not all zero")
    w = w / w.sum()
    period = profiles[0].period
    for p in profiles[1:]:
        if abs(p.period - period) > _REL_TOL * period:
            raise ProfileError("period mismatch; tile first")
    bp = np.unique(np.concatenate([p.breakpoints for p in profiles]))
    bp[-1] = period
    mids = 0.5 * (bp[:-1] + bp[1:])
    vals = np.zeros_like(mids)
    for p, wi in zip(profiles, w):
        vals += wi * p.value_at(np.clip(mids, 0, p.period * (1 - 1e-15)))
    return PiecewiseProfile(bp, np.clip(vals, 0.0, 1.0))
