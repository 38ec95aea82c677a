"""Vulnerability profiles and masking traces.

A *vulnerability profile* ``v(t) ∈ [0, 1]`` gives, for each point of a
cyclic workload of period ``L``, the probability that a raw soft error
striking the component at that time is **not** masked:

* for a functional unit the paper's model is binary — ``v = 1`` when the
  unit is busy, ``0`` when idle (Section 4.1);
* for the register file a strike hits a uniformly random register, so
  ``v(t)`` is the fraction of registers whose values are still to be
  read — a fractional profile (Section 4.1);
* for the synthesized ``day``/``week`` workloads ``v`` is busy/idle at
  hour scale; for ``combined`` it is a two-time-scale nested profile
  (Section 4.2).

The AVF of a component is exactly the time average of ``v`` over one
period. Multiplying a profile by a raw error rate yields the failure
intensity consumed by the reliability machinery.
"""

from .profile import (
    NestedProfile,
    PiecewiseProfile,
    VulnerabilityProfile,
    busy_idle_profile,
    from_cycle_mask,
)
from .trace import MaskingTrace
from .liveness import live_counts_from_intervals

__all__ = [
    "NestedProfile",
    "PiecewiseProfile",
    "VulnerabilityProfile",
    "busy_idle_profile",
    "from_cycle_mask",
    "MaskingTrace",
    "live_counts_from_intervals",
]
