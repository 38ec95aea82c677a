"""The AVF step (Section 2.2).

``MTTF_c = 1 / (lambda_c * AVF_c)`` — the component MTTF obtained by
derating the raw error rate with the architecture vulnerability factor.
The step implicitly assumes failures are uniformly likely across the
program; Section 3.1 shows this holds iff ``lambda * L -> 0``.
"""

from __future__ import annotations

import math

from ..errors import EstimationError
from ..masking.profile import VulnerabilityProfile
from ..reliability.metrics import MTTFEstimate
from .system import Component


def avf_mttf(rate_per_second: float, profile: VulnerabilityProfile) -> float:
    """AVF-step MTTF (seconds) for one component.

    Returns ``inf`` when the component is never vulnerable (AVF = 0) or
    has a zero raw rate.
    """
    if rate_per_second < 0:
        raise EstimationError(
            f"raw rate must be non-negative, got {rate_per_second}"
        )
    derated_rate = rate_per_second * profile.avf
    if derated_rate == 0.0:
        # Never vulnerable, zero raw rate, or an underflowing product:
        # the derated failure rate is indistinguishable from zero.
        return math.inf
    return 1.0 / derated_rate


def avf_step(component: Component) -> MTTFEstimate:
    """Run the AVF step on a component, returning a labelled estimate."""
    return MTTFEstimate(
        mttf_seconds=avf_mttf(component.rate_per_second, component.profile),
        method="avf",
    )

