"""The SOFR step (Section 2.3).

``FailureRate_sys = sum_i 1/MTTF_i`` and ``MTTF_sys = 1/FailureRate_sys``
— the industry-standard sum-of-failure-rates combination. The step
assumes each component's time to failure is exponential with constant
rate; Section 3.2 shows architectural masking can break this.

Two entry points are provided, matching how the paper isolates errors:

* :func:`avf_sofr_mttf` — the full AVF+SOFR pipeline (AVF-step component
  MTTFs fed into SOFR);
* :func:`sofr_mttf_from_components` — the SOFR step alone, fed with
  externally supplied component MTTFs ("In our SOFR experiments, we use
  component MTTFs obtained from the Monte Carlo method; therefore, the
  error reported is only that caused by the SOFR step", Section 4.2).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..reliability.metrics import MTTFEstimate
from ..reliability.series import sofr_mttf
from .avf import avf_mttf
from .system import Component, SystemModel


def _per_instance(system: SystemModel, component_mttf) -> np.ndarray:
    """Each component's MTTF, repeated once per instance."""
    return np.repeat(
        [component_mttf(comp) for comp in system.components],
        [comp.multiplicity for comp in system.components],
    )


def avf_sofr_mttf(system: SystemModel) -> MTTFEstimate:
    """The complete AVF+SOFR method applied to a system (Figure 1)."""
    mttfs = _per_instance(
        system, lambda comp: avf_mttf(comp.rate_per_second, comp.profile)
    )
    return MTTFEstimate(mttf_seconds=sofr_mttf(mttfs), method="avf+sofr")


def sofr_mttf_from_components(
    system: SystemModel,
    component_mttf: Callable[[Component], float],
) -> MTTFEstimate:
    """The SOFR step alone, with caller-supplied component MTTFs.

    ``component_mttf`` maps a single component *instance* to its MTTF in
    seconds; multiplicities are expanded here.
    """
    mttfs = _per_instance(system, component_mttf)
    return MTTFEstimate(mttf_seconds=sofr_mttf(mttfs), method="sofr")


def sofr_mttf_from_values(
    component_mttfs: Sequence[float],
    multiplicities: Sequence[int] | None = None,
) -> MTTFEstimate:
    """The SOFR step on raw MTTF values (convenience for analytics)."""
    if multiplicities is not None:
        if len(multiplicities) != len(component_mttfs):
            raise ValueError("need one multiplicity per component MTTF")
        component_mttfs = np.repeat(component_mttfs, multiplicities)
    return MTTFEstimate(mttf_seconds=sofr_mttf(component_mttfs), method="sofr")
