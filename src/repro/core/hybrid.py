"""Hybrid MTTF estimation: the paper's concluding recommendation.

The paper closes by motivating "future work to determine the best
combination of methodologies that will provide the best MTTF estimates
across all relevant scenarios". This module implements the obvious such
combination, keyed on one number, the system's hazard mass per
iteration (:func:`~repro.core.validity.system_hazard_mass`):

* below :data:`~repro.core.validity.SAFE_MASS_THRESHOLD` the AVF and
  SOFR steps are exact to first order (Sections 3.1.1 and 3.2.1), so the
  AVF+SOFR pipeline runs, at almost no cost;
* otherwise no closed-form shortcut is safe, so the exact
  first-principles renewal MTTF runs, which costs as much as the
  combined intensity's segment count.

The estimate's method label, ``hybrid[avf+sofr]`` or
``hybrid[first_principles]``, records which path produced it.
"""

from __future__ import annotations

from dataclasses import replace

from ..reliability.metrics import MTTFEstimate
from .firstprinciples import first_principles_mttf
from .sofr import avf_sofr_mttf
from .system import SystemModel
from .validity import (
    SAFE_MASS_THRESHOLD,
    UNRELIABLE_MASS_THRESHOLD,
    Regime,
    _classify_mass,
    system_hazard_mass,
)


def hybrid_regime(system: SystemModel) -> Regime:
    """The regime of the system's hazard mass per iteration.

    SAFE below :data:`SAFE_MASS_THRESHOLD`, where :func:`hybrid_system_mttf`
    runs AVF+SOFR; CAUTION below :data:`UNRELIABLE_MASS_THRESHOLD`; and
    UNRELIABLE above it.
    """
    return _classify_mass(
        system_hazard_mass(system),
        SAFE_MASS_THRESHOLD,
        UNRELIABLE_MASS_THRESHOLD,
    )


def hybrid_system_mttf(system: SystemModel) -> MTTFEstimate:
    """AVF+SOFR in the safe regime, the exact system MTTF elsewhere."""
    if hybrid_regime(system) is Regime.SAFE:
        return replace(avf_sofr_mttf(system), method="hybrid[avf+sofr]")
    return replace(
        first_principles_mttf(system), method="hybrid[first_principles]"
    )
