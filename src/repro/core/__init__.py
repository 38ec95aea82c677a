"""The paper's primary contribution: MTTF methods and their validity.

This package contains every MTTF estimation method the paper studies and
the apparatus to compare them:

* :mod:`~repro.core.system` — the shared system model (components =
  raw rate x vulnerability profile x multiplicity);
* :mod:`~repro.core.avf` — the AVF step;
* :mod:`~repro.core.sofr` — the SOFR step (alone, and the full
  AVF+SOFR pipeline);
* :mod:`~repro.core.montecarlo` — the paper's Monte-Carlo reference
  (a fast inverse-hazard sampler, plus the paper's arrival-resampling
  sampler that ``ablation.samplers`` checks it against);
* :mod:`~repro.core.firstprinciples` — the exact closed-form MTTF;
* :mod:`~repro.core.softarch` — the SoftArch probabilistic method;
* :mod:`~repro.core.comparison` — discrepancy measurement;
* :mod:`~repro.core.validity` — the λ·L validity advisor encoding the
  paper's conclusions;
* :mod:`~repro.core.hybrid` — the paper's "best combination of
  methodologies": AVF+SOFR where the system's hazard mass per iteration
  is small, the exact MTTF elsewhere.

Design-space sweeps run through the batch engine
(:func:`repro.methods.evaluate_design_space`); ``core`` imports nothing
from :mod:`repro.methods`.
"""

from .avf import avf_mttf, avf_step
from .comparison import MethodComparison
from .firstprinciples import (
    exact_component_mttf,
    exact_system_process,
    first_principles_mttf,
)
from .montecarlo import (
    ARRIVAL_INSTANCE_LIMIT,
    MonteCarloConfig,
    PAPER_TRIAL_COUNT,
    monte_carlo_component_mttf,
    monte_carlo_mttf,
    sample_component_ttf,
    sample_system_ttf,
)
from .softarch import (
    OutputEvent,
    SoftArchTimeline,
    softarch_component_mttf,
    softarch_mttf,
    timeline_from_intensity,
)
from .hybrid import hybrid_regime, hybrid_system_mttf
from .sofr import avf_sofr_mttf, sofr_mttf_from_components, sofr_mttf_from_values
from .system import Component, SystemModel
from .validity import (
    ComponentValidity,
    Regime,
    ValidityReport,
    component_validity,
    validity_report,
)

__all__ = [
    "avf_mttf",
    "avf_step",
    "MethodComparison",
    "exact_component_mttf",
    "exact_system_process",
    "first_principles_mttf",
    "ARRIVAL_INSTANCE_LIMIT",
    "MonteCarloConfig",
    "PAPER_TRIAL_COUNT",
    "monte_carlo_component_mttf",
    "monte_carlo_mttf",
    "sample_component_ttf",
    "sample_system_ttf",
    "OutputEvent",
    "SoftArchTimeline",
    "softarch_component_mttf",
    "softarch_mttf",
    "timeline_from_intensity",
    "hybrid_regime",
    "hybrid_system_mttf",
    "avf_sofr_mttf",
    "sofr_mttf_from_components",
    "sofr_mttf_from_values",
    "Component",
    "SystemModel",
    "ComponentValidity",
    "Regime",
    "ValidityReport",
    "component_validity",
    "validity_report",
]
