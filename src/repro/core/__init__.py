"""The paper's primary contribution: MTTF methods and their validity.

This package contains every MTTF estimation method the paper studies and
the apparatus to compare them:

* :mod:`~repro.core.system` — the shared system model (components =
  raw rate x vulnerability profile x multiplicity);
* :mod:`~repro.core.avf` — the AVF step;
* :mod:`~repro.core.sofr` — the SOFR step (alone, and the full
  AVF+SOFR pipeline);
* :mod:`~repro.core.montecarlo` — the paper's Monte-Carlo reference
  (arrival-resampling sampler plus a distribution-identical fast
  inverse-hazard sampler);
* :mod:`~repro.core.firstprinciples` — the exact closed-form MTTF;
* :mod:`~repro.core.softarch` — the SoftArch probabilistic method;
* :mod:`~repro.core.comparison` — discrepancy measurement;
* :mod:`~repro.core.validity` — the λ·L validity advisor encoding the
  paper's conclusions;
* :mod:`~repro.core.designspace` — the Table-2 sweep engine.
"""

from .avf import avf_mttf, avf_step, derated_failure_rate
from .comparison import MethodComparison
from .designspace import (
    DesignPoint,
    SweepOutcome,
    SweepResult,
    component_sweep,
    system_sweep,
    table2_points,
)
from .firstprinciples import (
    exact_component_mttf,
    exact_component_process,
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
from .softarch_values import SoftArchRates, softarch_from_value_graph
from .bounds import (
    avf_error_bound,
    avf_error_first_order,
    corrected_avf_mttf,
    phase_skew_coefficient,
)
from .hybrid import HybridEstimate, hybrid_component_mttf, hybrid_system_mttf
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
    "derated_failure_rate",
    "MethodComparison",
    "DesignPoint",
    "SweepOutcome",
    "SweepResult",
    "component_sweep",
    "system_sweep",
    "table2_points",
    "exact_component_mttf",
    "exact_component_process",
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
    "SoftArchRates",
    "softarch_from_value_graph",
    "avf_error_bound",
    "avf_error_first_order",
    "corrected_avf_mttf",
    "phase_skew_coefficient",
    "HybridEstimate",
    "hybrid_component_mttf",
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
