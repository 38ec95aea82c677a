"""repro — reproduction of "Architecture-Level Soft Error Analysis:
Examining the Limits of Common Assumptions" (Li, Adve, Bose, Rivers,
DSN 2007).

The library answers the paper's question — *when do the AVF and SOFR
steps of the standard soft-error MTTF methodology break down?* — with a
complete toolchain:

* a cycle-level out-of-order processor model (:mod:`repro.microarch`)
  producing masking traces for SPEC-like workloads
  (:mod:`repro.workloads`);
* vulnerability-profile algebra (:mod:`repro.masking`) and raw-error-rate
  models (:mod:`repro.ser`);
* every MTTF method the paper studies (:mod:`repro.core`): the AVF step,
  the SOFR step, Monte-Carlo simulation, exact first-principles closed
  forms, and SoftArch — all behind one pluggable estimator registry
  (:mod:`repro.methods`);
* the Section-3 analytical models (:mod:`repro.analytical`) and the
  experiment harness regenerating every table and figure
  (:mod:`repro.harness`).

Quickstart — compare any registered methods on a system with the
``analyze`` facade::

    import repro

    profile = repro.busy_idle_profile(busy_time=repro.days(0.5),
                                      period=repro.days(1))
    component = repro.Component("cache", rate_per_second=1e-7,
                                profile=profile)
    system = repro.SystemModel([component])

    result = (
        repro.analyze(system, label="cache")
        .using("avf_sofr", "hybrid")     # any repro.methods.available()
        .against("exact")                # or "monte_carlo" (the paper)
        .run()
    )
    print(result[0].error("avf_sofr"))   # signed relative error
    print(result.to_json())              # serializable artifact
    print(repro.validity_report(system).summary())

Many systems at once — with memoized estimates (a cluster's instance
is estimated once at every C) and optional thread fan-out — go through
the batch engine::

    clusters = [
        (f"C={c}", repro.SystemModel(
            [repro.Component("node", 1e-7, profile, multiplicity=c)]))
        for c in (8, 5000, 50000)
    ]
    results = repro.evaluate_design_space(
        clusters, methods=["sofr_only", "hybrid"], workers=4)

New estimation methods plug in with
:func:`repro.methods.register_method` and are immediately usable from
``analyze``, ``evaluate_design_space`` and the ``repro-experiments``
CLI. The pre-registry free functions
(``avf_sofr_mttf``, ``monte_carlo_mttf``, ...) remain available.
"""

from .core import (
    Component,
    MethodComparison,
    MonteCarloConfig,
    PAPER_TRIAL_COUNT,
    Regime,
    SystemModel,
    ValidityReport,
    avf_mttf,
    avf_sofr_mttf,
    exact_component_mttf,
    first_principles_mttf,
    monte_carlo_component_mttf,
    monte_carlo_mttf,
    softarch_component_mttf,
    softarch_mttf,
    sofr_mttf_from_components,
    sofr_mttf_from_values,
    validity_report,
)
from . import methods
from .methods import (
    Analysis,
    ComponentCache,
    DiskCache,
    MethodConfig,
    ResultSet,
    analyze,
    evaluate_design_space,
    register_method,
)
from .masking import (
    MaskingTrace,
    NestedProfile,
    PiecewiseProfile,
    busy_idle_profile,
    from_cycle_mask,
)
from .reliability import FailureProcess, MTTFEstimate
from .ser import ComponentErrorModel, component_rate_per_second
from .units import (
    BASE_CLOCK_HZ,
    BASELINE_RATE_PER_BIT_YEAR,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    SECONDS_PER_YEAR,
    days,
    hours,
    years,
)

__version__ = "1.0.0"

__all__ = [
    "Analysis",
    "ComponentCache",
    "Component",
    "DiskCache",
    "MethodComparison",
    "MethodConfig",
    "ResultSet",
    "analyze",
    "evaluate_design_space",
    "methods",
    "register_method",
    "MonteCarloConfig",
    "PAPER_TRIAL_COUNT",
    "Regime",
    "SystemModel",
    "ValidityReport",
    "avf_mttf",
    "avf_sofr_mttf",
    "exact_component_mttf",
    "first_principles_mttf",
    "monte_carlo_component_mttf",
    "monte_carlo_mttf",
    "softarch_component_mttf",
    "softarch_mttf",
    "sofr_mttf_from_components",
    "sofr_mttf_from_values",
    "validity_report",
    "MaskingTrace",
    "NestedProfile",
    "PiecewiseProfile",
    "busy_idle_profile",
    "from_cycle_mask",
    "FailureProcess",
    "MTTFEstimate",
    "ComponentErrorModel",
    "component_rate_per_second",
    "BASE_CLOCK_HZ",
    "BASELINE_RATE_PER_BIT_YEAR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_WEEK",
    "SECONDS_PER_YEAR",
    "days",
    "hours",
    "years",
]
