"""The ``repro.analyze`` fluent facade.

One call surface for every estimation method::

    import repro

    result = (
        repro.analyze(system, label="cluster")
        .using("avf_sofr", "hybrid")
        .against("exact")
        .run()
    )
    print(result[0].error("avf_sofr"))

``using`` selects registered methods (see
:func:`repro.methods.available`), ``against`` picks the reference
(``"monte_carlo"``, the paper's choice, or ``"exact"``), and ``run``
evaluates the one labelled system through the batch engine
(:func:`~repro.methods.batch.evaluate_design_space`) and returns its
serializable :class:`~repro.methods.results.ResultSet`.
"""

from __future__ import annotations

from ..core.montecarlo import MonteCarloConfig
from ..core.system import SystemModel
from ..errors import ConfigurationError
from . import registry
from .batch import evaluate_design_space
from .results import ResultSet

class Analysis:
    """Fluent builder for a one-system method comparison."""

    def __init__(self, system: SystemModel, label: str = ""):
        if not isinstance(system, SystemModel):
            raise ConfigurationError(
                f"analyze() needs a SystemModel, got {type(system).__name__}"
            )
        self._system = system
        self._label = label
        self._methods: tuple[str, ...] = ()
        self._reference = "monte_carlo"
        self._mc: MonteCarloConfig | None = None

    def using(self, *method_names: str) -> "Analysis":
        """Select the methods to run (at least one, all registered)."""
        if not method_names:
            raise ConfigurationError(
                "using() needs at least one method name; available: "
                f"{registry.available()}"
            )
        resolved = []
        for name in method_names:
            estimator = registry.get(name)  # raises with the names hint
            if estimator.name not in resolved:
                resolved.append(estimator.name)
        self._methods = tuple(resolved)
        return self

    def against(self, reference: str) -> "Analysis":
        """Pick the reference method the errors are measured against."""
        self._reference = registry.check_reference(reference)
        return self

    def with_mc(self, mc_config: MonteCarloConfig | None) -> "Analysis":
        """Set the Monte-Carlo configuration (trials/seed/sampler)."""
        if mc_config is not None:
            self._mc = mc_config
        return self

    def run(self) -> ResultSet:
        """Execute the analysis and return a serializable ResultSet."""
        if not self._methods:
            raise ConfigurationError(
                "no methods selected; call using(...) before run()"
            )
        return evaluate_design_space(
            [(self._label, self._system)],
            methods=self._methods,
            reference=self._reference,
            mc_config=self._mc,
        )


def analyze(system: SystemModel, label: str = "") -> Analysis:
    """Start a fluent method comparison on one system."""
    return Analysis(system, label=label)
