"""Registry adapters for every method the paper studies (plus hybrid).

Importing this module populates the registry with:

* ``avf`` — the AVF step alone (single-component systems);
* ``avf_sofr`` — the full standard AVF+SOFR pipeline (Figure 1);
* ``sofr_only`` — the SOFR step fed with component MTTFs from the run's
  reference method, isolating the combination error (Section 4.2);
* ``monte_carlo`` — the paper's reference simulation;
* ``first_principles`` — the exact closed-form renewal MTTF;
* ``softarch`` — the SoftArch probabilistic method (Section 5.4);
* ``hybrid`` — the validity-aware method selection (our extension).

Each adapter delegates to the same free functions the seed library
exposed, so numbers are bit-identical to direct calls with the same
seeds and trial counts.
"""

from __future__ import annotations

from ..core.avf import avf_step
from ..core.firstprinciples import first_principles_mttf
from ..core.hybrid import hybrid_system_mttf
from ..core.montecarlo import monte_carlo_mttf
from ..core.softarch import softarch_mttf
from ..core.sofr import avf_sofr_mttf, sofr_mttf_from_components
from ..core.system import SystemModel
from ..errors import ConfigurationError
from ..reliability.hazard import NestedHazard, PiecewiseHazard
from ..reliability.metrics import MTTFEstimate
from . import registry
from .base import MethodConfig
from .registry import register_method


def _single_instance(system: SystemModel) -> bool:
    components = system.components
    return len(components) == 1 and components[0].multiplicity == 1


@register_method("avf", supports=_single_instance)
def avf(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """The AVF step (Section 2.2) on a single-component system."""
    return avf_step(system.components[0])


@register_method("avf_sofr")
def avf_sofr(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """The standard AVF+SOFR pipeline (Figure 1)."""
    return avf_sofr_mttf(system)


@register_method("sofr_only", is_stochastic=True)
def sofr_only(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """The SOFR step alone, fed reference-method component MTTFs.

    Each instance's MTTF is the run's reference method's estimate of its
    one-instance system (Section 4.2), through the run's cache, so a
    cluster's instance is estimated once at every C and shares its entry
    with the one-component point. Stochastic whenever the reference is
    Monte Carlo (the paper's convention); exact under the closed form or
    SoftArch.
    """
    reference = registry.get(config.reference)
    if reference.name == "sofr_only":
        raise ConfigurationError(
            "sofr_only cannot take its component MTTFs from itself"
        )
    return sofr_mttf_from_components(
        system,
        lambda c: config.estimate(reference, c.alone()).mttf_seconds,
    )


@register_method("monte_carlo", is_stochastic=True)
def monte_carlo(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """The paper's Monte-Carlo reference simulation (Section 4.3)."""
    return monte_carlo_mttf(system, config.mc)


@register_method("first_principles")
def first_principles(
    system: SystemModel, config: MethodConfig
) -> MTTFEstimate:
    """Exact renewal-theory MTTF with no AVF/SOFR assumptions."""
    return first_principles_mttf(system)


def _softarch_supports(system: SystemModel) -> bool:
    try:
        intensity = system.combined_intensity()
    except Exception:
        return False
    return isinstance(intensity, (PiecewiseHazard, NestedHazard))


@register_method("softarch", supports=_softarch_supports)
def softarch(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """SoftArch event-accumulation MTTF (Section 5.4)."""
    return softarch_mttf(system)


@register_method("hybrid")
def hybrid(system: SystemModel, config: MethodConfig) -> MTTFEstimate:
    """Validity-aware hybrid: AVF+SOFR below a system hazard mass of 1e-3
    per iteration, the exact system MTTF above it."""
    return hybrid_system_mttf(system)
