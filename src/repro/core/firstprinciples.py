"""Exact first-principles MTTF (no AVF or SOFR assumptions).

The paper's ground truth is Monte-Carlo simulation of the raw error
process against the masking trace (Section 4.3). Because raw errors are
Poisson and masking is a deterministic (or per-strike independent)
thinning, the first-failure process is an inhomogeneous Poisson process
and the expectation the Monte Carlo estimates has a closed form:

    ``E[X] = (∫_0^L e^{-Λ(τ)} dτ) / (1 - e^{-Λ(L)})``

with ``Λ = Σ_i C_i λ_i V_i`` over the system's components. This module
evaluates that formula exactly. The test suite verifies the Monte Carlo
engine converges to these values, and the benchmarks use them as the
discrepancy reference (tighter than MC at equal cost).
"""

from __future__ import annotations

from ..masking.profile import VulnerabilityProfile
from ..reliability.metrics import MTTFEstimate
from ..reliability.process import FailureProcess
from .system import SystemModel


def exact_component_mttf(
    rate_per_second: float, profile: VulnerabilityProfile
) -> float:
    """Exact MTTF (seconds) of a single masked component."""
    process = FailureProcess(profile.to_hazard(rate_per_second))
    return process.mttf()


def exact_system_process(system: SystemModel) -> FailureProcess:
    """The exact first-failure process of the whole series system."""
    return FailureProcess(system.combined_intensity())


def first_principles_mttf(system: SystemModel) -> MTTFEstimate:
    """Exact system MTTF from first principles."""
    return MTTFEstimate(
        mttf_seconds=exact_system_process(system).mttf(),
        method="first_principles",
    )
