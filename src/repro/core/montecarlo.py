"""Monte-Carlo MTTF estimation (Section 4.3).

The paper's reference method, implemented with two distribution-identical
samplers:

* ``"arrival"`` — the paper's procedure, verbatim: for each component,
  draw an exponential raw-error inter-arrival time, test the masking
  trace at the arrival instant, resample while masked; the component
  fails at the first unmasked arrival and the earliest component failure
  is the system's time to failure.
* ``"inverse"`` — inverse cumulative-hazard transform on the thinned
  (failure) process: ``X = Λ⁻¹(E)``, ``E ~ Exp(1)``. One uniform draw per
  trial regardless of the masking ratio or the number of components
  (hazards of independent components superpose), which is what makes the
  paper's 10^6-trial x 5*10^5-component cluster points tractable in
  Python. The test suite verifies the two samplers agree.

The paper runs 1,000,000 trials per configuration
(:data:`PAPER_TRIAL_COUNT`); estimates report standard errors so callers
can trade trials for precision knowingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EstimationError
from ..reliability.metrics import MTTFEstimate
from .system import Component, SystemModel

#: Trials used throughout the paper's evaluation (Section 4.3).
PAPER_TRIAL_COUNT = 1_000_000

#: Instance limit above which the arrival sampler refuses to expand
#: multiplicities (use the inverse sampler for large clusters).
ARRIVAL_INSTANCE_LIMIT = 4096


@dataclass(frozen=True)
class MonteCarloConfig:
    """Configuration of a Monte-Carlo estimation run.

    Attributes
    ----------
    trials:
        Number of independent trials. The paper uses 1e6.
    seed:
        Seed for the underlying PCG64 generator; every run is
        reproducible.
    method:
        ``"inverse"`` (default) or ``"arrival"`` (the paper's literal
        resampling procedure; restricted to modest component counts).
    start_phase:
        Where within the workload loop the observation starts.
        ``"zero"`` (default) starts every trial at the beginning of the
        masking trace — the literal reading of the paper's procedure.
        ``"random"`` draws a uniform offset into the loop per trial (all
        components synchronized at the same offset), modelling a system
        whose failure clock starts at an arbitrary point of the
        day/week cycle. The choice only matters when the hazard mass per
        iteration is large (MTTF comparable to the loop length); see the
        fig6b experiment notes.
    max_arrival_rounds:
        Safety cap on resampling rounds per trial for the arrival
        sampler; ``None`` derives a generous cap from the masking ratio.
    """

    trials: int = 200_000
    seed: int = 0
    method: str = "inverse"
    start_phase: str = "zero"
    max_arrival_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise EstimationError(f"trials must be >= 1, got {self.trials}")
        if self.method not in ("inverse", "arrival"):
            raise EstimationError(
                f"unknown method {self.method!r}; use 'inverse' or 'arrival'"
            )
        if self.start_phase not in ("zero", "random"):
            raise EstimationError(
                f"unknown start phase {self.start_phase!r}; "
                "use 'zero' or 'random'"
            )


def _estimate_from_samples(
    samples: np.ndarray, method_label: str
) -> MTTFEstimate:
    if np.all(np.isinf(samples)):
        return MTTFEstimate(
            mttf_seconds=math.inf,
            trials=int(samples.size),
            method=method_label,
        )
    if np.any(np.isinf(samples)):
        # A cyclic profile with positive mass fails with probability 1;
        # infinities can only come from zero-mass components.
        raise EstimationError(
            "mixed finite/infinite failure times; check component masses"
        )
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(samples.size)) if (
        samples.size > 1
    ) else 0.0
    return MTTFEstimate(
        mttf_seconds=mean,
        std_error_seconds=stderr,
        trials=int(samples.size),
        method=method_label,
    )


# ---------------------------------------------------------------------------
# Samplers.
# ---------------------------------------------------------------------------


def sample_system_ttf(
    system: SystemModel, config: MonteCarloConfig
) -> np.ndarray:
    """Draw ``trials`` i.i.d. system times to failure (seconds).

    Inverse draws run against the system's compiled, fingerprint-cached
    sampling plan (:mod:`repro.core.kernel`), built once per design point.
    """
    if config.method == "inverse":
        from . import kernel as _kernel

        return _kernel.plan_for_system(system).sample_ttf(config)
    rng = np.random.default_rng(config.seed)
    return _arrival_system_ttf(system, config.trials, rng, config)


def sample_component_ttf(
    component: Component, config: MonteCarloConfig
) -> np.ndarray:
    """Draw times to failure for a single component instance."""
    if config.method == "inverse":
        from . import kernel as _kernel

        return _kernel.plan_for_component(component).sample_ttf(config)
    rng = np.random.default_rng(config.seed)
    return _arrival_component_ttf(component, config.trials, rng, config)


def _mttf(sample, target, config) -> MTTFEstimate:
    """One target's estimate from ``config.trials`` draws."""
    config = config or MonteCarloConfig()
    return _estimate_from_samples(
        sample(target, config), f"monte_carlo[{config.method}]"
    )


def monte_carlo_mttf(
    system: SystemModel, config: MonteCarloConfig | None = None
) -> MTTFEstimate:
    """Monte-Carlo system MTTF (the paper's reference value)."""
    return _mttf(sample_system_ttf, system, config)


def monte_carlo_component_mttf(
    component: Component, config: MonteCarloConfig | None = None
) -> MTTFEstimate:
    """Monte-Carlo MTTF of one component instance."""
    return _mttf(sample_component_ttf, component, config)


# ---------------------------------------------------------------------------
# Arrival (paper-literal) sampler.
# ---------------------------------------------------------------------------


def _arrival_rounds_cap(component: Component, configured: int | None) -> int:
    if configured is not None:
        return configured
    avf = component.avf
    if avf <= 0:
        raise EstimationError(
            f"{component.name}: arrival sampling cannot terminate with "
            "AVF = 0 (never vulnerable); use the inverse sampler"
        )
    # Expected rounds per trial is 1/AVF; allow a wide safety margin so
    # the probability of truncation is negligible (< exp(-50)).
    return max(1000, int(60.0 / avf))


def _arrival_component_ttf(
    component: Component,
    trials: int,
    rng: np.random.Generator,
    config: MonteCarloConfig,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """The paper's resampling loop, vectorised across trials.

    For each trial: accumulate exponential inter-arrival times; at each
    arrival, look up the vulnerability at (t mod L) and draw a Bernoulli
    masking decision; stop at the first unmasked arrival. ``offsets``
    (per-trial loop start phases) implement the random-phase convention.
    """
    rate = component.rate_per_second
    if rate <= 0:
        return np.full(trials, np.inf)
    profile = component.profile
    period = profile.period
    cap = _arrival_rounds_cap(component, config.max_arrival_rounds)
    if offsets is None and config.start_phase == "random":
        offsets = rng.uniform(0.0, period, size=trials)
    times = offsets.copy() if offsets is not None else np.zeros(trials)
    result = np.full(trials, np.inf)
    active = np.arange(trials)
    for _round in range(cap):
        if active.size == 0:
            break
        times[active] += rng.exponential(1.0 / rate, size=active.size)
        tau = np.mod(times[active], period)
        # mod can return exactly `period` through float rounding.
        tau = np.where(tau >= period, 0.0, tau)
        vulnerability = np.asarray(profile.value_at(tau), dtype=float)
        unmasked = rng.random(active.size) < vulnerability
        failed = active[unmasked]
        result[failed] = times[failed]
        active = active[~unmasked]
    if active.size:
        raise EstimationError(
            f"{component.name}: {active.size} trials did not fail within "
            f"{cap} resampling rounds; raise max_arrival_rounds or use the "
            "inverse sampler"
        )
    if offsets is not None:
        result -= offsets
    return result


def _arrival_system_ttf(
    system: SystemModel,
    trials: int,
    rng: np.random.Generator,
    config: MonteCarloConfig,
) -> np.ndarray:
    """Min-over-components arrival sampling (multiplicities expanded)."""
    total_instances = system.component_count
    if total_instances > ARRIVAL_INSTANCE_LIMIT:
        raise EstimationError(
            f"arrival sampling would expand {total_instances} component "
            f"instances (> {ARRIVAL_INSTANCE_LIMIT}); use method='inverse'"
        )
    offsets = None
    if config.start_phase == "random":
        # All components run the same workload (Section 4.2), so they
        # share one loop offset per trial.
        period = system.components[0].profile.period
        offsets = rng.uniform(0.0, period, size=trials)
    best = np.full(trials, np.inf)
    for comp in system.components:
        for _instance in range(comp.multiplicity):
            ttf = _arrival_component_ttf(
                comp, trials, rng, config, offsets=offsets
            )
            np.minimum(best, ttf, out=best)
    return best
