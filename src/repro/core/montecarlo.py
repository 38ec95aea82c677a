"""Monte-Carlo MTTF estimation (Section 4.3).

The paper's reference method, implemented with two distribution-identical
samplers:

* the inverse sampler, which every estimate runs
  (:func:`sample_system_ttf`, :func:`monte_carlo_mttf`): inverse
  cumulative-hazard transform on the thinned (failure) process,
  ``X = Λ⁻¹(E)``, ``E ~ Exp(1)``. One exponential draw per trial
  regardless of the masking ratio or the number of components (hazards
  of independent components superpose), which is what makes the paper's
  10^6-trial x 5*10^5-component cluster points tractable in Python;
* the arrival sampler, the paper's procedure verbatim
  (:func:`arrival_system_ttf`): for each component, draw an exponential
  raw-error inter-arrival time, test the masking trace at the arrival
  instant, resample while masked; the component fails at the first
  unmasked arrival and the earliest component failure is the system's
  time to failure. ``ablation.samplers`` checks that the two agree.

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
from . import kernel
from .system import Component, SystemModel

#: Trials used throughout the paper's evaluation (Section 4.3).
PAPER_TRIAL_COUNT = 1_000_000

#: Instance limit above which the arrival sampler refuses to expand
#: multiplicities (the inverse sampler draws large clusters).
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
    """

    trials: int = 200_000
    seed: int = 0
    start_phase: str = "zero"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise EstimationError(f"trials must be >= 1, got {self.trials}")
        if self.start_phase not in ("zero", "random"):
            raise EstimationError(
                f"unknown start phase {self.start_phase!r}; "
                "use 'zero' or 'random'"
            )


def _estimate_from_samples(
    samples: np.ndarray, method_label: str
) -> MTTFEstimate:
    """The mean and standard error of ``samples``, from one summation.

    The bits are ``samples.mean()`` and ``samples.std(ddof=1) /
    sqrt(n)``: the sum is NumPy's pairwise ``add.reduce``, and the
    deviation pass repeats NumPy's ``_var`` (subtract the mean, square
    in place, sum, divide by ``n - 1``, square root). A finite sum
    means no sample is infinite, so the infinity scans run only when it
    is not.
    """
    n = samples.size
    total = np.add.reduce(samples)
    if not np.isfinite(total):
        if np.all(np.isinf(samples)):
            return MTTFEstimate(
                mttf_seconds=math.inf, trials=int(n), method=method_label
            )
        if np.any(np.isinf(samples)):
            # A cyclic profile with positive mass fails with probability
            # 1; infinities can only come from zero-mass components.
            raise EstimationError(
                "mixed finite/infinite failure times; check component "
                "masses"
            )
    mean = total / n
    stderr = 0.0
    if n > 1:
        deviations = np.subtract(samples, mean)
        np.square(deviations, out=deviations)
        variance = np.add.reduce(deviations) / (n - 1)
        stderr = float(np.sqrt(variance) / math.sqrt(n))
    return MTTFEstimate(
        mttf_seconds=float(mean),
        std_error_seconds=stderr,
        trials=int(n),
        method=method_label,
    )


# ---------------------------------------------------------------------------
# Samplers.
# ---------------------------------------------------------------------------


def sample_system_ttf(
    system: SystemModel, config: MonteCarloConfig
) -> np.ndarray:
    """Draw ``trials`` i.i.d. system times to failure (seconds).

    Inverse draws against the system's compiled, fingerprint-cached
    sampling plan (:func:`repro.core.kernel.inverse_system_ttf`), built
    once per design point.
    """
    return kernel.inverse_system_ttf(system, config)


def sample_component_ttf(
    component: Component, config: MonteCarloConfig
) -> np.ndarray:
    """Draw times to failure for a single component instance."""
    return sample_system_ttf(component.alone(), config)


def monte_carlo_mttf(
    system: SystemModel, config: MonteCarloConfig | None = None
) -> MTTFEstimate:
    """Monte-Carlo system MTTF (the paper's reference value)."""
    config = config or MonteCarloConfig()
    return _estimate_from_samples(
        sample_system_ttf(system, config), "monte_carlo[inverse]"
    )


def monte_carlo_component_mttf(
    component: Component, config: MonteCarloConfig | None = None
) -> MTTFEstimate:
    """Monte-Carlo MTTF of one component instance."""
    return monte_carlo_mttf(component.alone(), config)


# ---------------------------------------------------------------------------
# Arrival (paper-literal) sampler.
# ---------------------------------------------------------------------------


def _arrival_rounds_cap(component: Component) -> int:
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
    offsets: np.ndarray | None,
) -> np.ndarray:
    """The paper's resampling loop for one instance, vectorised across
    trials.

    For each trial: accumulate exponential inter-arrival times; at each
    arrival, look up the vulnerability at (t mod L) and draw a Bernoulli
    masking decision; stop at the first unmasked arrival. ``offsets``
    (per-trial loop start phases, ``None`` at zero phase) implement the
    random-phase convention.
    """
    rate = component.rate_per_second
    if rate <= 0:
        return np.full(trials, np.inf)
    profile = component.profile
    period = profile.period
    cap = _arrival_rounds_cap(component)
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
            f"{cap} resampling rounds; use the inverse sampler"
        )
    if offsets is not None:
        result -= offsets
    return result


def arrival_system_ttf(
    system: SystemModel, config: MonteCarloConfig
) -> np.ndarray:
    """``config.trials`` system times to failure by the paper-literal
    arrival sampler: the minimum over every component instance
    (multiplicities expanded) of its resampling loop, all drawn from one
    generator seeded with ``config.seed``. No estimate runs it;
    ``ablation.samplers`` compares it with the inverse sampler.
    """
    total_instances = system.component_count
    if total_instances > ARRIVAL_INSTANCE_LIMIT:
        raise EstimationError(
            f"arrival sampling would expand {total_instances} component "
            f"instances (> {ARRIVAL_INSTANCE_LIMIT}); use the inverse "
            "sampler"
        )
    trials = config.trials
    rng = np.random.default_rng(config.seed)
    offsets = None
    if config.start_phase == "random":
        # All components run the same workload (Section 4.2), so they
        # share one loop offset per trial.
        period = system.components[0].profile.period
        offsets = rng.uniform(0.0, period, size=trials)
    best = np.full(trials, np.inf)
    for comp in system.components:
        for _instance in range(comp.multiplicity):
            ttf = _arrival_component_ttf(comp, trials, rng, offsets)
            np.minimum(best, ttf, out=best)
    return best
