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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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
class StoppingRule:
    """Precision-driven stopping criterion for adaptive estimation.

    The engine schedules trial chunks until the *merged* estimate is
    precise enough, instead of always running a fixed trial count:

    * ``target_rel_stderr`` — stop once
      ``stderr / mean <= target_rel_stderr``;
    * ``target_ci_halfwidth`` — stop once the normal-approximation
      confidence half-width ``z * stderr`` (seconds) is at or below
      this bound;
    * ``min_trials`` — never stop before this many trials have merged
      (guards against lucky early chunks on heavy-tailed TTFs);
    * ``max_trials`` — trial budget; ``None`` keeps the configured
      ``MonteCarloConfig.trials`` as the budget. A larger value lets an
      adaptive run *extend past* the configured trials when the target
      has not been reached.

    At least one target must be set. The rule is evaluated on the
    in-order chunk prefix (see :class:`MomentAccumulator`), so the stop
    decision — and therefore the estimate — is a pure function of the
    configuration, never of worker count, executor, or chunk completion
    order. Stopping happens at *chunk* boundaries: with
    ``MonteCarloConfig(chunks=1)`` the single chunk covers the whole
    budget and no early stop is possible — pair a rule with a real
    chunk count (the CLI defaults ``--target-stderr`` runs to 16).
    """

    target_rel_stderr: float | None = None
    target_ci_halfwidth: float | None = None
    min_trials: int = 0
    max_trials: int | None = None
    z: float = 1.96

    def __post_init__(self) -> None:
        if self.target_rel_stderr is None and (
            self.target_ci_halfwidth is None
        ):
            raise EstimationError(
                "a StoppingRule needs target_rel_stderr and/or "
                "target_ci_halfwidth"
            )
        # ``not value > 0`` also refuses NaN, which ``value <= 0`` passes.
        for name in ("target_rel_stderr", "target_ci_halfwidth"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise EstimationError(
                    f"{name} must be positive, got {value}"
                )
        if self.min_trials < 0:
            raise EstimationError(
                f"min_trials must be >= 0, got {self.min_trials}"
            )
        if self.max_trials is not None and self.max_trials < 1:
            raise EstimationError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )
        if not self.z > 0:
            raise EstimationError(f"z must be positive, got {self.z}")

    def satisfied(self, moments: "SampleMoments") -> bool:
        """Whether the merged moments already meet every set target.

        An all-censored prefix (``mean = inf``: no failures drawn yet)
        is *never* "precise enough" — stopping there would silently
        cache MTTF=inf where the fixed-count run either returns a
        legitimate infinity after the full budget or fails loudly on
        mixed finite/infinite chunks. Keep scheduling instead.
        """
        if moments.count < max(2, self.min_trials):
            return False
        if math.isinf(moments.mean):
            return False
        stderr = moments.stderr
        if self.target_rel_stderr is not None:
            if stderr > self.target_rel_stderr * abs(moments.mean):
                return False
        if self.target_ci_halfwidth is not None:
            if self.z * stderr > self.target_ci_halfwidth:
                return False
        return True

    def token(self) -> str:
        """Canonical cache-key fragment (see ``repro.methods.cache``)."""
        return (
            f"rel={self.target_rel_stderr},ci={self.target_ci_halfwidth},"
            f"min={self.min_trials},max={self.max_trials},z={self.z}"
        )


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
    chunks:
        Number of independent sub-runs the trials are split into
        (default 1: one monolithic run, numbers identical to earlier
        releases). With ``chunks > 1`` each chunk draws from its own
        :class:`numpy.random.SeedSequence` spawn of ``seed`` and the
        chunk moments are merged in chunk order, so the estimate is a
        pure function of the configuration — the batch engine can
        execute chunks serially, across threads, or across processes
        and always reproduce the same mean and standard error.
    stopping:
        Optional :class:`StoppingRule`. When set, runs become
        *adaptive*: chunks (of size ``trials / chunks``) are scheduled
        one at a time until the rule's precision target is met or the
        trial budget (``stopping.max_trials``, default ``trials``) is
        exhausted. ``None`` (default) reproduces the fixed-count
        behaviour bit-identically.
    """

    trials: int = 200_000
    seed: int = 0
    method: str = "inverse"
    start_phase: str = "zero"
    max_arrival_rounds: int | None = None
    chunks: int = 1
    stopping: StoppingRule | None = None

    @property
    def adaptive(self) -> bool:
        """Whether this run stops on precision rather than trial count."""
        return self.stopping is not None

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
        if self.chunks < 1:
            raise EstimationError(f"chunks must be >= 1, got {self.chunks}")


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
# Trial-chunked reduction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleMoments:
    """Sufficient statistics of one chunk of TTF samples.

    ``m2`` is the sum of squared deviations from the chunk mean (the
    Welford/Chan ``M2``), which merges exactly across chunks — the
    merged (count, mean, m2) equal the whole-array statistics up to
    floating-point rounding, so a chunked run reports the same standard
    error a monolithic run over the concatenated samples would.
    An all-infinite chunk (zero-mass component) has ``mean = inf``.
    """

    count: int
    mean: float
    m2: float

    @property
    def stderr(self) -> float:
        """Standard error of the mean; 0 below two samples or at inf."""
        if self.count < 2 or math.isinf(self.mean):
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)

    @property
    def rel_stderr(self) -> float | None:
        """``stderr / |mean|``, or ``None`` while undefined."""
        if self.count < 2 or math.isinf(self.mean) or self.mean == 0.0:
            return None
        return self.stderr / abs(self.mean)


def moments_from_samples(samples: np.ndarray) -> SampleMoments:
    """Reduce a sample array to its mergeable sufficient statistics."""
    if np.all(np.isinf(samples)):
        return SampleMoments(int(samples.size), math.inf, 0.0)
    if np.any(np.isinf(samples)):
        raise EstimationError(
            "mixed finite/infinite failure times; check component masses"
        )
    mean = float(samples.mean())
    m2 = float(np.square(samples - mean).sum())
    return SampleMoments(int(samples.size), mean, m2)


def merge_moments(parts: Sequence[SampleMoments]) -> SampleMoments:
    """Left-fold merge (Chan et al.) — deterministic in ``parts`` order."""
    if not parts:
        raise EstimationError("no sample moments to merge")
    total = parts[0]
    for part in parts[1:]:
        if math.isinf(total.mean) or math.isinf(part.mean):
            if math.isinf(total.mean) and math.isinf(part.mean):
                total = SampleMoments(
                    total.count + part.count, math.inf, 0.0
                )
                continue
            raise EstimationError(
                "mixed finite/infinite failure times across chunks; "
                "check component masses"
            )
        count = total.count + part.count
        delta = part.mean - total.mean
        mean = total.mean + delta * part.count / count
        m2 = (
            total.m2
            + part.m2
            + delta * delta * total.count * part.count / count
        )
        total = SampleMoments(count, mean, m2)
    return total


def estimate_from_moments(
    moments: SampleMoments, method_label: str
) -> MTTFEstimate:
    """Build the reported estimate from merged chunk statistics."""
    if math.isinf(moments.mean):
        return MTTFEstimate(
            mttf_seconds=math.inf,
            trials=moments.count,
            method=method_label,
        )
    return MTTFEstimate(
        mttf_seconds=moments.mean,
        std_error_seconds=moments.stderr,
        trials=moments.count,
        method=method_label,
    )


def chunk_configs(config: MonteCarloConfig) -> list[MonteCarloConfig]:
    """Split one MC configuration into its per-chunk configurations.

    Chunk seeds come from ``SeedSequence(seed).spawn(...)`` — statistically
    independent streams fully determined by the parent seed and the chunk
    index, never by which worker executes the chunk. Trials divide as
    evenly as possible (first chunks take the remainder). The split is a
    pure function of the configuration, which is what makes
    ``workers=1`` and ``workers=N`` runs numerically identical at fixed
    chunking.
    """
    chunks = min(config.chunks, config.trials)
    children = np.random.SeedSequence(config.seed).spawn(chunks)
    base, extra = divmod(config.trials, chunks)
    configs = []
    for index, child in enumerate(children):
        configs.append(
            replace(
                config,
                trials=base + (1 if index < extra else 0),
                seed=int(child.generate_state(1, np.uint64)[0]),
                chunks=1,
                stopping=None,
            )
        )
    return configs


def adaptive_chunk_configs(
    config: MonteCarloConfig,
) -> list[MonteCarloConfig]:
    """The full chunk plan of a run, including any adaptive extension.

    Without a stopping rule this is exactly :func:`chunk_configs`. With
    one, the plan starts with the fixed-chunking split of
    ``config.trials`` and ``stopping.max_trials`` adjusts the budget in
    either direction: a larger value extends the plan with further
    equal-size chunks, a smaller one truncates it — in both cases the
    final chunk is clamped so the plan's total trials equal the budget
    *exactly* (``max_trials`` is a hard cap, never overshot). Chunk
    seeds come from ``SeedSequence(seed).spawn(...)``, whose children
    are a pure function of the chunk *index*, so extension and
    truncation both preserve earlier chunks untouched: an adaptive run
    that stops within the first ``config.chunks`` chunks has drawn
    exactly the samples the fixed run would have.
    """
    plan = chunk_configs(config)
    stopping = config.stopping
    if stopping is None or stopping.max_trials is None or (
        stopping.max_trials == config.trials
    ):
        return plan
    if stopping.max_trials < config.trials:
        kept, covered = [], 0
        for chunk in plan:
            take = min(chunk.trials, stopping.max_trials - covered)
            kept.append(
                chunk if take == chunk.trials else replace(
                    chunk, trials=take
                )
            )
            covered += take
            if covered >= stopping.max_trials:
                break
        return kept
    chunk_trials = max(1, config.trials // len(plan))
    extension = stopping.max_trials - config.trials
    extra = -(-extension // chunk_trials)
    children = np.random.SeedSequence(config.seed).spawn(
        len(plan) + extra
    )
    remaining = extension
    for index in range(len(plan), len(plan) + extra):
        plan.append(
            replace(
                config,
                trials=min(chunk_trials, remaining),
                seed=int(children[index].generate_state(1, np.uint64)[0]),
                chunks=1,
                stopping=None,
            )
        )
        remaining -= plan[-1].trials
    return plan


class MomentAccumulator:
    """Streaming, order-independent reducer of chunk moments.

    Chunks may *arrive* in any order (whatever order a pool completes
    them in) but are *folded* strictly in chunk-index order: chunk ``k``
    merges only after chunks ``0..k-1`` have merged, and the stopping
    rule is evaluated after every single fold. Both properties together
    make the result a pure function of the chunk plan — the merged
    moments, the achieved precision, and the early-stop decision are
    bit-identical whether chunks complete serially, across threads, or
    across processes in any interleaving.
    """

    def __init__(
        self, total_chunks: int, stopping: StoppingRule | None = None
    ) -> None:
        if total_chunks < 1:
            raise EstimationError(
                f"total_chunks must be >= 1, got {total_chunks}"
            )
        self.total_chunks = total_chunks
        self.stopping = stopping
        self.moments: SampleMoments | None = None
        #: True once the stopping rule's targets were met.
        self.satisfied = False
        self._pending: dict[int, SampleMoments] = {}
        self._next = 0

    @property
    def merged_chunks(self) -> int:
        """How many chunks have folded into :attr:`moments` so far."""
        return self._next

    @property
    def done(self) -> bool:
        """Whether the estimate is final (budget spent or target met)."""
        return self.satisfied or self._next >= self.total_chunks

    @property
    def stopped_early(self) -> bool:
        """Whether the rule ended the run before the full chunk plan."""
        return self.satisfied and self._next < self.total_chunks

    def add(self, index: int, moments: SampleMoments) -> bool:
        """Record one chunk's moments; fold any ready in-order prefix.

        Returns :attr:`done` so callers can stop scheduling/cancelling
        as soon as the estimate is final. Chunks received after the run
        is done (stragglers from a cancelled wave) are ignored.
        """
        if self.done:
            return True
        if not 0 <= index < self.total_chunks:
            raise EstimationError(
                f"chunk index {index} outside plan of {self.total_chunks}"
            )
        self._pending[index] = moments
        while not self.done and self._next in self._pending:
            part = self._pending.pop(self._next)
            self.moments = (
                part
                if self.moments is None
                else merge_moments([self.moments, part])
            )
            self._next += 1
            if self.stopping is not None and self.stopping.satisfied(
                self.moments
            ):
                self.satisfied = True
        return self.done

    def estimate(self, method_label: str) -> MTTFEstimate:
        """The final estimate from everything folded so far."""
        if self.moments is None:
            raise EstimationError("no chunk moments accumulated")
        return estimate_from_moments(self.moments, method_label)


def accumulate_chunks(
    chunk_fn: Callable[[MonteCarloConfig], SampleMoments],
    config: MonteCarloConfig,
) -> MomentAccumulator:
    """Serially run a chunk plan through a :class:`MomentAccumulator`.

    This is the reference (single-worker) form of the streaming
    reduction the batch engine performs across a pool: same plan, same
    in-order fold, same stopping decision — so serial and fanned-out
    runs agree to the bit, adaptive or not.
    """
    plan = adaptive_chunk_configs(config)
    accumulator = MomentAccumulator(len(plan), config.stopping)
    for index, chunk in enumerate(plan):
        if accumulator.add(index, chunk_fn(chunk)):
            break
    return accumulator


def system_chunk_moments(
    system: SystemModel, config: MonteCarloConfig
) -> SampleMoments:
    """One chunk's reduction for a system."""
    return moments_from_samples(sample_system_ttf(system, config))


def component_chunk_moments(
    component: Component, config: MonteCarloConfig
) -> SampleMoments:
    """One chunk's reduction for a single component instance."""
    return moments_from_samples(sample_component_ttf(component, config))


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


def _mttf(chunk_moments, sample, target, config) -> MTTFEstimate:
    """One target's estimate: whole, chunked, or adaptive per ``config``.

    With ``config.chunks > 1`` the trials run as independent seeded
    chunks whose moments merge in chunk order — the exact computation
    the batch engine distributes across a pool, so serial and parallel
    runs agree to the bit.
    """
    config = config or MonteCarloConfig()
    label = f"monte_carlo[{config.method}]"
    if config.adaptive:
        return accumulate_chunks(
            lambda chunk: chunk_moments(target, chunk), config
        ).estimate(label)
    if config.chunks > 1:
        parts = [chunk_moments(target, c) for c in chunk_configs(config)]
        return estimate_from_moments(merge_moments(parts), label)
    return _estimate_from_samples(sample(target, config), label)


def monte_carlo_mttf(
    system: SystemModel, config: MonteCarloConfig | None = None
) -> MTTFEstimate:
    """Monte-Carlo system MTTF (the paper's reference value)."""
    return _mttf(system_chunk_moments, sample_system_ttf, system, config)


def monte_carlo_component_mttf(
    component: Component, config: MonteCarloConfig | None = None
) -> MTTFEstimate:
    """Monte-Carlo MTTF of one component instance (chunking as above)."""
    return _mttf(
        component_chunk_moments, sample_component_ttf, component, config
    )


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
