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

from ..errors import ConfigurationError, EstimationError
from ..reliability.metrics import MTTFEstimate
from .system import Component, SystemModel, wire_int

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
        for name in ("target_rel_stderr", "target_ci_halfwidth"):
            value = getattr(self, name)
            if value is not None and value <= 0:
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
        if self.z <= 0:
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

    def deficit(self, moments: "SampleMoments") -> float | None:
        """How far ``moments`` are from this rule's targets.

        The worst set constraint's current-value-to-target ratio: 1.0
        means exactly at target, 2.0 means the standard error must
        halve. This is the "least-converged" ordering the batch
        engine's budget re-allocation uses — it ranks by the *configured*
        rule, so an absolute CI-half-width run routes freed budget to
        the point furthest from its half-width target rather than the
        one with the worst relative error. ``None`` when no set target
        is measurable (an all-censored prefix, or a relative-only rule
        at mean 0) — more trials cannot demonstrably help such a point.
        """
        if moments.count < 2 or math.isinf(moments.mean):
            return None
        stderr = moments.stderr
        ratios = []
        if self.target_rel_stderr is not None and moments.mean != 0.0:
            ratios.append(
                stderr / abs(moments.mean) / self.target_rel_stderr
            )
        if self.target_ci_halfwidth is not None:
            ratios.append(self.z * stderr / self.target_ci_halfwidth)
        if not ratios:
            return None
        return max(ratios)

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


# ---------------------------------------------------------------------------
# Wire forms.
# ---------------------------------------------------------------------------

#: Fields of the Monte-Carlo wire form (mirrors MonteCarloConfig).
_MC_FIELDS = (
    "trials", "seed", "method", "start_phase", "max_arrival_rounds",
    "chunks",
)

#: Fields of the stopping-rule wire form (mirrors StoppingRule).
_STOPPING_FIELDS = (
    "target_rel_stderr", "target_ci_halfwidth", "min_trials",
    "max_trials", "z",
)


def _reject_unknown(data, allowed, what: str) -> None:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} wire form must be a dict")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} fields {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def stopping_rule_to_dict(rule: StoppingRule) -> dict:
    """Plain-dict form of a stopping rule (defaults included)."""
    return {name: getattr(rule, name) for name in _STOPPING_FIELDS}


#: Wire fields that must be ints when set; ``None`` is left to the
#: constructors, which know which fields may be unset.
_INT_FIELDS = (
    "trials", "seed", "chunks", "max_arrival_rounds", "min_trials",
    "max_trials",
)


def _check_ints(data: dict, what: str) -> None:
    for name in _INT_FIELDS:
        if data.get(name) is not None:
            wire_int(data[name], f"{what} {name!r}")


def stopping_rule_from_dict(data: dict) -> StoppingRule:
    """Inverse of :func:`stopping_rule_to_dict` (unknown keys and
    non-int counts raise :class:`ConfigurationError`)."""
    _reject_unknown(data, _STOPPING_FIELDS, "stopping rule")
    _check_ints(data, "stopping rule")
    try:
        return StoppingRule(**data)
    except TypeError as error:
        raise ConfigurationError(
            f"bad stopping-rule wire form: {error}"
        ) from None


def mc_config_to_dict(mc: MonteCarloConfig) -> dict:
    """Plain-dict form of a Monte-Carlo configuration (lossless)."""
    data = {name: getattr(mc, name) for name in _MC_FIELDS}
    if mc.stopping is not None:
        data["stopping"] = stopping_rule_to_dict(mc.stopping)
    return data


def mc_config_from_dict(data: dict) -> MonteCarloConfig:
    """Inverse of :func:`mc_config_to_dict`.

    Unknown keys, mistyped values (a bool is not an int) and a negative
    seed raise :class:`ConfigurationError`, so the analysis service and
    remote workers refuse such a configuration on arrival, not at run.
    """
    what = "Monte-Carlo configuration"
    _reject_unknown(data, (*_MC_FIELDS, "stopping"), what)
    _check_ints(data, what)
    seed = data.get("seed", 0)
    if seed is None or seed < 0:
        raise ConfigurationError(f"Monte-Carlo seed must be >= 0, got {seed}")
    payload = dict(data)
    stopping = payload.pop("stopping", None)
    if stopping is not None:
        stopping = stopping_rule_from_dict(stopping)
    try:
        return MonteCarloConfig(stopping=stopping, **payload)
    except TypeError as error:
        raise ConfigurationError(
            f"bad Monte-Carlo wire form: {error}"
        ) from None


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


def grant_chunk_trials(config: MonteCarloConfig) -> int:
    """Trial size of one budget-extension chunk.

    The same granularity :func:`adaptive_chunk_configs` uses for
    ``max_trials`` extensions — the batch engine's budget re-allocation
    issues grants in these units so every extension, however funded,
    lands on the same chunk grid.
    """
    return max(1, config.trials // min(config.chunks, config.trials))


def extension_chunk_config(
    config: MonteCarloConfig, index: int, trials: int
) -> MonteCarloConfig:
    """The chunk configuration at position ``index`` of an extended plan.

    Chunk seeds come from ``SeedSequence(seed).spawn(...)``, whose
    children are a pure function of the chunk *index* — the rule
    :func:`chunk_configs` and :func:`adaptive_chunk_configs` already
    follow. A plan grown one grant at a time therefore equals the plan
    a single up-front extension to the same budget would produce:
    prefix preservation by construction, regardless of how many rounds
    of re-allocation funded the tail.
    """
    if index < 0:
        raise EstimationError(f"chunk index must be >= 0, got {index}")
    if trials < 1:
        raise EstimationError(f"chunk trials must be >= 1, got {trials}")
    child = np.random.SeedSequence(config.seed).spawn(index + 1)[index]
    return replace(
        config,
        trials=trials,
        seed=int(child.generate_state(1, np.uint64)[0]),
        chunks=1,
        stopping=None,
    )


def extension_chunk_configs(
    config: MonteCarloConfig, start: int, sizes: Sequence[int]
) -> list[MonteCarloConfig]:
    """The extension chunks ``start .. start+len(sizes)-1`` of a plan.

    One budget grant appends these to a point's chunk plan; because
    each chunk is :func:`extension_chunk_config` at its own index, a
    plan grown by many grants — local re-allocation rounds or
    cross-shard ledger claims, in any mixture — equals the plan one
    up-front extension to the same total budget would have produced.
    """
    return [
        extension_chunk_config(config, start + offset, trials)
        for offset, trials in enumerate(sizes)
    ]


def transfer_chunk_configs(
    config: MonteCarloConfig, grant_sizes: Sequence[Sequence[int]]
) -> list[MonteCarloConfig]:
    """A point's full chunk plan after ownership transfers and grants.

    The ownership-transfer invariant behind elastic ledger fleets: a
    member that adopts a departed sibling's open point rebuilds the
    point's plan as the base adaptive plan
    (:func:`adaptive_chunk_configs`) followed by each granted round's
    :func:`extension_chunk_configs`, in round order. Every chunk's
    seed is a pure function of ``(config.seed, chunk index)``, so the
    adopter — starting from nothing but the point's base config and
    the grant schedule replayed from the ledger — draws *exactly* the
    chunks the departed member would have drawn, and the fold (strict
    index order) produces the identical moments. ``grant_sizes`` is
    one sequence of chunk sizes per grant, in grant order.
    """
    plan = adaptive_chunk_configs(config)
    for sizes in grant_sizes:
        plan.extend(extension_chunk_configs(config, len(plan), sizes))
    return plan


def allocate_grants(
    pool: int,
    demands: Sequence[tuple[float, int]],
    unit: int,
) -> dict[int, list[int]]:
    """Deterministically split freed trial budget over ranked demands.

    The single allocation policy behind both the pipelined scheduler's
    local budget re-allocation and the cross-shard ledger: ``demands``
    are ``(deficit, key)`` pairs (keys are point indices — local to one
    scheduler, or global across a sharded fleet); candidates are
    ordered worst-deficit first with ties broken by ascending key, and
    ``pool`` trials are granted round-robin in ``unit``-sized chunks
    (the final grant may be partial so the pool is spent exactly).
    Returns ``key -> chunk sizes`` for every key that received budget.
    A pure function of its arguments: every shard of a fleet computes
    the identical allocation from the identical ledger state.
    """
    if unit < 1:
        raise EstimationError(f"grant unit must be >= 1, got {unit}")
    if pool < 1 or not demands:
        return {}
    ranked = sorted(demands, key=lambda pair: (-pair[0], pair[1]))
    keys = [key for _deficit, key in ranked]
    grants: dict[int, list[int]] = {key: [] for key in keys}
    turn = 0
    while pool > 0:
        take = min(unit, pool)
        grants[keys[turn % len(keys)]].append(take)
        pool -= take
        turn += 1
    return {key: sizes for key, sizes in grants.items() if sizes}


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

    def extend_plan(self, extra_chunks: int) -> None:
        """Grow the chunk plan of an exhausted, unsatisfied accumulator.

        Budget re-allocation funds further chunks for a point that spent
        its whole plan without meeting its stopping rule; extending the
        plan reopens the accumulator (:attr:`done` becomes False) and
        folding resumes at the next chunk index. Extending a *satisfied*
        accumulator is a scheduling bug — that estimate is already
        final — and is rejected loudly.
        """
        if extra_chunks < 1:
            raise EstimationError(
                f"extra_chunks must be >= 1, got {extra_chunks}"
            )
        if self.satisfied:
            raise EstimationError(
                "cannot extend a satisfied accumulator; its estimate "
                "is already final"
            )
        self.total_chunks += extra_chunks

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
