"""Batch evaluation engine over design spaces.

:func:`evaluate_design_space` runs a set of registered methods over many
systems — the Table-2 grid, a cluster-size sweep, a workload family —
with one uniform call, replacing the bespoke per-experiment loops. Every
call runs the same work-conserving schedule (:class:`_Scheduler`) on a
pool of the selected executor; ``workers=1`` is a one-worker pool. It

* memoizes per-component MTTFs *and* whole system-level estimates in a
  shared :class:`~repro.methods.base.ComponentCache`, keyed by content
  fingerprint (give the cache a
  :class:`~repro.methods.cache.DiskCache` and a warm rerun of a sweep
  performs zero re-estimations),
* fans out over a thread pool (``executor="thread"``; the NumPy
  samplers release the GIL for the heavy draws) or a process pool
  (``executor="process"``; true parallelism on one host),
* **streams** Monte-Carlo references at *chunk* granularity: chunk
  moments are folded into a per-point
  :class:`~repro.core.montecarlo.MomentAccumulator` the moment they
  complete (no gather-all barrier), each fold feeds the run's
  :class:`~repro.core.montecarlo.StoppingRule` so adaptive runs stop —
  and cancel their unneeded chunks — as soon as the target precision is
  reached, and every fold can emit a
  :class:`~repro.methods.progress.ProgressEvent`,
* **pipelines** method estimates: a point's estimator tasks join the
  pool the moment its reference finalizes, with no post-reference
  phase,
* partitions deterministically across machines: ``shard=(i, n)``
  evaluates every n-th grid point starting at i, and
  :func:`~repro.methods.results.merge_result_sets` reassembles the
  shards into the exact :class:`~repro.methods.results.ResultSet` an
  unsharded run produces, and
* returns a serializable :class:`~repro.methods.results.ResultSet`
  whose record order always matches the input order, and whose
  per-record estimates follow the method order, regardless of worker
  count, executor, or completion order — at fixed chunking
  with the stopping rule disabled, ``workers=1`` and ``workers=N``
  produce bit-identical numbers, and even adaptive runs are a pure
  function of the configuration because chunks fold in index order.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Iterable, Sequence

from ..core import kernel as _kernel
from ..core.comparison import MethodComparison
from ..core.montecarlo import (
    MomentAccumulator,
    MonteCarloConfig,
    adaptive_chunk_configs,
)
from ..core.system import SystemModel
from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate
from . import registry
from .base import ComponentCache, MethodConfig
from .cache import mc_token
from .progress import (
    CACHE_PREWARMED,
    CHUNK_MERGED,
    METHOD_DONE,
    METHOD_STARTED,
    POINT_DONE,
    POINT_START,
    ProgressCallback,
    ProgressEvent,
    relative_stderr,
)
from .results import ResultSet, validate_shard

#: A design space item: a system, optionally labeled.
SpaceItem = SystemModel | tuple[str, SystemModel]

#: The pools ``executor=`` selects. Threads share the
#: coordinator's memory; processes receive only picklable top-level
#: tasks (:func:`estimate_task` and
#: :func:`~repro.core.kernel.run_plan_chunks`).
EXECUTORS = ("thread", "process")


def check_executor(executor) -> str:
    """``executor`` if it names one of :data:`EXECUTORS`, else refuse."""
    if not isinstance(executor, str) or executor not in EXECUTORS:
        raise ConfigurationError(
            f"unknown executor {executor!r}; use one of {EXECUTORS}"
        )
    return executor


def resolve_workers(workers) -> int:
    """Resolve a ``workers`` knob to a concrete positive count.

    ``"auto"`` (or ``None``) is the cpu count; on a 1-CPU host that is
    a one-worker pool.
    """
    if workers is None or workers == "auto":
        return os.cpu_count() or 1
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ConfigurationError(
            f"workers must be a positive integer or 'auto', got "
            f"{workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(
            f"workers must be a positive integer, got {workers}"
        )
    return workers


def estimate_task(
    method_name: str,
    system: SystemModel,
    mc: MonteCarloConfig,
    reference: str,
) -> MTTFEstimate:
    """Run one estimate in a process-pool worker (top level: picklable).

    The worker rebuilds a cache-free :class:`MethodConfig`; caching
    happens only on the coordinator so the shared cache needs no
    cross-process coordination.
    """
    config = MethodConfig(mc=mc, reference=reference, cache=None)
    return registry.get(method_name).estimate(system, config)


def _plan_batches(
    jobs: Sequence[tuple[int, MonteCarloConfig]], workers: int
) -> list[list[tuple[int, MonteCarloConfig]]]:
    """Split ``(chunk_index, config)`` jobs into at most ``workers`` batches.

    One :func:`~repro.core.kernel.run_plan_chunks` pool task runs each
    batch, so a point's chunk slice costs ``min(workers, chunks)``
    submissions instead of ``chunks`` — the IPC/pickling amortization
    half of the compiled-kernel layer. Contiguous slicing keeps every
    batch's chunk indices ascending, so the parent folds each result
    list front to back and the :class:`MomentAccumulator` sees the
    exact fold sequence one task per chunk would produce.
    """
    if not jobs:
        return []
    size = -(-len(jobs) // max(1, workers))
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _normalize_space(
    space: Iterable[SpaceItem],
) -> list[tuple[str, SystemModel]]:
    normalized: list[tuple[str, SystemModel]] = []
    for index, item in enumerate(space):
        if isinstance(item, SystemModel):
            normalized.append((f"system[{index}]", item))
        else:
            label, system = item
            if not isinstance(system, SystemModel):
                raise ConfigurationError(
                    f"design-space item {index} is not a SystemModel"
                )
            normalized.append((str(label), system))
    if not normalized:
        raise ConfigurationError("the design space is empty")
    return normalized


def shard_select(sequence: Sequence, shard: tuple[int, int] | None):
    """The deterministic slice of ``sequence`` one shard evaluates.

    Round-robin by position: shard ``(i, n)`` takes elements ``i``,
    ``i + n``, ``i + 2n``, ... — a pure function of the *full* sequence
    order, so N machines enumerating the same space partition it without
    coordination, shard sizes differ by at most one, and
    :func:`~repro.methods.results.merge_result_sets` can reassemble the
    original order exactly. Experiments use the same helper to keep
    their per-point metadata aligned with a sharded engine result.
    """
    if shard is None:
        return sequence
    index, count = validate_shard(shard)
    return sequence[index::count]


class _PointState:
    """Mutable per-point bookkeeping for the scheduler."""

    __slots__ = (
        "index", "label", "system", "plan", "accumulator", "submitted",
        "reference", "ref_key", "estimates", "pending_methods",
    )

    def __init__(self, index: int, label: str, system: SystemModel) -> None:
        self.index = index
        self.label = label
        self.system = system
        #: Chunk plan, including any ``max_trials`` extension.
        self.plan: list[MonteCarloConfig] | None = None
        self.accumulator: MomentAccumulator | None = None
        #: How many plan chunks have been submitted to the pool.
        self.submitted = 0
        self.reference: MTTFEstimate | None = None
        self.ref_key: str | None = None
        #: Method estimates as they land (completion order); the result
        #: records them in method order.
        self.estimates: dict[str, MTTFEstimate] = {}
        self.pending_methods: set[str] = set()


class _Scheduler:
    """Work-conserving sweep scheduler: one pool, two work kinds.

    Every :func:`evaluate_design_space` call runs one. A single
    executor pool runs, with no phase barriers between them:

    * **references** — a cache miss submits the point's reference
      estimate; a chunked Monte-Carlo reference instead streams its
      chunk plan through a per-point :class:`MomentAccumulator`
      (in-order folds, early-stop cancellation, lazy ``max_trials``
      extension);
    * **method estimates** — the moment a point's reference finalizes,
      its per-method estimator tasks join the same pool; results land
      in any order and are recorded in method order.

    Chunk dispatch depends on whether the pool shares memory. A
    thread pool keeps one chunk in flight per point and submits the
    next only once it has folded: the stopping rule cannot cancel a
    chunk that is already running, and with no dispatch cost to
    amortize, any chunk beyond the next one is pure speculation. The
    pool stays busy across points instead. A process pool pays
    per-task pickling, so a point's chunk slices go out as at most
    ``workers`` batches (:func:`_plan_batches`).

    Determinism: chunk moments fold strictly in chunk-index order per
    point, so each reference, and its early-stop decision, is a pure
    function of the point's system and MC configuration, never of
    worker count, executor, or completion order.
    """

    def __init__(
        self,
        items: Sequence[tuple[str, SystemModel]],
        method_names: Sequence[str],
        reference_name: str,
        reference_estimator,
        config: MethodConfig,
        cache: ComponentCache | None,
        workers: int,
        executor: str,
        progress: ProgressCallback | None,
        skip_unsupported: bool,
        shard: tuple[int, int] | None,
    ) -> None:
        self.method_names = method_names
        self.reference_name = reference_name
        self.reference_estimator = reference_estimator
        self.config = config
        self.cache = cache
        self.workers = workers
        #: Threads share this process's memory (closures, the cache);
        #: process-pool tasks must be picklable top-level functions.
        self.shares_memory = executor == "thread"
        self.progress = progress
        self.skip_unsupported = skip_unsupported
        self.shard = shard
        self.points = [
            _PointState(index, label, system)
            for index, (label, system) in enumerate(items)
        ]
        mc = config.mc
        self.chunked = reference_name == "monte_carlo" and (
            mc.chunks > 1 or mc.adaptive
        )
        self.mc_label = f"monte_carlo[{mc.method}]"
        self.pool = None
        self.waiting: set[Future] = set()
        #: Per in-flight future: its completion handler and arguments.
        self.future_meta: dict[Future, tuple] = {}
        self.chunk_futures: dict[int, list[Future]] = {}
        #: Plan-carrying submissions so far, per plan cache key —
        #: after ``workers`` of them every pool worker holds the plan
        #: and steady-state batches ship a 64-byte key instead.
        self._plan_shipped: dict[str, int] = {}

    # -- plumbing ----------------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    def _reference_mc(self) -> MonteCarloConfig | None:
        if self.reference_estimator.is_stochastic:
            return self.config.mc
        return None

    def _method_mc(self, estimator) -> MonteCarloConfig | None:
        return self.config.mc if estimator.is_stochastic else None

    # -- prewarm -----------------------------------------------------------

    def _prewarm(self) -> None:
        """Pre-touch every estimate key this shard will need (disk cache).

        Co-running shards pointed at one ``--cache-dir`` publish their
        finished estimates as they land; pulling the shard's keys into
        memory up front means points a sibling already finished are
        skipped before any work is scheduled. An unsharded run has no
        sibling to learn from, so it skips the pass and its lookups
        keep their usual disk hit/miss accounting.
        """
        cache = self.cache
        if self.shard is None or cache is None or cache.disk is None:
            return
        keys = []
        for state in self.points:
            keys.append(
                cache.estimate_key(
                    self.reference_name, state.system,
                    self._reference_mc(), self.reference_name,
                )
            )
            for name in self.method_names:
                estimator = registry.get(name)
                keys.append(
                    cache.estimate_key(
                        name, state.system, self._method_mc(estimator),
                        self.reference_name,
                    )
                )
        warmed = cache.prewarm_estimates(keys)
        self._emit(
            ProgressEvent(
                f"shard {self.shard[0]}/{self.shard[1]}", CACHE_PREWARMED,
                warmed_entries=warmed,
            )
        )

    # -- work submission ---------------------------------------------------

    def _start_point(self, state: _PointState) -> None:
        if self.cache is not None:
            state.ref_key = self.cache.estimate_key(
                self.reference_name, state.system, self._reference_mc(),
                self.reference_name,
            )
            found = self.cache.lookup_estimate(state.ref_key)
            if found is not None:
                state.reference = found
                self._emit(ProgressEvent(state.label, POINT_START))
                self._emit(
                    ProgressEvent(
                        state.label, POINT_DONE, trials=found.trials,
                        cached=True,
                    )
                )
                self._launch_methods(state)
                return
        if self.chunked:
            state.plan = adaptive_chunk_configs(self.config.mc)
            state.accumulator = MomentAccumulator(
                len(state.plan), self.config.mc.stopping
            )
            self._emit(
                ProgressEvent(
                    state.label, POINT_START, total_chunks=len(state.plan)
                )
            )
            base_count = min(
                self.config.mc.chunks, self.config.mc.trials,
                len(state.plan),
            )
            self._submit_chunks(state, base_count)
            return
        self._emit(ProgressEvent(state.label, POINT_START))
        self._submit_estimate(
            self.reference_estimator, state, self._on_reference, state.index
        )

    def _submit_estimate(self, estimator, state: _PointState, *meta) -> None:
        """Submit one whole estimate; ``meta`` is its completion handler
        and the handler's arguments."""
        if self.shares_memory:
            future = self.pool.submit(
                estimator.estimate, state.system, self.config
            )
        else:
            # Workers rebuild a cache-free config; caching stays in the
            # parent so it needs no cross-process coordination.
            future = self.pool.submit(
                estimate_task, estimator.name, state.system,
                self.config.mc, self.reference_name,
            )
        self.future_meta[future] = meta
        self.waiting.add(future)

    def _submit_chunks(self, state: _PointState, count: int) -> None:
        """Submit the point's next ``count`` plan chunks.

        A shared-memory pool submits one chunk per call instead (see
        the class docstring); the refill step in :meth:`_on_batch`
        submits the next once it has folded.
        """
        if self.shares_memory:
            count = 1
        start = state.submitted
        state.submitted = min(start + count, len(state.plan))
        jobs = [
            (chunk_index, state.plan[chunk_index])
            for chunk_index in range(start, state.submitted)
        ]
        for batch in _plan_batches(jobs, self.workers):
            self._submit_batch(state, batch)

    def _submit_batch(self, state: _PointState, jobs, ship_plan=False):
        """Submit one batched-plan task for a contiguous chunk slice."""
        plan = _kernel.plan_for_system(state.system)
        key = plan.cache_key
        payload = None
        if ship_plan or self._plan_shipped.get(key, 0) < self.workers:
            payload = plan
            self._plan_shipped[key] = self._plan_shipped.get(key, 0) + 1
        future = self.pool.submit(_kernel.run_plan_chunks, key, payload, jobs)
        self.future_meta[future] = (self._on_batch, state.index, jobs)
        self.chunk_futures.setdefault(state.index, []).append(future)
        self.waiting.add(future)

    def _launch_methods(self, state: _PointState) -> None:
        for name in self.method_names:
            estimator = registry.get(name)
            if not estimator.supports(state.system):
                if self.skip_unsupported:
                    continue
                raise ConfigurationError(
                    f"method {name!r} does not support system "
                    f"{state.label!r}"
                )
            # The reference estimate doubles as the method estimate
            # when the same method is also selected.
            if name == self.reference_name:
                state.estimates[name] = state.reference
                continue
            if self.cache is not None:
                key = self.cache.estimate_key(
                    name, state.system, self._method_mc(estimator),
                    self.reference_name,
                )
                found = self.cache.lookup_estimate(key)
                if found is not None:
                    state.estimates[name] = found
                    self._emit(
                        ProgressEvent(
                            state.label, METHOD_DONE, method=name,
                            trials=found.trials, cached=True,
                        )
                    )
                    continue
            if (
                not self.shares_memory
                and estimator.per_component
                and self.cache is not None
            ):
                # A worker would rebuild a cache-free config and
                # re-sample every component MTTF per point; for sweeps
                # where hundreds of points share components (every C of
                # one profile), parent-side memoization beats fan-out
                # by orders of magnitude — keep these in the parent.
                # Deliberate trade-off: the first point per distinct
                # component runs its MC estimate inline and briefly
                # stalls the completion loop.
                estimate = estimator.estimate(state.system, self.config)
                state.estimates[name] = estimate
                self.cache.store_estimate(key, estimate)
                self._emit(
                    ProgressEvent(
                        state.label, METHOD_DONE, method=name,
                        trials=estimate.trials,
                    )
                )
                continue
            self._submit_estimate(
                estimator, state, self._on_method, state.index, name
            )
            state.pending_methods.add(name)
            self._emit(
                ProgressEvent(state.label, METHOD_STARTED, method=name)
            )

    # -- completions -------------------------------------------------------

    def _on_batch(self, future: Future, index: int, jobs) -> None:
        """Fold one reference-chunk batch.

        A batched-plan result carries ``(chunk_index, moments)`` pairs
        in ascending chunk-index order. Pairs fold front to back and
        the accumulator orders folds by chunk index across batches, so
        the merged moments, the stop decision, and the refill schedule
        are bit-identical however the chunks were batched.
        """
        state = self.points[index]
        accumulator = state.accumulator
        if accumulator.done or future.cancelled():
            # Straggler of an already-resolved point: its moments are
            # never folded and never counted — merged_chunks is always
            # the accumulator's fold count, nothing else.
            return
        status, pairs = future.result()
        if status == _kernel.PLAN_MISS:
            # Cold worker without the plan (spawn start method or an
            # evicted cache entry): retry with the plan attached.
            self._submit_batch(state, jobs, ship_plan=True)
            return
        merged_before = accumulator.merged_chunks
        done = False
        for chunk_index, moments in pairs:
            done = accumulator.add(chunk_index, moments)
            if done:
                # Later pairs of this batch are stragglers exactly like
                # late futures: never folded, never counted.
                break
        if done:
            self._finalize_reference(state)
            return
        if accumulator.merged_chunks > merged_before:
            self._emit(
                ProgressEvent(
                    state.label, CHUNK_MERGED,
                    merged_chunks=accumulator.merged_chunks,
                    total_chunks=accumulator.total_chunks,
                    trials=accumulator.moments.count,
                    rel_stderr=relative_stderr(accumulator.moments),
                )
            )
        if accumulator.merged_chunks == state.submitted:
            # Every submitted chunk has merged and the target is still
            # unmet: release the next plan slice. One pool-width
            # at a time (one chunk on a shared-memory pool) keeps the
            # workers busy without speculating the whole tail.
            self._submit_chunks(state, max(1, self.workers))

    def _on_reference(self, future: Future, index: int) -> None:
        state = self.points[index]
        state.reference = future.result()
        if state.ref_key is not None:
            self.cache.store_estimate(state.ref_key, state.reference)
        self._emit(
            ProgressEvent(
                state.label, POINT_DONE, trials=state.reference.trials
            )
        )
        self._launch_methods(state)

    def _on_method(self, future: Future, index: int, name: str) -> None:
        state = self.points[index]
        estimate = future.result()
        state.estimates[name] = estimate
        state.pending_methods.discard(name)
        if self.cache is not None:
            key = self.cache.estimate_key(
                name, state.system, self._method_mc(registry.get(name)),
                self.reference_name,
            )
            self.cache.store_estimate(key, estimate)
        self._emit(
            ProgressEvent(
                state.label, METHOD_DONE, method=name,
                trials=estimate.trials,
            )
        )

    def _finalize_reference(self, state: _PointState) -> None:
        accumulator = state.accumulator
        state.reference = accumulator.estimate(self.mc_label)
        if accumulator.stopped_early:
            for leftover in self.chunk_futures.get(state.index, ()):
                leftover.cancel()
        if state.ref_key is not None:
            self.cache.store_estimate(state.ref_key, state.reference)
        self._emit(
            ProgressEvent(
                state.label, POINT_DONE,
                merged_chunks=accumulator.merged_chunks,
                total_chunks=accumulator.total_chunks,
                trials=accumulator.moments.count,
                rel_stderr=relative_stderr(accumulator.moments),
                stopped_early=accumulator.stopped_early,
            )
        )
        self._launch_methods(state)

    # -- main loop ---------------------------------------------------------

    def _drain(self) -> None:
        """Fold completions and submit follow-up work until none is left."""
        while self.waiting:
            completed, self.waiting = wait(
                self.waiting, return_when=FIRST_COMPLETED
            )
            for future in completed:
                handler, *args = self.future_meta.pop(future)
                handler(future, *args)

    def run(self) -> tuple[MethodComparison, ...]:
        self._prewarm()
        pool_class = (
            ThreadPoolExecutor if self.shares_memory else ProcessPoolExecutor
        )
        with pool_class(max_workers=self.workers) as pool:
            self.pool = pool
            try:
                for state in self.points:
                    self._start_point(state)
                self._drain()
            except BaseException:
                # Fail fast: leaving the pool's context would otherwise
                # run every queued task before the error surfaces.
                for future in self.waiting:
                    future.cancel()
                raise
        comparisons = []
        for state in self.points:
            if state.reference is None or state.pending_methods:
                raise ConfigurationError(
                    f"scheduler finished with incomplete point "
                    f"{state.label!r}"
                )  # pragma: no cover - defensive invariant
            comparisons.append(
                MethodComparison(
                    system_label=state.label,
                    reference=state.reference,
                    estimates={
                        name: state.estimates[name]
                        for name in self.method_names
                        if name in state.estimates
                    },
                )
            )
        return tuple(comparisons)


def evaluate_design_space(
    space: Iterable[SpaceItem],
    methods: Sequence[str],
    reference: str = "monte_carlo",
    mc_config: MonteCarloConfig | None = None,
    workers: int | str = 1,
    executor: str = "thread",
    cache: ComponentCache | bool | None = None,
    skip_unsupported: bool = False,
    shard: tuple[int, int] | None = None,
    progress: ProgressCallback | None = None,
) -> ResultSet:
    """Run ``methods`` against ``reference`` on every system in ``space``.

    Parameters
    ----------
    space:
        Iterable of systems or ``(label, system)`` pairs; evaluated in
        order.
    methods:
        Registered method names (see :func:`repro.methods.available`).
    reference:
        Reference method name (``"monte_carlo"`` or ``"exact"``).
    mc_config:
        Monte-Carlo settings shared by every stochastic estimate. Set
        ``chunks > 1`` to split each estimate into seeded sub-runs —
        the unit of both parallelism and adaptivity. A
        :class:`~repro.core.montecarlo.StoppingRule` on the config makes
        runs precision-driven: chunks are scheduled until the target
        stderr is reached. Numbers depend on the chunking and the rule,
        never on the worker count or executor.
    workers:
        Fan-out width; 1 (default) is a one-worker pool, ``"auto"`` the
        cpu count. Results keep the input order either way.
    executor:
        ``"thread"`` (default) or ``"process"`` (:data:`EXECUTORS`).
        Threads suit the GIL-releasing NumPy samplers; processes buy
        true parallelism on one host. A process pool receives only
        picklable top-level tasks; per-component method estimates and
        all caching stay in the parent. The executor never affects the
        numbers.
    cache:
        ``None`` (default) uses a fresh per-call cache,
        ``False`` disables memoization, or pass a
        :class:`ComponentCache` to share across calls (optionally
        disk-backed for cross-invocation reuse).
    skip_unsupported:
        When True, methods whose ``supports(system)`` is False are
        silently omitted from that system's record instead of raising.
    shard:
        ``(i, n)`` evaluates only this machine's round-robin share of
        the space (see :func:`shard_select`); labels still come from
        the full-space enumeration. The returned set records the shard
        so :func:`~repro.methods.results.merge_result_sets` can verify
        completeness and restore the unsharded order. N machines
        pointing at one shared disk cache split one grid with no
        coordination beyond the shard index.
    progress:
        Optional callback receiving
        :class:`~repro.methods.progress.ProgressEvent` per grid point,
        per merged reference chunk, and per pipelined method estimate.
    """
    items = _normalize_space(space)
    if shard is not None:
        shard = validate_shard(shard)
        items = shard_select(items, shard)
    if not methods:
        raise ConfigurationError(
            f"methods must not be empty; available: {registry.available()}"
        )
    executor = check_executor(executor)
    workers = resolve_workers(workers)
    method_names = [registry.get(name).name for name in methods]
    reference_name = registry.canonical_name(reference)
    if cache is None or cache is True:
        cache = ComponentCache()
    elif cache is False:
        cache = None
    config = MethodConfig(
        mc=mc_config or MonteCarloConfig(),
        reference=reference_name,
        cache=cache,
    )
    reference_estimator = registry.get(reference_name)
    comparisons = _Scheduler(
        items=items,
        method_names=method_names,
        reference_name=reference_name,
        reference_estimator=reference_estimator,
        config=config,
        cache=cache,
        workers=workers,
        executor=executor,
        progress=progress,
        skip_unsupported=skip_unsupported,
        shard=shard,
    ).run()
    return ResultSet(
        comparisons=comparisons,
        methods=tuple(method_names),
        reference_method=reference_name,
        shard=shard,
        mc_token=mc_token(config.mc),
    )
