"""Batch evaluation engine over design spaces.

:func:`evaluate_design_space` runs a set of registered methods over many
systems — the Table-2 grid, a cluster-size sweep, a workload family —
with one uniform call, replacing the bespoke per-experiment loops. Every
call runs the same work-conserving schedule (:class:`_Scheduler`) on a
pool of the selected backend; ``workers=1`` is a one-worker pool. It

* memoizes per-component MTTFs *and* whole system-level estimates in a
  shared :class:`~repro.methods.base.ComponentCache`, keyed by content
  fingerprint (give the cache a
  :class:`~repro.methods.cache.DiskCache` and a warm rerun of a sweep
  performs zero re-estimations),
* fans out through a pluggable :class:`~repro.methods.executors.ChunkExecutor`
  backend — a thread pool (``executor="thread"``; the NumPy samplers
  release the GIL for the heavy draws), a process pool
  (``executor="process"``; true parallelism on one host), or a TCP
  worker fleet (``executor="remote"`` /
  :class:`~repro.methods.executors.RemoteExecutor`; paper-scale
  1e6-trial sweeps across machines),
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
  phase, and with ``reallocate_budget=True`` trial budget freed by
  early-stopping points is re-granted to the least-converged
  stragglers at deterministic quiescent barriers,
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

import threading
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Iterable, Sequence

from ..core import kernel as _kernel
from ..core.comparison import MethodComparison
from ..core.montecarlo import (
    MomentAccumulator,
    MonteCarloConfig,
    adaptive_chunk_configs,
    allocate_grants,
    extension_chunk_configs,
    grant_chunk_trials,
)
from ..core.system import SystemModel
from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate
from . import registry
from .base import ComponentCache, MethodConfig
from .cache import mc_token
from .executors import (
    ChunkExecutor,
    estimate_task,
    get_executor,
    resolve_workers,
)
from .ledger import BudgetLedger, ShardDeparted
from .progress import (
    BUDGET_CLAIMED,
    BUDGET_REALLOCATED,
    CACHE_PREWARMED,
    CHUNK_MERGED,
    METHOD_DONE,
    METHOD_STARTED,
    POINT_DONE,
    POINT_START,
    SHARD_ADOPTED,
    SHARD_DEPARTED,
    ProgressCallback,
    ProgressEvent,
    relative_stderr,
)
from .results import ResultSet, validate_shard

#: A design space item: a system, optionally labeled.
SpaceItem = SystemModel | tuple[str, SystemModel]


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
        #: Chunk plan (mutable: budget grants append extension chunks).
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
    """Work-conserving sweep scheduler: one pool, three work kinds.

    Every :func:`evaluate_design_space` call runs one. A single
    executor pool runs, with no phase barriers between them:

    * **references** — a cache miss submits the point's reference
      estimate; a chunked Monte-Carlo reference instead streams its
      chunk plan through a per-point :class:`MomentAccumulator`
      (in-order folds, early-stop cancellation, lazy ``max_trials``
      extension);
    * **method estimates** — the moment a point's reference finalizes,
      its per-method estimator tasks join the same pool; results land
      in any order and are recorded in method order;
    * **budget extensions** (``reallocate_budget``) — trial budget
      freed by early-stopping points accumulates in a ledger and is
      re-granted to the least-converged open points as
      prefix-preserving extension chunks.

    Chunk dispatch depends on whether the pool shares memory. A
    shared-memory pool (threads) keeps one chunk in flight per point
    and submits the next only once it has folded: the stopping rule
    cannot cancel a chunk that is already running, and with no
    dispatch cost to amortize, any chunk beyond the next one is pure
    speculation. The pool stays busy across points instead. An
    isolated pool (processes, a remote fleet) pays per-task pickling
    and transport, so a point's chunk slices go out as at most
    ``workers`` batches (:func:`_plan_batches`).

    Determinism: chunk moments fold strictly in chunk-index order per
    point (the PR-3 invariant), and re-allocation fires only at
    *quiescent barriers* — moments when no reference chunk is in flight
    anywhere, which can only occur once every point has
    deterministically resolved its current plan (satisfied, exhausted,
    or censored). The ledger total, the candidate set, the
    least-converged ordering, and the round-robin grants are therefore
    pure functions of the configuration, never of worker count,
    executor, or completion order. Extension chunk seeds are spawned by
    chunk index (:func:`~repro.core.montecarlo.extension_chunk_config`),
    so grants preserve every previously drawn sample. Within one
    invocation the budget is conserved.

    A plain sharded run redistributes within its own shard only. With
    a :class:`~repro.methods.ledger.BudgetLedger` attached
    (``budget_ledger=...``), the quiescent barriers become *fleet*
    barriers instead: the shard publishes its freed budget and open
    points to the shared ledger file, waits for its co-running
    siblings' rounds, and every shard computes the identical global
    allocation (worst deficit first across the whole fleet, ties by
    global point index) with the same
    :func:`~repro.core.montecarlo.allocate_grants` policy the local
    path uses — N shards behave as one work-conserving fleet, and the
    grant schedule is deterministic given the ledger contents (see
    :mod:`repro.methods.ledger` and docs/SCHEDULER.md).
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
        backend: ChunkExecutor,
        progress: ProgressCallback | None,
        reallocate_budget: bool,
        skip_unsupported: bool,
        shard: tuple[int, int] | None,
        budget_ledger: BudgetLedger | None = None,
        full_items: Sequence[tuple[str, SystemModel]] | None = None,
    ) -> None:
        self.method_names = method_names
        self.reference_name = reference_name
        self.reference_estimator = reference_estimator
        self.config = config
        self.cache = cache
        self.workers = workers
        self.backend = backend
        self.progress = progress
        self.reallocate = reallocate_budget
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
        #: A re-allocated reference depends on the whole sweep's ledger,
        #: not just (system, MC config) — so it must never enter the
        #: content-addressed cache, where a later run (or a co-running
        #: shard) would replay it as if it were the pure fixed-budget
        #: estimate. Method estimates stay pure and cacheable.
        self.reference_cacheable = not (
            reallocate_budget and self.chunked and mc.adaptive
        )
        self.mc_label = f"monte_carlo[{mc.method}]"
        self.grant_unit = grant_chunk_trials(mc)
        #: Freed trial budget awaiting re-allocation (or, with a
        #: cross-shard ledger, awaiting publication to the fleet pool).
        self.ledger = 0
        #: Cross-shard coordination (None: shard-local re-allocation).
        self.xledger = budget_ledger
        self.xshard_round = 0
        self.xshard_active = budget_ledger is not None
        #: Points finalized since the last ledger publication:
        #: ``(global index, trials)`` audit records.
        self._xshard_converged: list[tuple[int, int]] = []
        #: Elastic membership: the *unsharded* space, needed to re-run
        #: a departed sibling's slot; adopted slots' ResultSets; the
        #: adoption worker threads and their first error.
        self.full_items = full_items
        self.adopted: dict[int, "ResultSet"] = {}
        self._adoption_threads: list[threading.Thread] = []
        self._adoption_errors: list[BaseException] = []
        self._adoption_lock = threading.Lock()
        self.pool = None
        self.waiting: set[Future] = set()
        #: Per in-flight future: its completion handler and arguments.
        self.future_meta: dict[Future, tuple] = {}
        self.chunk_futures: dict[int, list[Future]] = {}
        #: Outstanding batched-plan futures (straggler-inclusive); zero
        #: means a quiescent barrier for re-allocation purposes.
        self.live_chunks = 0
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

    def _defer_exhausted(self) -> bool:
        """Whether exhausted-unsatisfied points wait for budget grants."""
        return self.reallocate and self.config.mc.adaptive

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
            if self.reference_cacheable:
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
                self._fleet_label(), CACHE_PREWARMED, warmed_entries=warmed
            )
        )

    # -- work submission ---------------------------------------------------

    def _start_point(self, state: _PointState) -> None:
        if self.cache is not None and self.reference_cacheable:
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
        if self.backend.shares_memory:
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
        if self.backend.shares_memory:
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
        self.live_chunks += 1

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
                not self.backend.shares_memory
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
        the merged moments, the stop decision, and the extension
        schedule are bit-identical however the chunks were batched.
        """
        self.live_chunks -= 1
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
            if accumulator.satisfied or not self._defer_exhausted():
                self._finalize_reference(state)
            # else: exhausted without meeting the rule — stay open for
            # a budget grant; finalized at the final quiescent barrier
            # if none arrives.
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
            # unmet: release the next extension slice. One pool-width
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
        if self.reallocate:
            # Unspent plan trials (cancelled or never-submitted chunks)
            # return to the shared ledger. A straggler chunk that was
            # already running when the rule fired is credited too: the
            # ledger tracks the *logical* budget, so the decision stays
            # a pure function of the configuration.
            planned = sum(chunk.trials for chunk in state.plan)
            self.ledger += max(0, planned - accumulator.moments.count)
        if accumulator.stopped_early:
            for leftover in self.chunk_futures.get(state.index, ()):
                leftover.cancel()
        if self.xledger is not None:
            self._xshard_converged.append(
                (
                    self._global_index(state.index),
                    accumulator.moments.count,
                )
            )
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

    # -- budget re-allocation ----------------------------------------------

    def _open_candidates(self) -> list[tuple[float, _PointState]]:
        """Open, unsatisfied points ranked least-converged first.

        "Least converged" means the largest
        :meth:`~repro.core.montecarlo.StoppingRule.deficit` — distance
        from the *configured* targets, so absolute CI-half-width rules
        rank by half-width, not relative error. Ties break by point
        index. Points without a measurable deficit (censored
        all-infinite moments — more trials cannot demonstrably help)
        are never candidates.
        """
        rule = self.config.mc.stopping
        if rule is None:
            return []
        ranked: list[tuple[float, _PointState]] = []
        for state in self.points:
            accumulator = state.accumulator
            if (
                state.reference is not None
                or accumulator is None
                or not accumulator.done
                or accumulator.satisfied
                or accumulator.moments is None
            ):
                continue
            deficit = rule.deficit(accumulator.moments)
            if deficit is not None:
                ranked.append((deficit, state))
        ranked.sort(key=lambda pair: (-pair[0], pair[1].index))
        return ranked

    def _apply_grant(
        self, state: _PointState, sizes: Sequence[int], kind: str
    ) -> None:
        """Extend one point's plan with granted chunks and submit them.

        ``kind`` distinguishes the funding pool in the progress stream:
        ``budget-reallocated`` for shard-local grants,
        ``budget-claimed`` for cross-shard ledger grants.
        """
        state.plan.extend(
            extension_chunk_configs(
                self.config.mc, len(state.plan), sizes
            )
        )
        state.accumulator.extend_plan(len(sizes))
        self._emit(
            ProgressEvent(
                state.label, kind,
                merged_chunks=state.accumulator.merged_chunks,
                total_chunks=state.accumulator.total_chunks,
                trials=state.accumulator.moments.count,
                rel_stderr=state.accumulator.moments.rel_stderr,
                granted_trials=sum(sizes),
                granted_chunks=len(sizes),
            )
        )
        self._submit_chunks(state, len(sizes))

    def _grant_round(self) -> bool:
        """Distribute the local ledger to the least-converged points.

        Called only at quiescent barriers. Grants are computed by
        :func:`~repro.core.montecarlo.allocate_grants` — round-robin in
        :func:`grant_chunk_trials` units over the ranked candidates,
        spending the ledger exactly (the final grant may be a partial
        chunk).
        """
        if self.ledger < 1:
            return False
        ranked = self._open_candidates()
        if not ranked:
            return False
        grants = allocate_grants(
            self.ledger,
            [(deficit, state.index) for deficit, state in ranked],
            self.grant_unit,
        )
        self.ledger = 0
        for _deficit, state in ranked:
            sizes = grants.get(state.index)
            if sizes:
                self._apply_grant(state, sizes, BUDGET_REALLOCATED)
        return True

    # -- cross-shard budget ledger -----------------------------------------

    def _global_index(self, local: int) -> int:
        """Map a local point index to its full-space (fleet) index.

        Round-robin sharding puts global point ``k`` at position
        ``k // n`` of shard ``k % n``, so local position ``p`` of shard
        ``(i, n)`` is global ``p * n + i`` — the key space the ledger's
        demand ranking and grant records use.
        """
        index, count = self.shard
        return local * count + index

    def _drain_converged(self) -> list[tuple[int, int]]:
        pending = self._xshard_converged
        self._xshard_converged = []
        return pending

    def _budget_round(self) -> bool:
        """One quiescent-barrier budget decision (local or fleet-wide)."""
        if self.xledger is not None:
            if not self.xshard_active:
                return False
            return self._xshard_rounds()
        return self._grant_round()

    def _xshard_rounds(self) -> bool:
        """Run ledger rounds until this shard gains work or leaves.

        Each iteration publishes one sealed round block (freed budget
        and open points), rendezvouses with the co-running shards, and
        computes the fleet-wide allocation every shard derives
        identically from the ledger. Returns True when this shard
        received grants (extension chunks were submitted); False when
        the protocol ended for this shard — in which case the
        remaining open points are finalized as budget-exhausted and
        the departure is recorded.
        """
        ledger = self.xledger
        while True:
            if (
                ledger.leave_after is not None
                and self.xshard_round >= ledger.leave_after
            ):
                self._leave_fleet(ledger)
            ranked = self._open_candidates()
            opens = [
                (
                    self._global_index(state.index),
                    deficit,
                    state.accumulator.moments.count,
                )
                for deficit, state in ranked
            ]
            number = self.xshard_round
            ledger.publish_round(
                number, self.ledger, opens, self._drain_converged()
            )
            self.ledger = 0
            grants = ledger.rendezvous(number, self.grant_unit)
            self.xshard_round += 1
            count = self.shard[1]
            mine = {
                index: sizes
                for index, sizes in grants.items()
                if index % count == self.shard[0]
            }
            if mine:
                ledger.record_claims(number, mine)
                for _deficit, state in ranked:
                    sizes = mine.get(self._global_index(state.index))
                    if sizes:
                        self._apply_grant(state, sizes, BUDGET_CLAIMED)
                return True
            if not grants or not ranked:
                # Protocol over (no grants anywhere), or every grant
                # went elsewhere and this shard has nothing open:
                # leave the fleet. Finalize the still-open stragglers
                # first so their final trial counts land in the audit
                # trail.
                self.xshard_active = False
                self._finalize_stragglers()
                ledger.close(number, self._drain_converged())
                return False
            # Open points but no grants this round: the pool went to
            # worse-converged points elsewhere; wait for the next
            # round (new budget can still be freed by their grants
            # stopping early).

    # -- elastic membership ------------------------------------------------

    def _fleet_label(self) -> str:
        return f"shard {self.shard[0]}/{self.shard[1]}"

    def _leave_fleet(self, ledger: BudgetLedger) -> None:
        """Voluntary mid-run departure (``leave_after`` rounds).

        Writes the ``shard-depart`` record *before* going silent so
        survivors adopt immediately instead of waiting out a lease,
        then aborts this member's run with :class:`ShardDeparted`.
        """
        number = self.xshard_round
        ledger.depart(number, reason="leave")
        ledger.stop_heartbeat()
        self._emit(
            ProgressEvent(
                self._fleet_label(),
                SHARD_DEPARTED,
                shard=self.shard[0],
                round=number,
            )
        )
        raise ShardDeparted(
            f"shard {self.shard[0]}/{self.shard[1]} left the fleet "
            f"before round {number} (leave_after={ledger.leave_after}); "
            "its open points pass to the recorded adopter",
            slot=self.shard[0],
            round_number=number,
        )

    def _on_shard_depart(self, slot: int, number: int) -> None:
        self._emit(
            ProgressEvent(
                self._fleet_label(),
                SHARD_DEPARTED,
                shard=slot,
                round=number,
            )
        )

    def _adopt_slot(self, slot: int) -> None:
        """Adopt a departed sibling's slot (ledger ``on_adopt`` hook).

        Runs the vacant slot's *entire* deterministic schedule in a
        worker thread via a nested :func:`evaluate_design_space` on a
        takeover ledger handle: rounds the departed member already
        sealed verify like a replay, the rest seal live, and the
        slot's complete ResultSet lands in :attr:`adopted` — so this
        member's output can stand in for the lost one at merge time.
        The thread coordinates with this scheduler purely through the
        ledger file, exactly as a separate ``--join`` process would.
        """
        if self.full_items is None:  # pragma: no cover - defensive
            raise ConfigurationError(
                "cannot adopt a departed shard without the full design "
                "space (internal wiring error)"
            )
        self._emit(
            ProgressEvent(self._fleet_label(), SHARD_ADOPTED, shard=slot)
        )
        handle = self.xledger.takeover_handle(slot)

        def adopt() -> None:
            try:
                result = evaluate_design_space(
                    self.full_items,
                    self.method_names,
                    reference=self.reference_name,
                    mc_config=self.config.mc,
                    workers=self.workers,
                    executor=self.backend,
                    cache=self.cache if self.cache is not None else False,
                    skip_unsupported=self.skip_unsupported,
                    shard=(slot, self.shard[1]),
                    progress=self.progress,
                    reallocate_budget=True,
                    budget_ledger=handle,
                )
            except BaseException as error:  # noqa: BLE001 - re-raised
                with self._adoption_lock:
                    self._adoption_errors.append(error)
            else:
                with self._adoption_lock:
                    self.adopted[slot] = result

        thread = threading.Thread(
            target=adopt, name=f"adopt-slot-{slot}", daemon=True
        )
        self._adoption_threads.append(thread)
        thread.start()

    def _finish_adoptions(self) -> None:
        for thread in self._adoption_threads:
            thread.join()
        if self._adoption_errors:
            raise self._adoption_errors[0]

    def _finalize_stragglers(self) -> bool:
        """Finalize open points no grant will ever reach."""
        finalized = False
        for state in self.points:
            if (
                state.reference is None
                and state.accumulator is not None
                and state.accumulator.done
            ):
                self._finalize_reference(state)
                finalized = True
        return finalized

    # -- main loop ---------------------------------------------------------

    def run(self) -> tuple[MethodComparison, ...]:
        self._prewarm()
        if self.xledger is not None:
            self.xledger.on_depart = self._on_shard_depart
            self.xledger.on_adopt = self._adopt_slot
            self.xledger.open_run(
                mc_token(self.config.mc),
                self.method_names,
                self.reference_name,
            )
        try:
            return self._run_schedule()
        finally:
            if self.xledger is not None:
                self.xledger.stop_heartbeat()

    def _drain(self) -> None:
        """Fold completions and submit follow-up work until none is left."""
        while True:
            if not self.waiting:
                if self.chunked:
                    if self.reallocate and self._budget_round():
                        continue
                    if self._finalize_stragglers():
                        # Finalizing may pipeline method tasks.
                        continue
                return
            completed, self.waiting = wait(
                self.waiting, return_when=FIRST_COMPLETED
            )
            for future in completed:
                handler, *args = self.future_meta.pop(future)
                handler(future, *args)
            if self.live_chunks == 0 and self.reallocate and self.chunked:
                if not self._budget_round():
                    # No grants possible now and the only budget source
                    # (chunked finalizations) is quiet: release any
                    # still-open points to the method stage instead of
                    # leaving them idle.
                    self._finalize_stragglers()

    def _run_schedule(self) -> tuple[MethodComparison, ...]:
        with self.backend.pool(self.workers) as pool:
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
        # Adoptions this member picked up must land before the result
        # is assembled — their ResultSets ride along in `adopted`.
        self._finish_adoptions()
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
    executor: str | ChunkExecutor = "thread",
    cache: ComponentCache | bool | None = None,
    skip_unsupported: bool = False,
    shard: tuple[int, int] | None = None,
    progress: ProgressCallback | None = None,
    reallocate_budget: bool = False,
    budget_ledger: BudgetLedger | None = None,
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
        Fan-out width; 1 (default) is a one-worker pool of the backend,
        ``"auto"`` asks the backend (cpu count for local pools, fleet
        size for a remote executor). Results keep the input order
        either way.
    executor:
        A registered backend name — ``"thread"`` (default),
        ``"process"``, ``"remote"`` — or a
        :class:`~repro.methods.executors.ChunkExecutor` instance such
        as ``RemoteExecutor(["hostA:8421", "hostB:8421"])``. Threads
        suit the GIL-releasing NumPy samplers; processes buy true
        parallelism on one host; a remote fleet scales past it.
        Memory-isolated backends (``shares_memory=False``) receive
        only wire-encodable tasks; per-component method estimates and
        all caching stay in the parent. The backend never affects the
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
    reallocate_budget:
        When True (and the Monte-Carlo config carries a
        :class:`~repro.core.montecarlo.StoppingRule`), trial budget
        freed by early-stopping points is returned to a shared ledger
        and re-granted to the least-converged points that exhausted
        their own budget without meeting the target. Grant decisions
        fire only at quiescent barriers on in-order fold state, so the
        numbers stay bit-identical across worker counts and executors —
        but they *differ* from a non-reallocating run (stragglers get
        more trials), and a sharded run redistributes within its own
        shard only unless a ``budget_ledger`` is attached. A no-op
        without a stopping rule.
    budget_ledger:
        A :class:`~repro.methods.ledger.BudgetLedger` handle on the
        fleet's shared ledger file (typically
        ``ledger_path(cache_dir, run_id)``), turning shard-local
        re-allocation into *cross-shard* coordination: freed budget is
        published to — and claimed from — a global pool shared by the
        co-running shards of one sweep, at deterministic fleet
        barriers. Requires ``shard=`` (matching the ledger's own
        coordinates), ``reallocate_budget=True``, and an adaptive
        ``monte_carlo`` reference. The result's ``mc_token`` is tagged
        ``+xshard`` so :func:`~repro.methods.results.merge_result_sets`
        only combines ledger-coordinated shards with each other.
    """
    items = _normalize_space(space)
    full_items = items
    if shard is not None:
        shard = validate_shard(shard)
        items = shard_select(items, shard)
    if not methods:
        raise ConfigurationError(
            f"methods must not be empty; available: {registry.available()}"
        )
    # The executor registry is the one source of truth: registering a
    # backend (see executors.register_executor) legalizes its spelling
    # here, on the CLI, and in repro-serve alike.
    backend = get_executor(executor)
    workers = resolve_workers(workers, backend)
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
    if budget_ledger is not None:
        if shard is None:
            raise ConfigurationError(
                "budget_ledger coordinates co-running shards; pass the "
                "matching shard=(i, n)"
            )
        if budget_ledger.shard != shard:
            raise ConfigurationError(
                f"budget_ledger belongs to shard "
                f"{budget_ledger.index}/{budget_ledger.count} but this "
                f"run is shard {shard[0]}/{shard[1]}"
            )
        if not reallocate_budget:
            raise ConfigurationError(
                "budget_ledger requires reallocate_budget=True (the "
                "ledger is the cross-shard extension of budget "
                "re-allocation)"
            )
        if reference_name != "monte_carlo" or not config.mc.adaptive:
            raise ConfigurationError(
                "budget_ledger needs an adaptive monte_carlo reference "
                "(a MonteCarloConfig with a StoppingRule); without a "
                "stopping rule no budget is ever freed or claimed"
            )

    scheduler = _Scheduler(
        items=items,
        method_names=method_names,
        reference_name=reference_name,
        reference_estimator=reference_estimator,
        config=config,
        cache=cache,
        workers=workers,
        backend=backend,
        progress=progress,
        reallocate_budget=reallocate_budget,
        skip_unsupported=skip_unsupported,
        shard=shard,
        budget_ledger=budget_ledger,
        full_items=full_items if budget_ledger is not None else None,
    )
    comparisons = scheduler.run()
    token = mc_token(config.mc)
    if (
        reallocate_budget
        and config.mc.adaptive
        and reference_name == "monte_carlo"
    ):
        # Re-allocated references depend on the whole sweep's budget
        # ledger, so these numbers are not interchangeable with a
        # non-reallocating run of the same MC configuration — tag the
        # token so merge_result_sets refuses to interleave the two.
        # Cross-shard-coordinated references additionally depend on the
        # *fleet's* ledger, so they get their own tag: merge combines
        # +xshard shards only with other +xshard shards.
        token += "+xshard" if budget_ledger is not None else "+realloc"
    return ResultSet(
        comparisons=comparisons,
        methods=tuple(method_names),
        reference_method=reference_name,
        shard=shard,
        mc_token=token,
        adopted=tuple(
            scheduler.adopted[slot] for slot in sorted(scheduler.adopted)
        ),
    )
