"""Batch evaluation engine over design spaces.

:func:`evaluate_design_space` runs a set of registered methods over many
systems — the Table-2 grid, a cluster-size sweep, a workload family —
with one uniform call, replacing the bespoke per-experiment loops. Every
call runs the same schedule (:class:`_Scheduler`) on one thread pool;
``workers=1`` is a one-worker pool. It

* memoizes per-component MTTFs *and* whole system-level estimates in a
  shared :class:`~repro.methods.base.ComponentCache`, keyed by content
  fingerprint (give the cache a
  :class:`~repro.methods.cache.DiskCache` and a warm rerun of a sweep
  performs zero re-estimations),
* fans out over a thread pool (the NumPy samplers release the GIL for
  the heavy draws),
* **pipelines** method estimates: a point's estimator tasks join the
  pool the moment its reference is final, with no post-reference
  phase, and every step can emit a
  :class:`~repro.methods.progress.ProgressEvent`, and
* returns a serializable :class:`~repro.methods.results.ResultSet`
  whose record order always matches the input order, and whose
  per-record estimates follow the method order, regardless of worker
  count or completion order — ``workers=1`` and ``workers=N`` produce
  bit-identical numbers, because every estimate is a pure function of
  its system and Monte-Carlo configuration.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from typing import Iterable, Sequence

from ..core.comparison import MethodComparison
from ..core.montecarlo import MonteCarloConfig
from ..core.system import SystemModel
from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate
from . import registry
from .base import ComponentCache, MethodConfig
from .cache import mc_token
from .progress import (
    METHOD_DONE,
    METHOD_STARTED,
    POINT_DONE,
    POINT_START,
    ProgressCallback,
    ProgressEvent,
)
from .results import ResultSet

#: A design space item: a system, optionally labeled.
SpaceItem = SystemModel | tuple[str, SystemModel]


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


class _PointState:
    """Mutable per-point bookkeeping for the scheduler."""

    __slots__ = (
        "index", "label", "system", "reference", "ref_key", "estimates",
        "pending_methods",
    )

    def __init__(self, index: int, label: str, system: SystemModel) -> None:
        self.index = index
        self.label = label
        self.system = system
        self.reference: MTTFEstimate | None = None
        self.ref_key: str | None = None
        #: Method estimates as they land (completion order); the result
        #: records them in method order.
        self.estimates: dict[str, MTTFEstimate] = {}
        self.pending_methods: set[str] = set()


class _Scheduler:
    """Work-conserving sweep scheduler: one thread pool, two work kinds.

    Every :func:`evaluate_design_space` call runs one. A single thread
    pool runs, with no phase barriers between them:

    * **references** — a cache miss submits the point's reference
      estimate;
    * **method estimates** — the moment a point's reference is final,
      its per-method estimator tasks join the same pool; results land
      in any order and are recorded in method order.

    Determinism: each estimate is a pure function of the point's system
    and Monte-Carlo configuration, never of worker count or completion
    order.
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
        progress: ProgressCallback | None,
        skip_unsupported: bool,
    ) -> None:
        self.method_names = method_names
        self.reference_name = reference_name
        self.reference_estimator = reference_estimator
        self.config = config
        self.cache = cache
        self.workers = workers
        self.progress = progress
        self.skip_unsupported = skip_unsupported
        self.points = [
            _PointState(index, label, system)
            for index, (label, system) in enumerate(items)
        ]
        self.pool = None
        self.waiting: set[Future] = set()
        #: Per in-flight future: its completion handler and arguments.
        self.future_meta: dict[Future, tuple] = {}

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
        self._emit(ProgressEvent(state.label, POINT_START))
        self._submit_estimate(
            self.reference_estimator, state, self._on_reference, state.index
        )

    def _submit_estimate(self, estimator, state: _PointState, *meta) -> None:
        """Submit one estimate; ``meta`` is its completion handler and
        the handler's arguments."""
        future = self.pool.submit(
            estimator.estimate, state.system, self.config
        )
        self.future_meta[future] = meta
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
            self._submit_estimate(
                estimator, state, self._on_method, state.index, name
            )
            state.pending_methods.add(name)
            self._emit(
                ProgressEvent(state.label, METHOD_STARTED, method=name)
            )

    # -- completions -------------------------------------------------------

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

    # -- main loop ---------------------------------------------------------

    def _drain(self) -> None:
        """Handle completions and submit follow-up work until none is left."""
        while self.waiting:
            completed, self.waiting = wait(
                self.waiting, return_when=FIRST_COMPLETED
            )
            for future in completed:
                handler, *args = self.future_meta.pop(future)
                handler(future, *args)

    def run(self) -> tuple[MethodComparison, ...]:
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
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
    cache: ComponentCache | bool | None = None,
    skip_unsupported: bool = False,
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
        Monte-Carlo settings shared by every stochastic estimate: each
        runs ``mc_config.trials`` trials from ``mc_config.seed``.
    workers:
        Thread-pool width; 1 (default) is a one-worker pool, ``"auto"``
        the cpu count. Neither the width nor the completion order
        affects the numbers, and results keep the input order.
    cache:
        ``None`` (default) uses a fresh per-call cache,
        ``False`` disables memoization, or pass a
        :class:`ComponentCache` to share across calls (optionally
        disk-backed for cross-invocation reuse).
    skip_unsupported:
        When True, methods whose ``supports(system)`` is False are
        silently omitted from that system's record instead of raising.
    progress:
        Optional callback receiving
        :class:`~repro.methods.progress.ProgressEvent` per grid point
        and per pipelined method estimate.
    """
    items = _normalize_space(space)
    if not methods:
        raise ConfigurationError(
            f"methods must not be empty; available: {registry.available()}"
        )
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
        progress=progress,
        skip_unsupported=skip_unsupported,
    ).run()
    return ResultSet(
        comparisons=comparisons,
        methods=tuple(method_names),
        reference_method=reference_name,
        mc_token=mc_token(config.mc),
    )
