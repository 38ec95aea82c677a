"""Batch evaluation engine over design spaces.

:func:`evaluate_design_space` runs a set of registered methods over many
systems — the Table-2 grid, a cluster-size sweep, a workload family —
with one uniform call, replacing the bespoke per-experiment loops. The
experiments, the ablations and ``repro.analyze(...).run()`` all run
their registered estimators through it. Every call is one ordered map
(:func:`run_ordered`) on one thread pool; ``workers=1`` is a one-worker
pool. It

* refuses a point that its reference or one of its methods does not
  support before any estimate runs,
* memoizes every estimate, sweep points' and the SOFR step's component
  instances' alike, in one key space of a shared
  :class:`~repro.methods.base.ComponentCache`, keyed by content
  fingerprint (give the cache a
  :class:`~repro.methods.cache.DiskCache` and a warm rerun of a sweep
  performs zero re-estimations),
* runs one task per point and distinct estimator on the pool (the NumPy
  samplers release the GIL for the heavy draws); the cache's claim on a
  key is the only coordination between them, so a ``sofr_only``
  instance that is also a one-component point's reference is computed
  once and its other asker waits for it, and
* returns a serializable :class:`~repro.methods.results.ResultSet`
  whose record order always matches the input order, and whose
  per-record estimates follow the method order, regardless of worker
  count or completion order — ``workers=1`` and ``workers=N`` produce
  bit-identical numbers, because every estimate is a pure function of
  its system and Monte-Carlo configuration.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from ..core.comparison import MethodComparison
from ..core.montecarlo import MonteCarloConfig
from ..core.system import SystemModel
from ..errors import ConfigurationError
from . import registry
from .base import ComponentCache, MethodConfig
from .cache import mc_token
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


def run_ordered(task: Callable, items: Iterable, workers) -> list:
    """``[task(item) for item in items]`` on one pool of ``workers``
    threads (any knob :func:`resolve_workers` accepts).

    Results come back in ``items`` order. When a task raises, the map's
    iterator cancels every task not yet started, so the error surfaces
    once the tasks before it and those already running have finished.
    This is the one place src builds a thread pool.
    """
    with ThreadPoolExecutor(resolve_workers(workers)) as pool:
        return list(pool.map(task, items))


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


def check_support(
    space: Iterable[SpaceItem], methods: Sequence[str], reference: str
) -> tuple[list[tuple[str, SystemModel]], list[str], str]:
    """Refuse a sweep that its reference or one of its methods cannot run.

    Every point's reference is asked first, then each point's methods
    in method order; the first system whose ``supports(system)`` is
    False raises :class:`ConfigurationError`. Returns the labelled
    space and the canonical method and reference names. Nothing is
    estimated.
    """
    items = _normalize_space(space)
    if not methods:
        raise ConfigurationError(
            f"methods must not be empty; available: {registry.available()}"
        )
    method_names = [registry.get(name).name for name in methods]
    reference_name = registry.canonical_name(reference)
    checks = (("reference", [reference_name]), ("method", method_names))
    for kind, names in checks:
        for label, system in items:
            for name in names:
                if not registry.get(name).supports(system):
                    raise ConfigurationError(
                        f"{kind} {name!r} does not support system "
                        f"{label!r}"
                    )
    return items, method_names, reference_name


def evaluate_design_space(
    space: Iterable[SpaceItem],
    methods: Sequence[str],
    reference: str = "monte_carlo",
    mc_config: MonteCarloConfig | None = None,
    workers: int | str = 1,
    cache: ComponentCache | None = None,
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
        A :class:`ComponentCache` to share across calls (optionally
        disk-backed for cross-invocation reuse); ``None`` (default) is
        a fresh per-call cache.

    A system that the reference or one of the methods does not
    support raises :class:`ConfigurationError` before any estimate
    runs (:func:`check_support`).
    """
    items, method_names, reference_name = check_support(
        space, methods, reference
    )
    workers = resolve_workers(workers)
    config = MethodConfig(
        mc=mc_config or MonteCarloConfig(),
        reference=reference_name,
        cache=ComponentCache() if cache is None else cache,
    )
    # One task per point and distinct estimator: a method that is also
    # the reference reuses the reference's estimate.
    estimators = [
        registry.get(name)
        for name in dict.fromkeys([reference_name, *method_names])
    ]
    results = iter(
        run_ordered(
            lambda task: config.estimate(*task),
            [(e, system) for _label, system in items for e in estimators],
            workers,
        )
    )
    comparisons = []
    for label, _system in items:
        point = {e.name: next(results) for e in estimators}
        comparisons.append(
            MethodComparison(
                system_label=label,
                reference=point[reference_name],
                estimates={name: point[name] for name in method_names},
            )
        )
    return ResultSet(
        comparisons=tuple(comparisons),
        methods=tuple(method_names),
        reference_method=reference_name,
        mc_token=mc_token(config.mc),
    )
