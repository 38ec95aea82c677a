"""Estimator protocol and shared estimation context.

Every MTTF method the paper studies — and every method added since — is
exposed through one uniform surface: an :class:`Estimator` with a
``name``, capability flags, and an ``estimate(system, config)`` call
returning an :class:`~repro.reliability.metrics.MTTFEstimate`. The
:class:`MethodConfig` carries everything a method may need (Monte-Carlo
settings, the reference convention for the SOFR-only step, a shared
per-component memoization cache) so estimators stay stateless and the
batch engine can fan them out freely.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from ..core.montecarlo import MonteCarloConfig
from ..core.system import Component, SystemModel
from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate
from .cache import DiskCache, mc_token, resolve_cache_dir


def _component_value(stored) -> float | None:
    """A disk entry's component MTTF: a number > 0 (``inf`` allowed),
    else ``None`` (a miss)."""
    value = stored.get("mttf_seconds") if isinstance(stored, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if value > 0 else None


def _system_value(stored) -> MTTFEstimate | None:
    """A disk entry decoded as an :class:`MTTFEstimate`, else ``None``
    (a miss)."""
    try:
        return MTTFEstimate.from_dict(stored)
    except ConfigurationError:
        return None


class ComponentCache:
    """Memoizes MTTF estimates across systems, keyed by content.

    Two levels of granularity share one cache object:

    * **per-component** MTTFs (``get_or_compute``) — the design-space
      sweeps re-estimate the same component profile at the same raw rate
      for every value of C (hundreds of grid points in the Fig. 5/6
      sweeps); one Monte-Carlo run per distinct component is enough,
      even when several pool threads ask for it at once;
    * **system-level** estimates (``lookup_estimate`` /
      ``store_estimate``) — the batch engine memoizes whole
      reference/method estimates so a warm rerun of a sweep performs
      zero re-estimations.

    Keys are *content-addressed*: they derive from the component/system
    ``content_fingerprint`` (a digest of profile breakpoints/values,
    rates, multiplicities) plus the Monte-Carlo settings — never from
    ``id()``, which could be silently reused by a different profile
    after garbage collection and means nothing across processes.
    Multiplicity is deliberately excluded from component keys, since a
    component *instance's* MTTF does not depend on how many copies the
    system has.

    Pass ``disk=DiskCache(path)`` to back the in-memory maps with a
    persistent JSON-per-entry store shared across CLI invocations;
    lookups then go memory -> disk -> compute, and computed values are
    written through. A disk value that does not decode (a component
    MTTF that is not a number > 0, a system entry that is not a valid
    :class:`MTTFEstimate`) is a miss, and the recomputed value replaces
    it.
    """

    def __init__(self, disk: DiskCache | None = None) -> None:
        self._entries: dict[str, float] = {}
        self._estimates: dict[str, MTTFEstimate] = {}
        #: Component keys being loaded or computed right now, each with
        #: the future its other callers wait on.
        self._in_flight: dict[str, Future] = {}
        self._lock = threading.Lock()
        self.disk = disk
        #: Component-level memory hits/misses (back-compat counters).
        self.hits = 0
        self.misses = 0
        #: System-level estimate memory hits/misses.
        self.estimate_hits = 0
        self.estimate_misses = 0
        #: Disk hits at either level.
        self.disk_hits = 0

    @classmethod
    def at(cls, cache_dir: str | os.PathLike | None) -> ComponentCache:
        """The estimate cache for ``cache_dir``, shared by every entry point.

        The directory resolves by the one cache-path rule
        (:func:`~repro.methods.cache.resolve_cache_dir`: the explicit
        path, else ``$REPRO_CACHE_DIR``); the cache is disk-backed when
        it resolves and memory-only otherwise.
        """
        resolved = resolve_cache_dir(cache_dir)
        return cls(disk=None if resolved is None else DiskCache(resolved))

    def __len__(self) -> int:
        return len(self._entries) + len(self._estimates)

    def stats_line(self) -> str:
        """One-line summary (the CLI prints this for ``--cache-dir`` runs).

        ``misses`` counts *every* estimation actually performed —
        component-level and system-level — so a warm disk-cache rerun
        reports ``misses=0``.
        """
        return (
            f"entries={len(self)} "
            f"hits={self.hits + self.estimate_hits} "
            f"disk_hits={self.disk_hits} "
            f"misses={self.misses + self.estimate_misses}"
        )

    # -- per-component values ---------------------------------------------

    @staticmethod
    def component_key(
        kind: str, component: Component, mc: MonteCarloConfig | None
    ) -> str:
        return (
            f"component/{kind}/{component.content_fingerprint}/"
            f"{mc_token(mc)}"
        )

    def get_or_compute(
        self,
        kind: str,
        component: Component,
        mc: MonteCarloConfig | None,
        compute: Callable[[], float],
    ) -> float:
        """The cached MTTF for ``component``, computing it at most once.

        The first caller of a key claims it and goes memory -> disk ->
        ``compute``; concurrent callers of the same key wait for its
        value and count as hits. If the claimant raises, every waiter
        gets the same exception and the key is free for a later call.
        """
        key = self.component_key(kind, component, mc)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
            pending = self._in_flight.get(key)
            if pending is not None:
                self.hits += 1
            else:
                claim = self._in_flight[key] = Future()
        if pending is not None:
            return pending.result()
        try:
            value = self._load_or_compute(key, compute)
        except BaseException as error:
            with self._lock:
                del self._in_flight[key]
            claim.set_exception(error)
            raise
        with self._lock:
            self._entries[key] = value
            del self._in_flight[key]
        claim.set_result(value)
        return value

    def _load_or_compute(self, key: str, compute: Callable[[], float]):
        """Disk, else ``compute`` (written through); the caller holds
        the key's claim. A malformed disk value is a miss, and the
        computed value overwrites it."""
        if self.disk is not None:
            stored = _component_value(self.disk.get(key))
            if stored is not None:
                with self._lock:
                    self.disk_hits += 1
                return stored
        value = compute()
        with self._lock:
            self.misses += 1
        if self.disk is not None:
            self.disk.put(key, {"mttf_seconds": value})
        return value

    # -- system-level estimates -------------------------------------------

    @staticmethod
    def estimate_key(
        method: str,
        system: SystemModel,
        mc: MonteCarloConfig | None,
        reference: str,
    ) -> str:
        return (
            f"system/{method}/{reference}/{system.content_fingerprint}/"
            f"{mc_token(mc)}"
        )

    def lookup_estimate(self, key: str) -> MTTFEstimate | None:
        """Memory-then-disk lookup; counts a miss when absent."""
        with self._lock:
            if key in self._estimates:
                self.estimate_hits += 1
                return self._estimates[key]
        if self.disk is not None:
            estimate = _system_value(self.disk.get(key))
            if estimate is not None:
                with self._lock:
                    self._estimates.setdefault(key, estimate)
                    self.disk_hits += 1
                return estimate
        with self._lock:
            self.estimate_misses += 1
        return None

    def store_estimate(self, key: str, estimate: MTTFEstimate) -> None:
        with self._lock:
            self._estimates.setdefault(key, estimate)
        if self.disk is not None:
            self.disk.put(key, estimate.to_dict())


@dataclass(frozen=True)
class MethodConfig:
    """Everything an estimator may need beyond the system itself.

    Attributes
    ----------
    mc:
        Monte-Carlo settings (trials/seed/sampler) for stochastic
        methods and for MC-fed component MTTFs.
    reference:
        Which reference convention the run uses (``"monte_carlo"`` or
        ``"exact"``/``"first_principles"``). The SOFR-only step feeds on
        component MTTFs from the reference method (Section 4.2), so it
        needs to know.
    cache:
        Optional shared :class:`ComponentCache`; estimators that compute
        per-component MTTFs consult it when present.
    """

    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    reference: str = "monte_carlo"
    cache: ComponentCache | None = None

    def component_mttf(
        self,
        kind: str,
        component: Component,
        mc: MonteCarloConfig | None,
        compute: Callable[[], float],
    ) -> float:
        """Compute a per-component MTTF through the cache when present."""
        if self.cache is None:
            return compute()
        return self.cache.get_or_compute(kind, component, mc, compute)


@runtime_checkable
class Estimator(Protocol):
    """One MTTF estimation method, uniformly callable.

    Attributes
    ----------
    name:
        Registry key ("avf", "monte_carlo", ...).
    is_stochastic:
        True when the estimate carries sampling noise (so equal-seed
        reruns are needed for reproducibility).
    """

    name: str
    is_stochastic: bool

    def estimate(
        self, system: SystemModel, config: MethodConfig | None = None
    ) -> MTTFEstimate:
        """Estimate the system MTTF."""
        ...

    def supports(self, system: SystemModel) -> bool:
        """Whether this method can handle the given system."""
        ...


@dataclass(frozen=True)
class FunctionEstimator:
    """An :class:`Estimator` wrapping a plain estimation function.

    This is the adapter shape :func:`~repro.methods.registry.register_method`
    produces; the wrapped callable receives ``(system, config)`` with a
    concrete (never ``None``) :class:`MethodConfig`.
    """

    name: str
    fn: Callable[[SystemModel, MethodConfig], MTTFEstimate]
    is_stochastic: bool = False
    supports_fn: Callable[[SystemModel], bool] | None = None
    doc: str = ""

    def estimate(
        self, system: SystemModel, config: MethodConfig | None = None
    ) -> MTTFEstimate:
        return self.fn(system, config or MethodConfig())

    def supports(self, system: SystemModel) -> bool:
        if self.supports_fn is None:
            return True
        return self.supports_fn(system)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = " [stochastic]" if self.is_stochastic else ""
        return f"<method {self.name!r}{suffix}>"
