"""Estimator protocol and shared estimation context.

Every MTTF method the paper studies — and every method added since — is
exposed through one uniform surface: an :class:`Estimator` with a
``name``, capability flags, and an ``estimate(system, config)`` call
returning an :class:`~repro.reliability.metrics.MTTFEstimate`. The
:class:`MethodConfig` carries everything a method may need (Monte-Carlo
settings, the run's reference method for the SOFR-only step, a shared
estimate cache) so estimators stay stateless and the batch engine can
fan them out freely.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from ..core.montecarlo import MonteCarloConfig
from ..core.system import SystemModel
from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate
from .cache import DiskCache, mc_token, resolve_cache_dir


def _stored_estimate(stored) -> MTTFEstimate | None:
    """A disk entry decoded as an :class:`MTTFEstimate`, else ``None``
    (a miss)."""
    try:
        return MTTFEstimate.from_dict(stored)
    except ConfigurationError:
        return None


class ComponentCache:
    """Memoizes MTTF estimates across systems, keyed by content.

    One key space, ``system/<method>/<reference>/<system-fingerprint>/
    <mc-token>`` (:meth:`estimate_key`), holds every estimate the batch
    engine computes: sweep points' references and method estimates,
    and the component-instance MTTFs the SOFR step feeds on, which are
    the reference method's estimates of each instance's one-instance
    system (:meth:`~repro.core.system.Component.alone`). A cluster's
    instance is therefore one entry at every C, and the same entry as
    the one-component point of the same component.

    Keys are *content-addressed*: they derive from the system's
    ``content_fingerprint`` (a digest of names, rates, multiplicities
    and profile contents) plus the Monte-Carlo settings — never from
    ``id()``, which could be silently reused by a different profile
    after garbage collection and means nothing across processes.

    :meth:`get_or_compute` computes each key at most once, even when
    several pool threads ask for it at once. Pass ``disk=DiskCache(path)``
    to back the in-memory map with a persistent JSON-per-entry store
    shared across CLI invocations; lookups then go memory -> disk ->
    compute, and computed values are written through. A disk value that
    does not decode as an :class:`MTTFEstimate` is a miss, and the
    recomputed value replaces it.

    ``hits`` counts requests served from memory (or by waiting for
    another thread's computation of the key), ``disk_hits`` those served
    from disk and ``misses`` the estimates computed, so a cold run's
    misses equal its entries and a warm rerun's misses are 0.
    """

    def __init__(self, disk: DiskCache | None = None) -> None:
        self._estimates: dict[str, MTTFEstimate] = {}
        #: Keys being loaded or computed right now, each with the future
        #: its other callers wait on.
        self._in_flight: dict[str, Future] = {}
        self._lock = threading.Lock()
        self.disk = disk
        self.hits = 0
        self.misses = 0
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
        return len(self._estimates)

    def stats_line(self) -> str:
        """One-line summary (the CLI prints this for ``--cache-dir`` runs)."""
        return (
            f"entries={len(self)} hits={self.hits} "
            f"disk_hits={self.disk_hits} misses={self.misses}"
        )

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

    def get_or_compute(
        self, key: str, compute: Callable[[], MTTFEstimate]
    ) -> MTTFEstimate:
        """The estimate under ``key``, computing it at most once.

        The first caller of a key claims it and goes memory -> disk ->
        ``compute``; concurrent callers of the same key wait for its
        value and count as hits. If the claimant raises, every waiter
        gets the same exception and the key is free for a later call.
        """
        with self._lock:
            found = self._estimates.get(key)
            pending = self._in_flight.get(key) if found is None else None
            if found is None and pending is None:
                claim = self._in_flight[key] = Future()
            else:
                self.hits += 1
        if found is not None:
            return found
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
            self._estimates[key] = value
            del self._in_flight[key]
        claim.set_result(value)
        return value

    def _load_or_compute(
        self, key: str, compute: Callable[[], MTTFEstimate]
    ) -> MTTFEstimate:
        """Disk, else ``compute`` (written through); the caller holds
        the key's claim. A malformed disk value is a miss, and the
        computed value overwrites it."""
        if self.disk is not None:
            stored = _stored_estimate(self.disk.get(key))
            if stored is not None:
                with self._lock:
                    self.disk_hits += 1
                return stored
        value = compute()
        with self._lock:
            self.misses += 1
        if self.disk is not None:
            self.disk.put(key, value.to_dict())
        return value


@dataclass(frozen=True)
class MethodConfig:
    """Everything an estimator may need beyond the system itself.

    Attributes
    ----------
    mc:
        Monte-Carlo settings (trials/seed/sampler) for stochastic
        methods.
    reference:
        The run's reference method. The SOFR-only step feeds on its
        estimates of each component instance (Section 4.2), so it needs
        to know.
    cache:
        Optional shared :class:`ComponentCache`; :meth:`estimate` goes
        through it when present.
    """

    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    reference: str = "monte_carlo"
    cache: ComponentCache | None = None

    def key(self, estimator: Estimator, system: SystemModel) -> str:
        """The cache key of ``estimator``'s estimate of ``system`` in
        this run: the Monte-Carlo settings join it only when the
        estimator is stochastic."""
        return ComponentCache.estimate_key(
            estimator.name,
            system,
            self.mc if estimator.is_stochastic else None,
            self.reference,
        )

    def estimate(
        self, estimator: Estimator, system: SystemModel
    ) -> MTTFEstimate:
        """``estimator``'s estimate of ``system``, computed at most once
        per :meth:`key` through the cache when present."""
        if self.cache is None:
            return estimator.estimate(system, self)
        return self.cache.get_or_compute(
            self.key(estimator, system),
            lambda: estimator.estimate(system, self),
        )


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
