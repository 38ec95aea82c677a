"""Compiled sampling kernels: fingerprint-cached intensity plans.

Every inverse-method Monte-Carlo draw runs through a **plan**: any
:class:`~repro.reliability.hazard.CyclicIntensity` compiled into dense
NumPy tables (breakpoints, rates, cumulative-hazard and cumulative-mass
arrays), built once per design point and memoized on the content
fingerprints, so no estimate rebuilds the combined intensity or walks the
hazard objects' per-call ``np.unique(seg)`` scans. The object-graph
sampler is the test oracle (``tests/sampler_oracle.py``), which
:func:`inverse_ttf` must match bit for bit.

Two layers:

* **Compiled intensities** — :class:`CompiledPiecewise` and
  :class:`CompiledNested` replicate the exact floating-point arithmetic
  of their :mod:`~repro.reliability.hazard` counterparts (same segment
  indices, same guard chains, same clips) while dropping
  the per-call Python overhead (object traversal, ``np.unique``,
  re-validation of static tables). Same inputs, same bits. Segment
  lookups use a bucket-guided search (:class:`_Guide`) that returns
  ``np.searchsorted``'s index exactly at a fraction of its cost, and
  the inverse transform runs over cache-sized trial slices.
* **Sampling plans** — :class:`SamplingPlan` bundles a compiled
  intensity with its source model (for the arrival sampler, which
  needs the full model) under the model's content fingerprint, in a
  bounded process-wide LRU.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError, ProfileError
from ..reliability.hazard import (
    _REL_TOL,
    CyclicIntensity,
    NestedHazard,
    PiecewiseHazard,
)
from .system import Component, SystemModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .montecarlo import MonteCarloConfig

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal

#: Trials per slice of the blocked inverse transform. A slice's
#: temporaries (a few dozen float64/intp arrays of this length, 256 KiB
#: each) stay cache-resident; 16k-64k measured flat on a 2-CPU x86-64 VM.
SLICE_TRIALS = 32_768


# ---------------------------------------------------------------------------
# Compiled intensities.
# ---------------------------------------------------------------------------


def _table(kind: str, name: str, values, *, increasing: bool) -> np.ndarray:
    """``values`` as a finite 1-D float table that starts at 0.

    ``increasing`` demands strictly increasing entries (breakpoints,
    segment starts); otherwise non-decreasing (cumulative tables, where
    zero-rate segments repeat an entry). These are the preconditions of
    both the samplers and :class:`_Guide`, so a table that breaks them
    is refused here instead of sampling garbage.
    """
    table = _float_array(kind, name, values)
    if table.ndim != 1 or table.size < 2:
        raise ConfigurationError(
            f"compiled {kind} table {name!r} needs at least two entries"
        )
    steps = np.diff(table)
    if (
        not np.all(np.isfinite(table))
        or table[0] != 0.0
        or not np.all(steps > 0 if increasing else steps >= 0)
    ):
        order = "strictly increasing" if increasing else "non-decreasing"
        raise ConfigurationError(
            f"compiled {kind} table {name!r} must be finite, start at 0 "
            f"and be {order}"
        )
    return table


def _values(kind: str, name: str, values, *, positive: bool) -> np.ndarray:
    """``values`` as a finite 1-D float array, ``>= 0`` (or ``> 0``)."""
    array = _float_array(kind, name, values)
    if array.ndim != 1 or not np.all(
        np.isfinite(array) & ((array > 0) if positive else (array >= 0))
    ):
        sign = "positive" if positive else "non-negative"
        raise ConfigurationError(
            f"compiled {kind} table {name!r} must be finite and {sign}"
        )
    return array


def _float_array(kind: str, name: str, values) -> np.ndarray:
    try:
        return np.ascontiguousarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(
            f"compiled {kind} table {name!r} is not numeric: {error}"
        ) from None


class _Guide:
    """Exact bucket-guided replacement for ``np.searchsorted``.

    Built once per sorted table ``t`` (``n >= 1`` finite entries,
    non-decreasing). :meth:`search` returns ``np.searchsorted(t, x,
    side)`` — the same integer index — in a few cache-resident probes
    instead of a ~log2(n)-deep binary search whose branches mispredict
    on random queries.

    **Why the index is exact.** There is one bucket per entry:
    ``bucket(x) = clip(floor((x - t[0]) * scale), 0, n - 1)`` with
    ``scale = n / (t[-1] - t[0])``. Every step (a rounded subtraction,
    a rounded product with ``scale >= 0``, ``floor``, ``clip``) is
    monotone non-decreasing, and table entries are bucketed with the
    very same operations. So an entry in a lower bucket than ``x`` is
    ``< x`` and an entry in a higher bucket is ``> x``: the answer is
    the number of entries in lower buckets (``starts``) plus the count
    of same-bucket entries ``< x`` (``<= x`` for ``side="right"``).
    That count comes from a branchless power-of-two probe window of
    ``bit_length(max bucket occupancy)`` probes. Probes that run past
    the bucket land on later entries (``> x``) or on ``+inf`` padding,
    so they never count. Queries must be finite; the samplers clip
    every query into the table's range first.

    If ``scale`` is not finite and positive (all entries equal, a
    subnormal span whose reciprocal overflows, or a span that itself
    overflows), every entry and query falls in one bucket: ``0 * inf``
    would otherwise turn into a NaN bucket index.

    The padded buffer *is* the table's storage: :attr:`table` is a view
    of it that the owner adopts, so the entries are held once.
    """

    __slots__ = ("table", "_padded", "_origin", "_scale", "_top", "_starts",
                 "_steps")

    def __init__(self, table: np.ndarray) -> None:
        n = table.size
        with np.errstate(divide="ignore", over="ignore"):
            scale = float(n / (table[-1] - table[0]))
        buckets = n if 0.0 < scale < np.inf else 1
        self._origin = float(table[0])
        self._scale = scale
        self._top = float(buckets - 1)
        occupancy = np.bincount(self._bucket(table), minlength=buckets)
        self._starts = np.cumsum(occupancy) - occupancy
        depth = int(occupancy.max()).bit_length()
        self._steps = tuple(1 << s for s in reversed(range(depth)))
        self._padded = np.full(n + (1 << depth) - 1, np.inf)
        self._padded[:n] = table
        self.table = self._padded[:n]

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        if self._top == 0.0:
            return np.zeros(x.shape, dtype=np.intp)
        with np.errstate(over="ignore"):  # far queries clip to an end
            b = np.subtract(x, self._origin)
            b *= self._scale
        np.floor(b, out=b)
        np.clip(b, 0.0, self._top, out=b)
        return b.astype(np.intp)

    def search(self, x: np.ndarray, side: str) -> np.ndarray:
        """``np.searchsorted(table, x, side)``, exactly."""
        shape = np.shape(x)
        x = np.ravel(x)
        pos = self._starts.take(self._bucket(x))
        counts = np.less if side == "left" else np.less_equal
        for step in self._steps:
            pos += counts(self._padded.take(pos + (step - 1)), x) * step
        return pos.reshape(shape)


def _guided(owner, name: str) -> _Guide:
    """The guide of ``owner``'s table attribute ``name``, built lazily.

    The owner adopts the guide's view as its table, so the entries are
    not held twice. Two threads racing here build equal guides over
    equal tables; either result is correct.
    """
    guide = owner._guides.get(name)  # noqa: SLF001 - owner's own cache
    if guide is None:
        guide = _Guide(getattr(owner, name))
        setattr(owner, name, guide.table)
        owner._guides[name] = guide  # noqa: SLF001
    return guide


class CompiledPiecewise:
    """Dense-table replica of :class:`PiecewiseHazard`.

    Holds exactly the arrays the hazard object derives at construction —
    breakpoints, per-segment rates, and the cumulative-hazard table —
    and evaluates ``cumulative``/``invert`` with the *identical*
    floating-point operation sequence, so every sample drawn through a
    plan matches the object sampler over the hazard (the test oracle)
    bit for bit. Segment lookups go through a :class:`_Guide`, which
    returns ``np.searchsorted``'s index exactly.
    """

    __slots__ = ("bp", "rates", "cum", "period", "mass", "_guides")

    kind = "piecewise"

    def __init__(
        self, bp: np.ndarray, rates: np.ndarray, cum: np.ndarray
    ) -> None:
        self.bp = _table("piecewise", "breakpoints", bp, increasing=True)
        self.rates = _values("piecewise", "rates", rates, positive=False)
        self.cum = _table("piecewise", "cum", cum, increasing=False)
        if self.bp.size != self.rates.size + 1 or (
            self.cum.size != self.bp.size
        ):
            raise ConfigurationError(
                "compiled piecewise tables are inconsistent: "
                f"{self.bp.size} breakpoints, {self.rates.size} rates, "
                f"{self.cum.size} cumulative entries"
            )
        self.period = float(self.bp[-1])
        self.mass = float(self.cum[-1])
        self._guides: dict[str, _Guide] = {}

    @classmethod
    def from_hazard(cls, hazard: PiecewiseHazard) -> "CompiledPiecewise":
        return cls(
            hazard.breakpoints,
            hazard.rates,
            hazard._cum,  # noqa: SLF001 - module-internal compilation
        )

    def cumulative(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if np.any((tau < 0) | (tau > self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period]")
        tau = np.clip(tau, 0.0, self.period)
        idx = np.clip(
            _guided(self, "bp").search(tau, "right") - 1,
            0,
            self.rates.size - 1,
        )
        return self.cum[idx] + self.rates[idx] * (tau - self.bp[idx])

    def invert(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0) | (u > self.mass * (1 + _REL_TOL))):
            raise ProfileError("u outside (0, mass]")
        u = np.minimum(u, self.mass)
        idx = np.clip(
            _guided(self, "cum").search(u, "left") - 1,
            0,
            self.rates.size - 1,
        )
        rate = self.rates[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(rate > 0, (u - self.cum[idx]) / rate, 0.0)
        return np.minimum(self.bp[idx] + frac, self.period)


class CompiledNested:
    """Dense-table replica of :class:`NestedHazard`.

    Outer tables (segment starts, durations, cumulative mass) plus one
    :class:`CompiledPiecewise` per outer segment. ``cumulative`` and
    ``invert`` reproduce the hazard object's grouped evaluation, with
    one deliberate pass-reduction: segment membership is counted with
    ``np.bincount`` instead of sorting the whole index array through
    ``np.unique`` per call. Iteration stays in ascending segment order
    and the per-element arithmetic is unchanged, so the outputs are
    bit-identical.
    """

    __slots__ = (
        "starts", "durations", "cum_mass", "inners", "period", "mass",
        "_guides",
    )

    kind = "nested"

    def __init__(
        self,
        starts: np.ndarray,
        durations: np.ndarray,
        cum_mass: np.ndarray,
        inners: Sequence[CompiledPiecewise],
    ) -> None:
        self.starts = _table("nested", "starts", starts, increasing=True)
        self.durations = _values(
            "nested", "durations", durations, positive=True
        )
        self.cum_mass = _table(
            "nested", "cum_mass", cum_mass, increasing=False
        )
        self.inners = tuple(inners)
        if (
            self.starts.size != len(self.inners) + 1
            or self.durations.size != len(self.inners)
            or self.cum_mass.size != len(self.inners) + 1
        ):
            raise ConfigurationError(
                "compiled nested tables are inconsistent: "
                f"{len(self.inners)} segments, {self.starts.size} starts, "
                f"{self.cum_mass.size} cumulative-mass entries"
            )
        self.period = float(self.starts[-1])
        self.mass = float(self.cum_mass[-1])
        self._guides: dict[str, _Guide] = {}

    @classmethod
    def from_hazard(cls, hazard: NestedHazard) -> "CompiledNested":
        return cls(
            hazard._starts,  # noqa: SLF001 - module-internal compilation
            np.asarray(hazard._durations, dtype=float),  # noqa: SLF001
            hazard._cum_mass,  # noqa: SLF001
            [
                CompiledPiecewise.from_hazard(inner)
                for inner in hazard._inners  # noqa: SLF001
            ],
        )

    @property
    def segment_count(self) -> int:
        return len(self.inners)

    def cumulative(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        tau = np.atleast_1d(tau)
        if np.any((tau < 0) | (tau > self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period]")
        tau = np.clip(tau, 0.0, self.period)
        seg = np.clip(
            _guided(self, "starts").search(tau, "right") - 1,
            0,
            self.segment_count - 1,
        )
        counts = np.bincount(seg, minlength=self.segment_count)
        out = np.empty_like(tau)
        for j in range(self.segment_count):
            if counts[j] == 0:
                continue
            sel = seg == j
            local = tau[sel] - self.starts[j]
            inner = self.inners[j]
            k = np.floor(local / inner.period)
            rem = np.clip(local - k * inner.period, 0.0, inner.period)
            out[sel] = (
                self.cum_mass[j] + k * inner.mass + inner.cumulative(rem)
            )
        return out[0] if scalar else out

    def invert(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any((u <= 0) | (u > self.mass * (1 + _REL_TOL))):
            raise ProfileError("u outside (0, mass]")
        u = np.minimum(u, self.mass)
        seg = np.clip(
            _guided(self, "cum_mass").search(u, "left") - 1,
            0,
            self.segment_count - 1,
        )
        counts = np.bincount(seg, minlength=self.segment_count)
        out = np.empty_like(u)
        for j in range(self.segment_count):
            if counts[j] == 0:
                continue
            sel = seg == j
            inner = self.inners[j]
            rem = u[sel] - self.cum_mass[j]
            if inner.mass <= 0:
                out[sel] = self.starts[j]
                continue
            k = np.floor(rem / inner.mass)
            inner_rem = rem - k * inner.mass
            # Masked in-place form of the hazard's guard chain (see
            # _invert_extended).
            under = inner_rem <= 0.0
            np.subtract(k, 1, out=k, where=under)
            np.add(inner_rem, inner.mass, out=inner_rem, where=under)
            over = inner_rem > inner.mass
            np.add(k, 1, out=k, where=over)
            np.subtract(inner_rem, inner.mass, out=inner_rem, where=over)
            np.clip(inner_rem, _SMALLEST_SUBNORMAL, inner.mass, out=inner_rem)
            out[sel] = (
                self.starts[j] + k * inner.period + inner.invert(inner_rem)
            )
        out = np.minimum(out, self.period)
        return out[0] if scalar else out


#: A compiled intensity of either shape.
CompiledIntensity = CompiledPiecewise | CompiledNested


def compile_intensity(intensity: CyclicIntensity) -> CompiledIntensity:
    """Flatten a cyclic intensity into its dense-table plan form."""
    if isinstance(intensity, PiecewiseHazard):
        return CompiledPiecewise.from_hazard(intensity)
    if isinstance(intensity, NestedHazard):
        return CompiledNested.from_hazard(intensity)
    raise ConfigurationError(
        f"cannot compile intensity of type {type(intensity).__name__}"
    )


# ---------------------------------------------------------------------------
# Extended (cyclic) evaluation — replicas of CyclicIntensity's helpers.
# ---------------------------------------------------------------------------


def _cumulative_extended(
    intensity: CompiledIntensity, t: np.ndarray
) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ProfileError("time must be non-negative")
    k = np.floor(t / intensity.period)
    rem = t - k * intensity.period
    rem = np.clip(rem, 0.0, intensity.period)
    return k * intensity.mass + intensity.cumulative(rem)


def _invert_extended(
    intensity: CompiledIntensity, u: np.ndarray
) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ProfileError("hazard target must be positive")
    if intensity.mass <= 0:
        return np.full_like(u, np.inf)
    k = np.floor(u / intensity.mass)
    rem = u - k * intensity.mass
    # ``CyclicIntensity.invert_extended``'s ``np.where`` guard chain as
    # masked in-place updates: the same operation on the same elements,
    # without the temporaries.
    under = rem <= 0.0
    np.subtract(k, 1, out=k, where=under)
    np.add(rem, intensity.mass, out=rem, where=under)
    over = rem > intensity.mass
    np.add(k, 1, out=k, where=over)
    np.subtract(rem, intensity.mass, out=rem, where=over)
    np.clip(rem, _SMALLEST_SUBNORMAL, intensity.mass, out=rem)
    k *= intensity.period
    k += intensity.invert(rem)
    return k


def inverse_ttf(
    intensity: CompiledIntensity,
    config: "MonteCarloConfig",
    rng: np.random.Generator,
) -> np.ndarray:
    """Inverse-hazard TTF samples against a compiled intensity.

    With a random start offset ``u``, ``X = Λ⁻¹(E + Λ(u)) - u`` for
    ``E ~ Exp(1)``. ``e`` and the offsets are drawn at full length in
    the oracle's order; the transform then runs over
    :data:`SLICE_TRIALS`-sized slices into one output, so temporaries
    stay in cache. Every element sees the oracle's operations, so the
    bits match, and each slice runs the same checks.
    """
    if intensity.mass <= 0:
        return np.full(config.trials, np.inf)
    e = rng.exponential(size=config.trials)
    offsets = None
    if config.start_phase != "zero":
        offsets = rng.uniform(0.0, intensity.period, size=config.trials)
    out = np.empty_like(e)
    for start in range(0, e.size, SLICE_TRIALS):
        part = slice(start, start + SLICE_TRIALS)
        if offsets is None:
            out[part] = _invert_extended(intensity, e[part])
            continue
        shift = offsets[part]
        accrued = _cumulative_extended(intensity, shift)
        out[part] = _invert_extended(intensity, e[part] + accrued) - shift
    return out


# ---------------------------------------------------------------------------
# Sampling plans.
# ---------------------------------------------------------------------------


class SamplingPlan:
    """Everything needed to draw one target's TTF samples.

    ``kind`` is ``"system"`` (inverse draws use the superposed
    intensity; arrival draws need the full :class:`SystemModel`) or
    ``"component"`` (one instance: inverse draws use the component's own
    intensity). ``model`` is the source the plan was compiled from.
    """

    __slots__ = ("kind", "fingerprint", "intensity", "model")

    def __init__(
        self,
        kind: str,
        fingerprint: str,
        intensity: CompiledIntensity,
        model: SystemModel | Component,
    ) -> None:
        if kind not in ("system", "component"):
            raise ConfigurationError(f"unknown plan kind {kind!r}")
        self.kind = kind
        self.fingerprint = fingerprint
        self.intensity = intensity
        self.model = model

    @property
    def cache_key(self) -> str:
        """Plan-cache key: fingerprints are namespaced by kind."""
        return f"{self.kind}:{self.fingerprint}"

    def sample_ttf(self, config: "MonteCarloConfig") -> np.ndarray:
        """Draw ``config.trials`` i.i.d. TTF samples against this plan.

        ``sample_system_ttf``/``sample_component_ttf`` route every
        inverse draw here. The RNG is built from ``config.seed``; the
        inverse path is :func:`inverse_ttf` on the compiled tables, and
        the arrival path is the paper-literal sampler run on the source
        model.
        """
        from . import montecarlo as mc

        rng = np.random.default_rng(config.seed)
        if config.method == "inverse":
            return inverse_ttf(self.intensity, config, rng)
        if self.kind == "system":
            return mc._arrival_system_ttf(  # noqa: SLF001
                self.model, config.trials, rng, config
            )
        return mc._arrival_component_ttf(  # noqa: SLF001
            self.model, config.trials, rng, config
        )


# ---------------------------------------------------------------------------
# Fingerprint-keyed plan cache.
# ---------------------------------------------------------------------------

#: Every plan compiled in this process, keyed by :attr:`SamplingPlan.
#: cache_key`. The table is a bounded LRU: insertion order is recency
#: order, and every hit moves its entry to the end.
_PLANS: dict[str, SamplingPlan] = {}
_PLANS_LOCK = threading.Lock()
_PLANS_CAP = 256


def _cached(key: str) -> SamplingPlan | None:
    """The cached plan under ``key`` (now most recently used), if any."""
    with _PLANS_LOCK:
        plan = _PLANS.pop(key, None)
        if plan is not None:
            _PLANS[key] = plan
    return plan


def _remember(plan: SamplingPlan) -> SamplingPlan:
    """Cache ``plan`` as most recently used; an equal cached plan wins."""
    with _PLANS_LOCK:
        kept = _PLANS.pop(plan.cache_key, None)
        if kept is None:
            kept = plan
            while len(_PLANS) >= _PLANS_CAP:
                _PLANS.pop(next(iter(_PLANS)))
        _PLANS[plan.cache_key] = kept
    return kept


def plan_for_system(system: SystemModel) -> SamplingPlan:
    """The (memoized) sampling plan of a series system."""
    plan = _cached(f"system:{system.content_fingerprint}")
    if plan is not None:
        return plan
    return _remember(
        SamplingPlan(
            kind="system",
            fingerprint=system.content_fingerprint,
            intensity=compile_intensity(system.combined_intensity()),
            model=system,
        )
    )


def plan_for_component(component: Component) -> SamplingPlan:
    """The (memoized) sampling plan of a single component instance."""
    plan = _cached(f"component:{component.content_fingerprint}")
    if plan is not None:
        return plan
    return _remember(
        SamplingPlan(
            kind="component",
            fingerprint=component.content_fingerprint,
            intensity=compile_intensity(component.intensity),
            model=component,
        )
    )


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation helper)."""
    with _PLANS_LOCK:
        _PLANS.clear()
