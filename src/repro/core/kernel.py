"""Compiled sampling kernels: fingerprint-cached intensity plans.

Every inverse-method Monte-Carlo draw runs through a **plan**: any
:class:`~repro.reliability.hazard.CyclicIntensity` compiled into dense
NumPy tables (breakpoints, rates, cumulative-hazard and cumulative-mass
arrays), built once per design point and memoized on the content
fingerprints, so no estimate rebuilds the combined intensity or walks the
hazard objects' per-call ``np.unique(seg)`` scans. The object-graph
sampler is the test oracle (``tests/sampler_oracle.py``), which
:func:`inverse_ttf` must match bit for bit.

Three layers:

* **Compiled intensities** — :class:`CompiledPiecewise` and
  :class:`CompiledNested` replicate the exact floating-point arithmetic
  of their :mod:`~repro.reliability.hazard` counterparts (same segment
  indices, same guard chains, same clips) while dropping
  the per-call Python overhead (object traversal, ``np.unique``,
  re-validation of static tables). Same inputs, same bits. Segment
  lookups use a bucket-guided search (:class:`_Guide`) that returns
  ``np.searchsorted``'s index exactly at a fraction of its cost, and
  the inverse transform runs over cache-sized trial slices. Range
  checks are ``min``/``max`` reductions, which also tell when a guard
  or clamp has nothing to change, so it is skipped.
* **Streams** — the exponentials and random-phase uniforms of each
  ``(seed, trials)`` pair, drawn once per process and shared read-only
  by every plan that draws at that seed (common random numbers).
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
            if self._origin == 0.0:  # every compiled table; x - 0 is x
                b = np.multiply(x, self._scale)
            else:
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
        for step in self._steps[:-1]:
            pos += counts(self._padded.take(pos + (step - 1)), x) * step
        # The last step is 1: no offset to add, no count to scale.
        pos += counts(self._padded.take(pos), x)
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


def _segments(owner, name: str, x: np.ndarray, side: str, count: int):
    """``clip(searchsorted(table, x, side) - 1, 0, count - 1)``.

    ``table`` is ``owner``'s attribute ``name``; the search goes through
    its guide, and the shift and clip run in place on the index array.
    """
    idx = _guided(owner, name).search(x, side)
    idx -= 1
    np.clip(idx, 0, count - 1, out=idx)
    return idx


def _least(x: np.ndarray) -> float:
    """The least non-NaN element of ``x`` (``inf`` if there is none).

    With :func:`_greatest`, one reduction stands in for each of the
    hazard objects' elementwise range checks and tells when a clamp has
    nothing to do: ``np.any(x <= 0)`` is ``_least(x) <= 0`` and
    ``np.any(x > b)`` is ``_greatest(x) > b``, NaN included (NaN fails
    every comparison, and these reductions skip it). NaN also passes
    every clamp and guard unchanged, so skipping them never moves a NaN.
    """
    return np.fmin.reduce(x, axis=None, initial=np.inf)


def _greatest(x: np.ndarray) -> float:
    """The greatest non-NaN element of ``x`` (``-inf`` if there is none)."""
    return np.fmax.reduce(x, axis=None, initial=-np.inf)


def _clamped(x: np.ndarray, low: float, high: float) -> np.ndarray:
    """``np.clip(x, low, high)``, or ``x`` itself when no element would
    change: every one is above ``low`` and at most ``high``. A zero at
    ``low`` still goes through the clip, whatever its sign."""
    lo, hi = _least(x), _greatest(x)
    if lo > low and hi <= high:
        return x
    return np.clip(x, low, high)


def _periods(x: np.ndarray, length: float):
    """``k = floor(x / length)`` and ``x - k * length``, as new arrays."""
    k = np.divide(x, length)
    np.floor(k, out=k)
    rem = np.multiply(k, length)
    np.subtract(x, rem, out=rem)
    return k, rem


def _wrap(k: np.ndarray, rem: np.ndarray, mass: float) -> None:
    """Move ``rem`` into ``(0, mass]``, carrying whole periods into ``k``.

    The hazard objects' guard chain (``invert_extended`` and the nested
    ``invert``) as masked in-place updates: an exact multiple of the
    mass belongs to the previous period, and cancellation in
    ``u - k * mass`` can push ``rem`` just outside ``(0, mass]``. When
    every element already lies inside, each step is a no-op, so the
    chain runs only when a reduction finds one outside.
    """
    lo, hi = _least(rem), _greatest(rem)
    if lo > 0 and hi <= mass:
        return
    under = rem <= 0.0
    np.subtract(k, 1, out=k, where=under)
    np.add(rem, mass, out=rem, where=under)
    over = rem > mass
    np.add(k, 1, out=k, where=over)
    np.subtract(rem, mass, out=rem, where=over)
    np.clip(rem, _SMALLEST_SUBNORMAL, mass, out=rem)


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
        lo, hi = _least(tau), _greatest(tau)
        if lo < 0 or hi > self.period * (1 + _REL_TOL):
            raise ProfileError("tau outside [0, period]")
        tau = _clamped(tau, 0.0, self.period)
        idx = _segments(self, "bp", tau, "right", self.rates.size)
        out = self.bp[idx]
        np.subtract(tau, out, out=out)
        out *= self.rates[idx]
        out += self.cum[idx]
        return out

    def invert(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        lo, hi = _least(u), _greatest(u)
        if lo <= 0 or hi > self.mass * (1 + _REL_TOL):
            raise ProfileError("u outside (0, mass]")
        if hi > self.mass:
            u = np.minimum(u, self.mass)
        idx = _segments(self, "cum", u, "left", self.rates.size)
        rate = self.rates[idx]
        frac = self.cum[idx]
        np.subtract(u, frac, out=frac)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac /= rate
        if not _least(rate) > 0:
            frac = np.where(rate > 0, frac, 0.0)
        out = self.bp[idx]
        out += frac
        if not _greatest(out) <= self.period:
            np.minimum(out, self.period, out=out)
        return out


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
        lo, hi = _least(tau), _greatest(tau)
        if lo < 0 or hi > self.period * (1 + _REL_TOL):
            raise ProfileError("tau outside [0, period]")
        tau = _clamped(tau, 0.0, self.period)
        seg = _segments(self, "starts", tau, "right", self.segment_count)
        counts = np.bincount(seg, minlength=self.segment_count)
        out = np.empty_like(tau)
        for j in range(self.segment_count):
            if counts[j] == 0:
                continue
            sel = seg == j
            local = tau[sel]
            local -= self.starts[j]
            inner = self.inners[j]
            k, rem = _periods(local, inner.period)
            rem = _clamped(rem, 0.0, inner.period)
            k *= inner.mass
            k += self.cum_mass[j]
            k += inner.cumulative(rem)
            out[sel] = k
        return out[0] if scalar else out

    def invert(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        lo, hi = _least(u), _greatest(u)
        if lo <= 0 or hi > self.mass * (1 + _REL_TOL):
            raise ProfileError("u outside (0, mass]")
        if hi > self.mass:
            u = np.minimum(u, self.mass)
        seg = _segments(self, "cum_mass", u, "left", self.segment_count)
        counts = np.bincount(seg, minlength=self.segment_count)
        out = np.empty_like(u)
        for j in range(self.segment_count):
            if counts[j] == 0:
                continue
            sel = seg == j
            inner = self.inners[j]
            if inner.mass <= 0:
                out[sel] = self.starts[j]
                continue
            rem = u[sel]
            rem -= self.cum_mass[j]
            k, inner_rem = _periods(rem, inner.mass)
            _wrap(k, inner_rem, inner.mass)
            k *= inner.period
            k += self.starts[j]
            k += inner.invert(inner_rem)
            out[sel] = k
        if not _greatest(out) <= self.period:
            np.minimum(out, self.period, out=out)
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
    if _least(t) < 0:
        raise ProfileError("time must be non-negative")
    k, rem = _periods(t, intensity.period)
    rem = _clamped(rem, 0.0, intensity.period)
    k *= intensity.mass
    k += intensity.cumulative(rem)
    return k


def _invert_extended(
    intensity: CompiledIntensity,
    u: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``CyclicIntensity.invert_extended``, written into ``out`` if given."""
    u = np.asarray(u, dtype=float)
    if _least(u) <= 0:
        raise ProfileError("hazard target must be positive")
    if out is None:
        out = np.empty_like(u)
    if intensity.mass <= 0:
        out.fill(np.inf)
        return out
    k, rem = _periods(u, intensity.mass)
    _wrap(k, rem, intensity.mass)
    k *= intensity.period
    return np.add(k, intensity.invert(rem), out=out)


def inverse_ttf(
    intensity: CompiledIntensity, config: "MonteCarloConfig"
) -> np.ndarray:
    """Inverse-hazard TTF samples against a compiled intensity.

    With a random start offset ``u``, ``X = Λ⁻¹(E + Λ(u)) - u`` for
    ``E ~ Exp(1)``. ``e`` and the offsets come from the
    ``(config.seed, config.trials)`` stream (:func:`_stream`), drawn
    once per process in the oracle's order; the transform then runs
    over :data:`SLICE_TRIALS`-sized slices into one output, so
    temporaries stay in cache. Every element sees the oracle's
    operations, so the bits match, and each slice runs the same checks.
    """
    if intensity.mass <= 0:
        return np.full(config.trials, np.inf)
    stream = _stream(config.seed, config.trials)
    e = stream.exponentials
    phases = None if config.start_phase == "zero" else stream.uniforms()
    out = np.empty_like(e)
    for start in range(0, e.size, SLICE_TRIALS):
        part = slice(start, start + SLICE_TRIALS)
        if phases is None:
            _invert_extended(intensity, e[part], out=out[part])
            continue
        # ``rng.uniform(0.0, period)`` is ``0.0 + period * u``: the same
        # bits as ``u * period``.
        shift = phases[part] * intensity.period
        target = _cumulative_extended(intensity, shift)
        np.add(e[part], target, out=target)
        _invert_extended(intensity, target, out=out[part])
        out[part] -= shift
    return out


# ---------------------------------------------------------------------------
# Common-random-number streams.
# ---------------------------------------------------------------------------


class _LRU:
    """A bounded, thread-safe least-recently-used table.

    Insertion order is recency order: every hit moves its entry to the
    end, and a full table evicts from the front.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._entries: dict = {}
        self._lock = threading.Lock()

    def get(self, key):
        """The entry under ``key`` (now most recently used), if any."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self._entries[key] = value
        return value

    def put(self, key, value):
        """Keep ``value`` as most recently used; an entry already under
        ``key`` wins (two threads that raced to build it built equals)."""
        with self._lock:
            kept = self._entries.pop(key, None)
            if kept is None:
                kept = value
                while len(self._entries) >= self.cap:
                    self._entries.pop(next(iter(self._entries)))
            self._entries[key] = kept
        return kept

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        with self._lock:
            return iter(list(self._entries))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Stream:
    """The draws of one ``(seed, trials)`` inverse-sampler stream.

    ``exponentials`` are the generator's first ``trials`` draws of
    ``Exp(1)``; :meth:`uniforms` are the next ``trials`` draws of
    ``U[0, 1)``, drawn the first time a random-phase plan asks. These
    are common random numbers: every plan at this seed and trial count
    reads the same arrays, so both are read-only.
    """

    __slots__ = ("exponentials", "_rng", "_uniforms", "_lock")

    def __init__(self, seed: int, trials: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.exponentials = _read_only(self._rng.exponential(size=trials))
        self._uniforms: np.ndarray | None = None
        self._lock = threading.Lock()

    def uniforms(self) -> np.ndarray:
        with self._lock:
            if self._uniforms is None:
                self._uniforms = _read_only(
                    self._rng.random(self.exponentials.size)
                )
                self._rng = None
            return self._uniforms


#: Streams drawn in this process, keyed by ``(seed, trials)``. Two fit
#: a paper run's working set (seed 0's exponentials and seed 1's
#: exponentials and uniforms, 24 MB at 1e6 trials) without raising its
#: peak RSS.
_STREAMS = _LRU(2)


def _stream(seed: int, trials: int) -> _Stream:
    """The ``(seed, trials)`` stream, drawn on first use."""
    stream = _STREAMS.get((seed, trials))
    if stream is None:
        stream = _STREAMS.put((seed, trials), _Stream(seed, trials))
    return stream


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
        inverse draw here. The inverse path is :func:`inverse_ttf` on
        the compiled tables and the seed's shared stream; the arrival
        path is the paper-literal sampler run on the source model, with
        a generator built from ``config.seed``.
        """
        from . import montecarlo as mc

        if config.method == "inverse":
            return inverse_ttf(self.intensity, config)
        rng = np.random.default_rng(config.seed)
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
#: cache_key`.
_PLANS_CAP = 256
_PLANS = _LRU(_PLANS_CAP)


def plan_for_system(system: SystemModel) -> SamplingPlan:
    """The (memoized) sampling plan of a series system."""
    key = f"system:{system.content_fingerprint}"
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    return _PLANS.put(
        key,
        SamplingPlan(
            kind="system",
            fingerprint=system.content_fingerprint,
            intensity=compile_intensity(system.combined_intensity()),
            model=system,
        )
    )


def plan_for_component(component: Component) -> SamplingPlan:
    """The (memoized) sampling plan of a single component instance."""
    key = f"component:{component.content_fingerprint}"
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    return _PLANS.put(
        key,
        SamplingPlan(
            kind="component",
            fingerprint=component.content_fingerprint,
            intensity=compile_intensity(component.intensity),
            model=component,
        )
    )


def clear_plan_cache() -> None:
    """Drop every cached plan and stream (test isolation helper)."""
    _PLANS.clear()
    _STREAMS.clear()
