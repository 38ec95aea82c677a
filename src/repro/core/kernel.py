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
  :class:`CompiledNested`, each compiled from its
  :mod:`~repro.reliability.hazard` counterpart (whose constructor
  refused every table they cannot take), replicate its exact
  floating-point arithmetic (same segment indices, same guard chains,
  same clips) while dropping the per-call Python overhead (object
  traversal, ``np.unique``, per-call range checks). Same inputs, same
  bits. Segment
  lookups rank a query among a table's distinct entries in one probe
  (:class:`_Lookup`) and return ``np.searchsorted``'s segment exactly
  at a fraction of its cost; nested plans rank all their inner tables
  through one lookup, with no per-segment masks. A piecewise plan that
  accrues hazard in one segment (a busy/idle loop) needs no lookup at
  all: both transforms have closed forms with the tables' bits. The
  inverse transform runs over cache-sized trial slices. Range checks
  are ``min``/``max`` reductions, which also tell when a guard or clamp
  has nothing to change, so it is skipped.
* **Streams** — the exponentials and random-phase uniforms of each
  ``(seed, trials)`` pair, drawn once per process and shared read-only
  by every plan that draws at that seed (common random numbers).
* **Plans** — a system's compiled combined intensity, kept under its
  content fingerprint in a bounded process-wide LRU. A component
  instance draws as its one-instance system
  (:meth:`~repro.core.system.Component.alone`), so there is one kind of
  plan and one inverse entry point, :func:`inverse_system_ttf`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError, ProfileError
from ..reliability.hazard import CyclicIntensity, NestedHazard, PiecewiseHazard
from .system import SystemModel

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


#: Buckets per distinct table entry that a :class:`_Lookup` may spend.
_MAX_BUCKETS_PER_ENTRY = 4


def _bucket_scale(distinct: np.ndarray) -> float:
    """Buckets per unit of a table whose distinct entries are ``distinct``.

    ``k * m / span`` for ``m`` entries and ``k`` buckets per entry.
    With ``need = span / (m * smallest gap)``, a bucket holds at most
    ``floor(need / k) + 1`` entries, so a query takes at most that
    count's bit length in probes. ``k`` is the fewest buckets per entry,
    1 to :data:`_MAX_BUCKETS_PER_ENTRY`, that reach the fewest probes:
    one wherever ``k > need`` gives every entry a bucket of its own.
    0 (one bucket) for a single entry, or when the scale is not finite
    (a subnormal span).
    """
    m = distinct.size
    if m == 1:
        return 0.0
    span = float(distinct[-1])
    need = span / (m * float(np.diff(distinct).min()))

    def probes(k: int) -> int:
        return (int(need // k) + 1).bit_length() if need < 2**52 else 64

    k = min(range(1, _MAX_BUCKETS_PER_ENTRY + 1), key=lambda k: (probes(k), k))
    scale = k * m / span
    return scale if scale < np.inf else 0.0


class _Lookup:
    """Exact segment lookup over one or more sorted tables.

    Each table ``t`` holds ``n >= 2`` finite, non-decreasing entries and
    starts at 0, as every compiled table does. For a query ``x`` in
    ``[0, t[-1]]``, or NaN, :meth:`segments` returns the segment the
    hazard objects select, ``clip(np.searchsorted(t, x, side) - 1, 0,
    n - 2)``, in about seven NumPy passes instead of a binary search
    whose branches mispredict on random queries.

    **Ranks.** Let ``d`` hold the ``m`` distinct entries of ``t``.
    ``searchsorted(t, x, side)`` depends on ``x`` only through its rank
    ``r = searchsorted(d, x, side)``: it is the number of entries in the
    first ``r`` runs of equal entries. A table built once maps each rank
    to its segment with searchsorted's ``- 1`` and the clip applied, so
    the runs that zero-rate segments leave in a cumulative table cost
    nothing per query.

    **Why the rank is exact.** ``bucket(x) = int(x * scale)``. Both
    steps are monotone non-decreasing for ``x >= 0``, and the distinct
    entries are bucketed by the same two operations, so an entry in a
    lower bucket than ``x`` is ``< x`` and one in a higher bucket is
    ``> x``. The rank is the number of entries in lower buckets
    (``starts[bucket]``) plus the count of same-bucket entries ``< x``
    (``<= x`` for ``side="right"``). :func:`_bucket_scale` sizes the
    grid so that each bucket holds at most one entry where 1-4 buckets
    per entry allow it; then the count is one compare against
    ``d[starts[bucket]]``, which is the bucket's entry or the first
    entry of a higher bucket (and never counts). Where they do not
    (clustered entries), a branchless power-of-two window of
    ``bit_length(max occupancy)`` probes counts the bucket, and ``+inf``
    padding after each table's entries keeps probes from counting past
    them. The build measures the occupancy, so the count is exact
    whatever the grid.

    **Several tables.** The inner tables of a nested plan share one
    lookup: each has its own scale and its own run of buckets, and a
    per-query table index ``which`` picks them. Segments come back as
    indices into the tables laid end to end.

    **NaN.** ``searchsorted`` ranks NaN after every entry. A NaN query
    makes the bucket cast invalid, which NumPy reports; only then are
    the NaN elements found and given the last segment, so NaN-free
    queries pay nothing for them.
    """

    __slots__ = ("_scale", "_base", "_starts", "_probes", "_segment",
                 "_steps", "_last")

    def __init__(self, tables: Sequence[np.ndarray]) -> None:
        # Where each run of equal entries after the first one starts.
        firsts = [np.flatnonzero(t[1:] != t[:-1]) + 1 for t in tables]
        distinct = [
            np.concatenate((t[:1], t[first]))
            for t, first in zip(tables, firsts)
        ]
        self._scale = np.asarray([_bucket_scale(d) for d in distinct])
        buckets = [
            (d * s).astype(np.intp) for d, s in zip(distinct, self._scale)
        ]
        sizes = [int(b[-1]) + 1 for b in buckets]
        self._base = np.cumsum(sizes) - sizes
        # Entries per bucket, one bucket up, so that the prefix sum
        # counts the entries in lower buckets.
        below = np.bincount(
            np.concatenate(
                [b + (base + 1) for b, base in zip(buckets, self._base)]
            )
        )
        depth = int(below.max()).bit_length()
        self._steps = tuple(1 << s for s in reversed(range(depth)))
        pad = max(1, (1 << depth) - 1)
        self._starts = np.cumsum(below[:-1])
        for j, (base, size) in enumerate(zip(self._base[1:], sizes[1:]), 1):
            self._starts[base : base + size] += j * pad  # earlier padding
        padded, segment, last = [], [], []
        offset = 0  # of this table's entries in the tables end to end
        for t, first, d in zip(tables, firsts, distinct):
            padded += [d, np.full(pad, np.inf)]
            final = offset + t.size - 2  # ranks at or past every entry
            seg = np.full(d.size + pad, final, dtype=np.intp)
            seg[0] = offset
            seg[1 : d.size] = first + (offset - 1)
            segment.append(seg)
            last.append(final)
            offset += t.size
        self._probes = np.concatenate(padded)
        self._segment = np.concatenate(segment)
        self._last = np.asarray(last, dtype=np.intp)

    def segments(
        self, x: np.ndarray, side: str, which: np.ndarray | None = None
    ) -> np.ndarray:
        """``clip(searchsorted(t, x, side) - 1, 0, n - 2)``, exactly.

        ``t`` is the table ``which`` names per query (the first table
        when ``which`` is None); the result indexes the tables laid end
        to end.
        """
        shape = np.shape(x)
        x = np.ravel(x)
        try:
            with np.errstate(invalid="raise"):
                bucket = self._bucket(x, which)
        except FloatingPointError:  # a NaN query, cast to an integer
            nan = np.isnan(x)
            x = np.where(nan, 0.0, x)
            seg = self._ranked(x, self._bucket(x, which), side)
            seg[nan] = self._last[0 if which is None else which[nan]]
            return seg.reshape(shape)
        return self._ranked(x, bucket, side).reshape(shape)

    def _bucket(self, x: np.ndarray, which: np.ndarray | None) -> np.ndarray:
        if which is None:
            return np.multiply(x, self._scale[0]).astype(np.intp)
        bucket = self._scale.take(which)
        bucket *= x
        bucket = bucket.astype(np.intp)
        bucket += self._base.take(which)
        return bucket

    def _ranked(self, x: np.ndarray, bucket: np.ndarray, side: str):
        counts = np.less if side == "left" else np.less_equal
        rank = self._starts.take(bucket)
        for step in self._steps[:-1]:
            rank += counts(self._probes.take(rank + (step - 1)), x) * step
        # The last step is 1: no offset to add, no count to scale.
        rank += counts(self._probes.take(rank), x)
        return self._segment.take(rank)


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


def _periods(x: np.ndarray, length):
    """``k = floor(x / length)`` and ``x - k * length``, as new arrays.

    ``length`` is one float or one per element."""
    k = np.divide(x, length)
    np.floor(k, out=k)
    rem = np.multiply(k, length)
    np.subtract(x, rem, out=rem)
    return k, rem


def _wrap(k: np.ndarray, rem: np.ndarray, mass) -> None:
    """Move ``rem`` into ``(0, mass]``, carrying whole periods into ``k``.

    The hazard objects' guard chain (``invert_extended`` and the nested
    ``invert``) as masked in-place updates: an exact multiple of the
    mass belongs to the previous period, and cancellation in
    ``u - k * mass`` can push ``rem`` just outside ``(0, mass]``. When
    every element already lies inside, each step is a no-op, so the
    chain runs only when a reduction finds one outside. ``mass`` is one
    float, or one per element (a nested plan's inner masses).
    """
    if _least(rem) > 0 and (
        not np.any(rem > mass) if isinstance(mass, np.ndarray)
        else _greatest(rem) <= mass
    ):
        return
    under = rem <= 0.0
    np.subtract(k, 1, out=k, where=under)
    np.add(rem, mass, out=rem, where=under)
    over = rem > mass
    np.add(k, 1, out=k, where=over)
    np.subtract(rem, mass, out=rem, where=over)
    np.clip(rem, _SMALLEST_SUBNORMAL, mass, out=rem)


class _Compiled:
    """What both compiled shapes share: segment lookups, built on first
    use. Racing threads keep the first one stored."""

    __slots__ = ()

    def _lookup(self, name: str) -> _Lookup:
        lookup = self._lookups.get(name)
        if lookup is None:
            lookup = self._lookups.setdefault(
                name, _Lookup(self._tables(name))
            )
        return lookup


class CompiledPiecewise(_Compiled):
    """Dense-table replica of :class:`PiecewiseHazard`.

    Holds exactly the arrays the hazard object derives at construction —
    breakpoints, per-segment rates, and the cumulative-hazard table —
    and evaluates ``cumulative``/``invert`` with the *identical*
    floating-point operation sequence, so every sample drawn through a
    plan matches the object sampler over the hazard (the test oracle)
    bit for bit. Segment lookups go through a :class:`_Lookup`, which
    returns ``np.searchsorted``'s segment exactly.

    **One live segment.** When exactly one segment ``j`` has a nonzero
    rate ``r`` (every busy/idle loop: day, week, or one that starts
    idle), the hazard's ``cumsum`` adds one product to zeros, so ``cum``
    is 0 up to ``bp[j]`` and ``M = fl(r * fl(bp[j+1] - bp[j]))`` from
    ``bp[j+1]`` on. Both transforms then have closed forms with no
    lookup and no gather: ``Λ(τ) = clip(r * (τ - bp[j]), 0, M)`` and
    ``Λ⁻¹(u) = bp[j] + u / r``. They return the table path's bits.
    ``cum[j]`` is 0, so inside segment ``j`` the table path computes the
    same product plus 0.0; outside it, it computes ``0 + 0 * (…)`` or
    ``M + 0 * (…)``; and rounding is monotone, so the product is at most
    ``M`` inside the segment, at least ``M`` past it and negative before
    it. The one sign the table path sets that a clip keeps is zero's:
    ``-0.0 + 0.0`` is ``+0.0``, so the closed form adds 0.0 wherever it
    clips at 0.
    """

    __slots__ = ("bp", "rates", "cum", "period", "mass", "_lookups", "_live")

    def __init__(self, hazard: PiecewiseHazard) -> None:
        # The hazard's constructor refused every table the samplers and
        # the lookups cannot take, so its arrays are read as they are.
        self.bp = hazard.breakpoints
        self.rates = hazard.rates
        self.cum = hazard._cum  # noqa: SLF001 - module-internal compilation
        self.period = hazard.period
        self.mass = hazard.mass
        self._lookups: dict[str, _Lookup] = {}
        # ``(bp[j], rate)`` of the one live segment, or None.
        self._live: tuple[float, float] | None = None
        live = np.flatnonzero(self.rates)
        if live.size == 1:
            self._live = (
                float(self.bp[live[0]]), float(self.rates[live[0]])
            )

    def _tables(self, name: str) -> list[np.ndarray]:
        return [getattr(self, name)]

    def _cumulative(self, tau: np.ndarray) -> np.ndarray:
        if self._live is not None:
            start, rate = self._live
            if start:
                out = np.subtract(tau, start)
                out *= rate
            else:  # ``x - 0.0`` is ``x`` for every x, -0.0 included
                out = np.multiply(tau, rate)
            if not _least(out) > 0:
                np.clip(out, 0.0, self.mass, out=out)
                out += 0.0  # -0.0 to +0.0, as the table path's + cum[j]
            elif _greatest(out) > self.mass:
                np.minimum(out, self.mass, out=out)
            return out
        idx = self._lookup("bp").segments(tau, "right")
        out = self.bp[idx]
        np.subtract(tau, out, out=out)
        out *= self.rates[idx]
        out += self.cum[idx]
        return out

    def _invert(self, u: np.ndarray) -> np.ndarray:
        if self._live is not None:
            start, rate = self._live
            out = np.divide(u, rate)
            if start:  # else ``0.0 + u / r`` is ``u / r``: u > 0 or NaN
                out += start
        else:
            idx = self._lookup("cum").segments(u, "left")
            frac = self.cum[idx]
            np.subtract(u, frac, out=frac)
            frac /= self.rates[idx]
            out = self.bp[idx]
            out += frac
        if not _greatest(out) <= self.period:
            np.minimum(out, self.period, out=out)
        return out


class CompiledNested(_Compiled):
    """Dense-table replica of :class:`NestedHazard`.

    Outer tables (segment starts and cumulative mass) plus the inner
    piecewise tables of every outer segment laid end to end, with one
    inner period and mass per segment. Both transforms run flat: each
    element gathers its outer segment's constants and ranks its inner
    query through one lookup over all inner tables, so no pass masks the
    input per segment. Every element still sees the hazard object's
    operations in its order, so the outputs are bit-identical.
    """

    __slots__ = (
        "starts", "cum_mass", "period", "mass",
        "_bp", "_rates", "_cum", "_ends", "_inner_period", "_inner_mass",
        "_lookups",
    )

    def __init__(self, hazard: NestedHazard) -> None:
        self.starts = hazard._starts  # noqa: SLF001 - module-internal
        self.cum_mass = hazard._cum_mass  # noqa: SLF001
        self.period = hazard.period
        self.mass = hazard.mass
        inners = [inner for _duration, inner in hazard.segments]
        # One offset per inner for all three tables: each inner's rates
        # get one unused entry, so rates line up with the breakpoints.
        self._bp = np.concatenate([inner.breakpoints for inner in inners])
        self._cum = np.concatenate(
            [inner._cum for inner in inners]  # noqa: SLF001
        )
        self._rates = np.concatenate(
            [np.append(inner.rates, 0.0) for inner in inners]
        )
        self._ends = np.cumsum(
            [inner.breakpoints.size for inner in inners]
        )[:-1]
        self._inner_period = np.asarray([inner.period for inner in inners])
        self._inner_mass = np.asarray([inner.mass for inner in inners])
        self._lookups: dict[str, _Lookup] = {}

    def _tables(self, name: str) -> list[np.ndarray]:
        if name in ("starts", "cum_mass"):
            return [getattr(self, name)]
        return np.split(getattr(self, name), self._ends)  # inner tables

    def _cumulative(self, tau: np.ndarray) -> np.ndarray:
        seg = self._lookup("starts").segments(tau, "right")
        period = self._inner_period.take(seg)
        local = self.starts.take(seg)
        np.subtract(tau, local, out=local)
        k, rem = _periods(local, period)
        # Per-element bounds turn a -0.0 into 0.0 where the hazard's
        # scalar bound keeps it, but rem is never -0.0: a local -0.0
        # makes k * period -0.0 as well, and their difference +0.0.
        np.clip(rem, 0.0, period, out=rem)
        k *= self._inner_mass.take(seg)
        k += self.cum_mass.take(seg)
        idx = self._lookup("_bp").segments(rem, "right", seg)
        inner = self._bp.take(idx)
        np.subtract(rem, inner, out=inner)
        inner *= self._rates.take(idx)
        inner += self._cum.take(idx)
        k += inner
        return k

    def _invert(self, u: np.ndarray) -> np.ndarray:
        seg = self._lookup("cum_mass").segments(u, "left")
        mass = self._inner_mass.take(seg)
        period = self._inner_period.take(seg)
        rem = self.cum_mass.take(seg)
        np.subtract(u, rem, out=rem)
        k, rem = _periods(rem, mass)
        _wrap(k, rem, mass)
        k *= period
        k += self.starts.take(seg)
        idx = self._lookup("_cum").segments(rem, "left", seg)
        frac = self._cum.take(idx)
        np.subtract(rem, frac, out=frac)
        frac /= self._rates.take(idx)
        inner = self._bp.take(idx)
        inner += frac
        np.minimum(inner, period, out=inner)
        k += inner
        if not _greatest(k) <= self.period:
            np.minimum(k, self.period, out=k)
        return k


#: A compiled intensity of either shape.
CompiledIntensity = CompiledPiecewise | CompiledNested


def compile_intensity(intensity: CyclicIntensity) -> CompiledIntensity:
    """Flatten a cyclic intensity into its dense-table plan form."""
    if isinstance(intensity, PiecewiseHazard):
        return CompiledPiecewise(intensity)
    if isinstance(intensity, NestedHazard):
        return CompiledNested(intensity)
    raise ConfigurationError(
        f"cannot compile intensity of type {type(intensity).__name__}"
    )


# ---------------------------------------------------------------------------
# Extended (cyclic) evaluation — replicas of CyclicIntensity's helpers.
# ---------------------------------------------------------------------------


def _cumulative_extended(
    intensity: CompiledIntensity, t: np.ndarray
) -> np.ndarray:
    """``CyclicIntensity.cumulative_extended``."""
    t = np.asarray(t, dtype=float)
    if _least(t) < 0:
        raise ProfileError("time must be non-negative")
    if _greatest(t) < intensity.period:
        # Every whole-period count is 0: ``t / period`` rounds below 1
        # when ``t < period``, so the split would add ``0 * mass`` to
        # ``Λ(t)``. (A ``-0.0`` would become ``+0.0`` first; ``Λ`` maps
        # both zeros to ``+0.0``.) Random-phase offsets always land here.
        return intensity._cumulative(t)  # noqa: SLF001 - t is in range
    k, rem = _periods(t, intensity.period)
    rem = _clamped(rem, 0.0, intensity.period)
    k *= intensity.mass
    k += intensity._cumulative(rem)  # noqa: SLF001 - rem is in range
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
    # _wrap put rem in (0, mass], so the in-range inverse skips the
    # range check and the clamp.
    return np.add(k, intensity._invert(rem), out=out)  # noqa: SLF001


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
# Fingerprint-keyed plan cache.
# ---------------------------------------------------------------------------

#: Every plan compiled in this process, keyed by the system's content
#: fingerprint. ``--all`` reuses a plan after at most 29 other distinct
#: plans (34 hits, 164 misses at 1e5 trials and ``--workers 1``), so 64
#: keeps every hit while keeping at most a quarter as many plans' tables
#: and lookups alive as 256 did.
_PLANS_CAP = 64
_PLANS = _LRU(_PLANS_CAP)


def plan_for_system(system: SystemModel) -> CompiledIntensity:
    """The (memoized) compiled combined intensity of a series system.

    A component instance's plan is :meth:`~repro.core.system.Component.
    alone`'s, so one plan serves the instance and the one-component
    point of the same component.
    """
    key = system.content_fingerprint
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS.put(key, compile_intensity(system.combined_intensity()))
    return plan


def inverse_system_ttf(
    system: SystemModel, config: "MonteCarloConfig"
) -> np.ndarray:
    """``config.trials`` inverse-transform times to failure of ``system``.

    Every inverse draw comes here (``sample_system_ttf``, and through it
    every component instance as its one-instance system): the system's
    plan, drawn by :func:`inverse_ttf` on the seed's shared stream. The
    sampler oracle (``tests/sampler_oracle.py``) replaces this one
    function to check every draw against the hazard objects.
    """
    return inverse_ttf(plan_for_system(system), config)


def clear_plan_cache() -> None:
    """Drop every cached plan and stream, so the next draw starts cold."""
    _PLANS.clear()
    _STREAMS.clear()
