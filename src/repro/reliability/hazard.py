"""Cyclic inhomogeneous-Poisson hazard machinery.

The paper's whole subject can be phrased in one modelling sentence: raw
soft errors arrive as a Poisson process with rate ``lambda``; architectural
masking discards an arrival at time ``t`` with probability ``1 - v(t)``
where ``v`` is the component's cyclic *vulnerability profile*; thinning a
Poisson process yields an inhomogeneous Poisson **failure** process with
intensity ``lambda * v(t)`` and cumulative hazard ``Lambda(t)``.

Everything downstream (exact first-principles MTTF, fast Monte Carlo,
series systems) needs only four operations on the intensity restricted to
one period:

* ``cumulative(tau)`` — ``Lambda(tau)`` for ``tau`` in ``[0, period]``;
* ``invert(u)``       — ``inf{tau : Lambda(tau) >= u}`` for ``u`` in
  ``(0, mass]`` (``mass = Lambda(period)``);
* ``survival_integral(x)`` — ``∫_0^x exp(-Lambda(tau)) d tau``;
* ``time_weighted_survival_integral(x)`` — ``∫_0^x tau·exp(-Lambda(tau)) d tau``
  (for second moments).

Two concrete intensities are provided:

* :class:`PiecewiseHazard` — piecewise-constant intensity (covers unit
  busy/idle masks and fractional register-liveness profiles);
* :class:`NestedHazard` — an outer cycle whose segments each repeat an
  inner cyclic intensity (covers the paper's ``combined`` workload, where
  a 24-hour loop alternates two SPEC benchmarks whose own masking traces
  repeat billions of times inside each half — far too many breakpoints to
  enumerate, but closed-form via geometric series).

All computations are exact (closed form per segment); there is no
discretisation anywhere in this module.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ProfileError

_REL_TOL = 1e-9

#: Elementwise libm transcendentals. The vectorised survival integrals
#: (and SoftArch's event construction and folds) must reproduce the
#: scalar closed forms *bit for bit*; NumPy's SIMD ``exp``/``expm1``
#: loops differ from libm's in the last ulp on a few percent of inputs,
#: and the weighted closed form amplifies that through cancellation.
#: ``frompyfunc`` keeps the exact ``math`` values while everything
#: around them stays array code. Each returns an object array; callers
#: cast with ``.astype(float)``.
_libm_exp = np.frompyfunc(math.exp, 1, 1)
_libm_expm1 = np.frompyfunc(math.expm1, 1, 1)
_libm_log1p = np.frompyfunc(math.log1p, 1, 1)
_libm_pow = np.frompyfunc(math.pow, 2, 1)


class CyclicIntensity(ABC):
    """A non-negative intensity function, cyclic with a finite period."""

    @property
    @abstractmethod
    def period(self) -> float:
        """Length of one cycle (seconds)."""

    @property
    @abstractmethod
    def mass(self) -> float:
        """Cumulative hazard accrued over one full period, ``Lambda(period)``."""

    @abstractmethod
    def cumulative(self, tau):
        """``Lambda(tau)`` for ``tau`` in ``[0, period]`` (vectorised)."""

    @abstractmethod
    def invert(self, u):
        """``inf{tau : Lambda(tau) >= u}`` for ``u`` in ``(0, mass]`` (vectorised)."""

    @abstractmethod
    def survival_integral(self, x: float) -> float:
        """``∫_0^x exp(-Lambda(tau)) d tau`` for ``x`` in ``[0, period]``."""

    @abstractmethod
    def time_weighted_survival_integral(self, x: float) -> float:
        """``∫_0^x tau * exp(-Lambda(tau)) d tau`` for ``x`` in ``[0, period]``."""

    @abstractmethod
    def scaled(self, factor: float) -> "CyclicIntensity":
        """The intensity multiplied pointwise by ``factor`` (>= 0)."""

    # ------------------------------------------------------------------
    # Shared helpers (operate on the infinite cyclic extension).
    # ------------------------------------------------------------------

    def cumulative_extended(self, t):
        """``Lambda(t)`` for any ``t >= 0`` using cyclic extension."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ProfileError("time must be non-negative")
        k = np.floor(t / self.period)
        rem = t - k * self.period
        # Guard against floating point pushing rem to period + eps.
        rem = np.clip(rem, 0.0, self.period)
        return k * self.mass + self.cumulative(rem)

    def invert_extended(self, u):
        """First time the extended cumulative hazard reaches ``u`` (> 0)."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise ProfileError("hazard target must be positive")
        if self.mass <= 0:
            return np.full_like(u, np.inf)
        k = np.floor(u / self.mass)
        rem = u - k * self.mass
        # Floating-point guards: an exact multiple of the mass belongs to
        # the previous period, and cancellation in u - k*mass can push
        # rem marginally outside (0, mass].
        under = rem <= 0.0
        k = np.where(under, k - 1, k)
        rem = np.where(under, rem + self.mass, rem)
        over = rem > self.mass
        k = np.where(over, k + 1, k)
        rem = np.where(over, rem - self.mass, rem)
        rem = np.clip(rem, np.finfo(float).smallest_subnormal, self.mass)
        return k * self.period + self.invert(rem)


def _check_finite_mass(cum: np.ndarray) -> None:
    """Refuse a cumulative table that overflows to ``inf``.

    The tables are non-decreasing sums of finite, non-negative terms,
    so the last entry is finite only if every entry is. With the
    breakpoint and rate checks, this makes every table a hazard holds a
    valid compiled sampling table (:mod:`repro.core.kernel`).
    """
    if not np.isfinite(cum[-1]):
        raise ProfileError("cumulative hazard overflows to inf")


def _validate_breakpoints(breakpoints: np.ndarray) -> None:
    if breakpoints.ndim != 1 or breakpoints.size < 2:
        raise ProfileError("need at least two breakpoints (one segment)")
    if breakpoints[0] != 0.0:
        raise ProfileError("breakpoints must start at 0")
    if not np.all(np.diff(breakpoints) > 0):
        raise ProfileError("breakpoints must be strictly increasing")


class PiecewiseHazard(CyclicIntensity):
    """Piecewise-constant cyclic intensity.

    Parameters
    ----------
    breakpoints:
        Array of shape ``(m+1,)``; ``breakpoints[0] == 0`` and
        ``breakpoints[-1]`` is the period. Strictly increasing.
    rates:
        Array of shape ``(m,)``; ``rates[j] >= 0`` is the intensity on
        ``[breakpoints[j], breakpoints[j+1])``.
    """

    def __init__(self, breakpoints: Sequence[float], rates: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        r = np.asarray(rates, dtype=float)
        _validate_breakpoints(bp)
        if r.shape != (bp.size - 1,):
            raise ProfileError(
                f"rates shape {r.shape} does not match "
                f"{bp.size - 1} segments"
            )
        if np.any(r < 0):
            raise ProfileError("intensities must be non-negative")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(r)):
            raise ProfileError("breakpoints and rates must be finite")
        self._bp = bp
        self._rates = r
        self._cum = np.concatenate(([0.0], np.cumsum(r * np.diff(bp))))
        _check_finite_mass(self._cum)

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_segments(
        cls, segments: Sequence[tuple[float, float]]
    ) -> "PiecewiseHazard":
        """Build from ``(duration, rate)`` pairs."""
        if not segments:
            raise ProfileError("need at least one segment")
        durations = np.asarray([d for d, _ in segments], dtype=float)
        if np.any(durations <= 0):
            raise ProfileError("segment durations must be positive")
        bp = np.concatenate(([0.0], np.cumsum(durations)))
        rates = [r for _, r in segments]
        return cls(bp, rates)

    # -- basic accessors ------------------------------------------------

    @property
    def breakpoints(self) -> np.ndarray:
        return self._bp

    @property
    def rates(self) -> np.ndarray:
        return self._rates

    @property
    def period(self) -> float:
        return float(self._bp[-1])

    @property
    def mass(self) -> float:
        return float(self._cum[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseHazard(period={self.period:g}, mass={self.mass:g}, "
            f"segments={self._rates.size})"
        )

    # -- core operations --------------------------------------------------

    def cumulative(self, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any((tau < 0) | (tau > self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period]")
        tau = np.clip(tau, 0.0, self.period)
        idx = np.clip(
            np.searchsorted(self._bp, tau, side="right") - 1,
            0,
            self._rates.size - 1,
        )
        return self._cum[idx] + self._rates[idx] * (tau - self._bp[idx])

    def invert(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0) | (u > self.mass * (1 + _REL_TOL))):
            raise ProfileError("u outside (0, mass]")
        u = np.minimum(u, self.mass)
        # First segment whose cumulative end reaches u: cum[idx] < u <=
        # cum[idx + 1]. A zero-rate segment has cum[idx + 1] == cum[idx],
        # so no u in (0, mass] selects one; NaN, which searchsorted
        # ranks into the last segment, stays NaN whatever its rate.
        idx = np.clip(
            np.searchsorted(self._cum, u, side="left") - 1,
            0,
            self._rates.size - 1,
        )
        frac = (u - self._cum[idx]) / self._rates[idx]
        # Division rounding can exceed the period by one ulp at u = mass.
        return np.minimum(self._bp[idx] + frac, self.period)

    def survival_integral(self, x: float) -> float:
        return self._survival_integral_impl(x, weighted=False)

    def time_weighted_survival_integral(self, x: float) -> float:
        return self._survival_integral_impl(x, weighted=True)

    def _survival_integral_impl(self, x: float, weighted: bool) -> float:
        """Array closed forms over every contributing segment at once.

        Vectorised version of the per-segment loop over
        :func:`_segment_integral` / :func:`_segment_weighted_integral`
        (kept as the scalar reference): same branch structure (series
        expansion below ``r*dt < 1e-8``), same libm transcendentals
        (see :data:`_libm_exp`), same left-to-right accumulation order
        (``np.cumsum`` folds sequentially, matching the scalar
        ``total +=``) — so the result is bit-identical to the old loop
        while the per-segment interpreter overhead is gone. This is the
        first-principles/hybrid hot path for many-segment profiles
        (SPEC masking traces run to thousands of segments).
        """
        if x < 0 or x > self.period * (1 + _REL_TOL):
            raise ProfileError("x outside [0, period]")
        x = min(float(x), self.period)
        # Segments with t0 < x contribute; searchsorted(left) counts them.
        m = min(
            int(np.searchsorted(self._bp, x, side="left")),
            self._rates.size,
        )
        if m == 0:
            return 0.0
        t0 = self._bp[:m]
        t1 = np.minimum(self._bp[1 : m + 1], x)
        c0 = self._cum[:m]
        r = self._rates[:m]
        dt = t1 - t0
        xs = r * dt
        ex = _libm_exp(-c0).astype(float)
        small = xs < 1e-8
        one_minus = -(_libm_expm1(-xs).astype(float))
        with np.errstate(divide="ignore", invalid="ignore"):
            if weighted:
                # Series branch (xs < 1e-8): t0*dt + dt²/2 - r(t0 dt²/2 + dt³/3).
                linear = t0 * dt + 0.5 * dt * dt
                correction = r * (0.5 * t0 * dt * dt + dt * dt * dt / 3.0)
                series = ex * (linear - correction)
                # Closed form: e^{-c0}[t0(1-e^{-x})/r + (1-(1+x)e^{-x})/r²].
                inner = t0 * one_minus / r + (
                    one_minus - xs * _libm_exp(-xs).astype(float)
                ) / (r * r)
                closed = ex * inner
            else:
                series = ex * dt * (1.0 - 0.5 * xs)
                closed = ex * one_minus / r
        terms = np.where(small, series, closed)
        terms = np.where(dt > 0, terms, 0.0)
        # cumsum (a sequential left fold) preserves the scalar loop's
        # accumulation order; a pairwise sum would shift the rounding.
        return float(np.cumsum(terms)[-1])

    def scaled(self, factor: float) -> "PiecewiseHazard":
        if factor < 0:
            raise ProfileError("scale factor must be non-negative")
        return PiecewiseHazard(self._bp, self._rates * factor)

    def tiled(self, n: int) -> "PiecewiseHazard":
        """The same intensity written out over ``n`` consecutive periods."""
        if n < 1:
            raise ProfileError("tile count must be >= 1")
        bp = [self._bp]
        for i in range(1, n):
            bp.append(self._bp[1:] + i * self.period)
        return PiecewiseHazard(np.concatenate(bp), np.tile(self._rates, n))

    def rate_at(self, tau):
        """Intensity value at local time ``tau`` in ``[0, period)``."""
        tau = np.asarray(tau, dtype=float)
        if np.any((tau < 0) | (tau >= self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period)")
        idx = np.clip(
            np.searchsorted(self._bp, tau, side="right") - 1,
            0,
            self._rates.size - 1,
        )
        return self._rates[idx]


def _segment_integral(t0: float, t1: float, c0: float, r: float) -> float:
    """``∫_{t0}^{t1} exp(-(c0 + r (t - t0))) dt`` in closed form."""
    dt = t1 - t0
    if dt <= 0:
        return 0.0
    x = r * dt
    if x < 1e-8:
        # Series in x: dividing (1 - e^{-x}) by a subnormal r loses
        # precision catastrophically; the expansion is exact to 1e-17.
        return math.exp(-c0) * dt * (1.0 - 0.5 * x)
    # exp(-c0) * (1 - exp(-x)) / r, stable for modest x via expm1.
    return math.exp(-c0) * (-math.expm1(-x)) / r


def _segment_weighted_integral(t0: float, t1: float, c0: float, r: float) -> float:
    """``∫_{t0}^{t1} t * exp(-(c0 + r (t - t0))) dt`` in closed form."""
    dt = t1 - t0
    if dt <= 0:
        return 0.0
    x = r * dt
    if x < 1e-8:
        # First-order series (same subnormal-division concern as above):
        # ∫ (t0+s) e^{-rs} ds = t0 dt + dt²/2 - r (t0 dt²/2 + dt³/3) + O(r²)
        linear = t0 * dt + 0.5 * dt * dt
        correction = r * (0.5 * t0 * dt * dt + dt * dt * dt / 3.0)
        return math.exp(-c0) * (linear - correction)
    # Substitute s = t - t0:
    #   ∫_0^dt (t0 + s) e^{-c0 - r s} ds
    # = e^{-c0} [ t0 (1 - e^{-r dt})/r + (1 - (1 + r dt) e^{-r dt})/r^2 ]
    one_minus = -math.expm1(-x)
    inner = t0 * one_minus / r + (one_minus - x * math.exp(-x)) / (r * r)
    return math.exp(-c0) * inner


def constant_hazard(rate: float, period: float = 1.0) -> PiecewiseHazard:
    """A constant intensity — i.e. an ordinary (homogeneous) Poisson process.

    The period is arbitrary for a constant intensity; it only sets the
    internal cycle bookkeeping.
    """
    if period <= 0:
        raise ConfigurationError(f"period must be positive, got {period}")
    return PiecewiseHazard([0.0, period], [rate])


class NestedHazard(CyclicIntensity):
    """Two-time-scale cyclic intensity.

    The outer cycle consists of segments; within each segment an *inner*
    cyclic intensity repeats for the segment's duration (possibly ending
    mid-repetition). This models the paper's ``combined`` workload: a
    24-hour outer loop whose two halves each run one SPEC benchmark,
    whose masking trace (the inner cycle, ~milliseconds) repeats millions
    of times per half.

    Parameters
    ----------
    segments:
        Sequence of ``(duration, inner)`` pairs. ``inner`` is either a
        :class:`PiecewiseHazard` (repeated cyclically for ``duration``
        seconds) or a plain float (a constant intensity for the segment).
    """

    def __init__(
        self, segments: Sequence[tuple[float, "PiecewiseHazard | float"]]
    ):
        if not segments:
            raise ProfileError("need at least one segment")
        self._durations: list[float] = []
        self._inners: list[PiecewiseHazard] = []
        for duration, inner in segments:
            duration = float(duration)
            if duration <= 0:
                raise ProfileError("segment durations must be positive")
            if isinstance(inner, (int, float)):
                inner = constant_hazard(float(inner), period=duration)
            if not isinstance(inner, PiecewiseHazard):
                raise ProfileError(
                    "inner intensity must be a PiecewiseHazard or a number"
                )
            self._durations.append(duration)
            self._inners.append(inner)
        self._starts = np.concatenate(
            ([0.0], np.cumsum(np.asarray(self._durations)))
        )
        # Rounding can lose a short segment after a long one, and the
        # sum can overflow.
        if not np.isfinite(self._starts[-1]) or not np.all(
            np.diff(self._starts) > 0
        ):
            raise ProfileError(
                "segment starts must be finite and strictly increasing"
            )
        self._seg_mass = np.asarray(
            [
                self._segment_mass(inner, duration)
                for inner, duration in zip(self._inners, self._durations)
            ]
        )
        self._cum_mass = np.concatenate(([0.0], np.cumsum(self._seg_mass)))
        _check_finite_mass(self._cum_mass)

    @staticmethod
    def _segment_mass(inner: PiecewiseHazard, duration: float) -> float:
        k_full, tail = _split_repetitions(duration, inner.period)
        return k_full * inner.mass + float(inner.cumulative(tail))

    @property
    def period(self) -> float:
        return float(self._starts[-1])

    @property
    def mass(self) -> float:
        return float(self._cum_mass[-1])

    @property
    def segment_count(self) -> int:
        return len(self._inners)

    @property
    def segments(self) -> list[tuple[float, PiecewiseHazard]]:
        """``(duration, inner_hazard)`` pairs of the outer cycle."""
        return list(zip(self._durations, self._inners))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NestedHazard(period={self.period:g}, mass={self.mass:g}, "
            f"segments={self.segment_count})"
        )

    def cumulative(self, tau):
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        tau = np.atleast_1d(tau)
        if np.any((tau < 0) | (tau > self.period * (1 + _REL_TOL))):
            raise ProfileError("tau outside [0, period]")
        tau = np.clip(tau, 0.0, self.period)
        seg = np.clip(
            np.searchsorted(self._starts, tau, side="right") - 1,
            0,
            self.segment_count - 1,
        )
        out = np.empty_like(tau)
        for j in np.unique(seg):
            sel = seg == j
            local = tau[sel] - self._starts[j]
            inner = self._inners[j]
            k = np.floor(local / inner.period)
            rem = np.clip(local - k * inner.period, 0.0, inner.period)
            out[sel] = (
                self._cum_mass[j] + k * inner.mass + inner.cumulative(rem)
            )
        return out[0] if scalar else out

    def invert(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any((u <= 0) | (u > self.mass * (1 + _REL_TOL))):
            raise ProfileError("u outside (0, mass]")
        u = np.minimum(u, self.mass)
        seg = np.clip(
            np.searchsorted(self._cum_mass, u, side="left") - 1,
            0,
            self.segment_count - 1,
        )
        out = np.empty_like(u)
        for j in np.unique(seg):
            sel = seg == j
            inner = self._inners[j]
            # As in PiecewiseHazard.invert, only NaN selects a segment
            # that accrues no hazard, and it stays NaN.
            rem = u[sel] - self._cum_mass[j]
            k = np.floor(rem / inner.mass)
            inner_rem = rem - k * inner.mass
            under = inner_rem <= 0.0
            k = np.where(under, k - 1, k)
            inner_rem = np.where(under, inner_rem + inner.mass, inner_rem)
            over = inner_rem > inner.mass
            k = np.where(over, k + 1, k)
            inner_rem = np.where(over, inner_rem - inner.mass, inner_rem)
            inner_rem = np.clip(
                inner_rem, np.finfo(float).smallest_subnormal, inner.mass
            )
            out[sel] = (
                self._starts[j]
                + k * inner.period
                + inner.invert(inner_rem)
            )
        out = np.minimum(out, self.period)
        return out[0] if scalar else out

    def survival_integral(self, x: float) -> float:
        if x < 0 or x > self.period * (1 + _REL_TOL):
            raise ProfileError("x outside [0, period]")
        x = min(float(x), self.period)
        total = 0.0
        for j, inner in enumerate(self._inners):
            start = self._starts[j]
            if start >= x:
                break
            entering = self._cum_mass[j]
            local_end = min(x - start, self._durations[j])
            total += math.exp(-entering) * _repeated_survival_integral(
                inner, local_end
            )
        return total

    def time_weighted_survival_integral(self, x: float) -> float:
        # ∫ tau e^{-Lambda} = ∫ (start + s) e^{-Lambda} over each segment;
        # the s-weighted part needs the inner weighted integral per
        # repetition, handled in _repeated_weighted_integral.
        if x < 0 or x > self.period * (1 + _REL_TOL):
            raise ProfileError("x outside [0, period]")
        x = min(float(x), self.period)
        total = 0.0
        for j, inner in enumerate(self._inners):
            start = self._starts[j]
            if start >= x:
                break
            entering = self._cum_mass[j]
            local_end = min(x - start, self._durations[j])
            plain = _repeated_survival_integral(inner, local_end)
            weighted = _repeated_weighted_integral(inner, local_end)
            total += math.exp(-entering) * (start * plain + weighted)
        return total

    def scaled(self, factor: float) -> "NestedHazard":
        if factor < 0:
            raise ProfileError("scale factor must be non-negative")
        return NestedHazard(
            [
                (d, inner.scaled(factor))
                for d, inner in zip(self._durations, self._inners)
            ]
        )


def _split_repetitions(duration: float, period: float) -> tuple[int, float]:
    """Split ``duration`` into full inner repetitions plus a tail.

    Returns ``(k_full, tail)`` with ``duration = k_full * period + tail``
    and ``0 <= tail < period`` (up to floating point; an exact multiple
    yields a zero tail).
    """
    ratio = duration / period
    k_full = int(math.floor(ratio + _REL_TOL))
    tail = duration - k_full * period
    if tail < 0:
        tail = 0.0
    if tail >= period:
        k_full += 1
        tail = 0.0
    return k_full, tail


def _geometric_sum(q: float, k: int) -> float:
    """``sum_{i=0}^{k-1} q^i`` with a stable branch for ``q`` near 1."""
    if k <= 0:
        return 0.0
    if q == 1.0:
        return float(k)
    log_q = math.log(q) if q > 0 else -math.inf
    if q > 0 and abs(k * log_q) < 1e-12:
        # q^k - 1 ~ k log q; avoid catastrophic cancellation.
        return float(k)
    return (1.0 - q**k) / (1.0 - q)


def _repeated_survival_integral(inner: PiecewiseHazard, x: float) -> float:
    """``∫_0^x exp(-Lambda_inner_cyclic(s)) ds`` for the cyclic extension."""
    if x <= 0:
        return 0.0
    k_full, tail = _split_repetitions(x, inner.period)
    q = math.exp(-inner.mass)
    full = inner.survival_integral(inner.period) * _geometric_sum(q, k_full)
    partial = (q**k_full) * inner.survival_integral(tail) if tail > 0 else 0.0
    return full + partial


def _repeated_weighted_integral(inner: PiecewiseHazard, x: float) -> float:
    """``∫_0^x s * exp(-Lambda_inner_cyclic(s)) ds`` for the cyclic extension.

    Decomposes repetition ``i`` as ``s = i*P + s'``:
    ``∫ = sum_i q^i [ i*P*I(P) + J(P) ]`` plus a partial tail, where
    ``I`` and ``J`` are the inner plain and weighted integrals.
    """
    if x <= 0:
        return 0.0
    k_full, tail = _split_repetitions(x, inner.period)
    q = math.exp(-inner.mass)
    i_full = inner.survival_integral(inner.period)
    j_full = inner.time_weighted_survival_integral(inner.period)
    total = 0.0
    # sum_{i=0}^{k-1} q^i = geometric; sum_{i=0}^{k-1} i q^i needs its own
    # closed form; for moderate k (cluster experiments keep k small) we
    # can afford the exact loop only when k is small, otherwise use the
    # analytic expression.
    g0 = _geometric_sum(q, k_full)
    if q == 1.0:
        g1 = 0.5 * k_full * (k_full - 1)
    else:
        # sum_{i=0}^{k-1} i q^i = q (1 - k q^{k-1} + (k-1) q^k) / (1-q)^2
        qk = q**k_full
        g1 = q * (1.0 - k_full * (qk / q) + (k_full - 1) * qk) / (1.0 - q) ** 2
    total += inner.period * i_full * g1 + j_full * g0
    if tail > 0:
        qk = q**k_full
        total += qk * (
            k_full * inner.period * inner.survival_integral(tail)
            + inner.time_weighted_survival_integral(tail)
        )
    return total


def merge_piecewise(
    hazards: Sequence[PiecewiseHazard],
) -> PiecewiseHazard:
    """Pointwise sum of piecewise hazards sharing one common period.

    This is the series-system composition: independent failure processes
    superpose, so intensities add. All inputs must share the same period
    (tile commensurable profiles first with :meth:`PiecewiseHazard.tiled`).
    """
    if not hazards:
        raise ProfileError("need at least one hazard to merge")
    period = hazards[0].period
    for h in hazards[1:]:
        if not math.isclose(h.period, period, rel_tol=_REL_TOL):
            raise ProfileError(
                f"period mismatch: {h.period} vs {period}; tile first"
            )
    bp = np.unique(np.concatenate([h.breakpoints for h in hazards]))
    bp[-1] = period  # normalise any last-point float jitter
    mids = 0.5 * (bp[:-1] + bp[1:])
    rates = np.zeros_like(mids)
    for h in hazards:
        rates += h.rate_at(np.clip(mids, 0, h.period * (1 - 1e-15)))
    return PiecewiseHazard(bp, rates)
