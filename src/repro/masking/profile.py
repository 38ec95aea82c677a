"""Cyclic vulnerability profiles.

Profiles are dimensionless (values in ``[0, 1]``); converting one into a
failure intensity requires a raw error rate (errors/second), at which
point the :mod:`repro.reliability.hazard` machinery takes over.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import ProfileError
from ..reliability.hazard import CyclicIntensity, NestedHazard, PiecewiseHazard


class VulnerabilityProfile(ABC):
    """A cyclic vulnerability function ``v(t) ∈ [0, 1]`` with period L."""

    @property
    @abstractmethod
    def period(self) -> float:
        """Length of one workload iteration, seconds (the paper's L)."""

    @property
    @abstractmethod
    def vulnerable_time(self) -> float:
        """``V(L) = ∫_0^L v(t) dt`` — ACE-weighted time per iteration."""

    @abstractmethod
    def to_hazard(self, rate_per_second: float) -> CyclicIntensity:
        """Failure intensity ``rate * v(t)`` as a cyclic hazard."""

    @abstractmethod
    def value_at(self, tau):
        """Vulnerability at local time ``tau ∈ [0, period)`` (vectorised)."""

    @property
    @abstractmethod
    def fingerprint(self) -> str:
        """Stable content digest of the profile.

        Two profiles with identical shape (same breakpoints and values,
        bit-for-bit) share a fingerprint regardless of object identity;
        any change to the content changes it. This is the cache-key
        identity the estimation caches use (:mod:`repro.methods.cache`),
        replacing fragile ``id()`` keys and surviving process boundaries
        and reruns.
        """

    @abstractmethod
    def to_dict(self) -> dict:
        """Lossless plain-dict wire form (see :func:`profile_from_dict`).

        The round trip preserves the profile bit-for-bit — in
        particular ``profile_from_dict(p.to_dict()).fingerprint ==
        p.fingerprint`` — because Python's JSON float serialization is
        shortest-round-trip for float64. This is what lets the analysis
        service's content-addressed request dedup work across the HTTP
        boundary.
        """

    @property
    def avf(self) -> float:
        """The architecture vulnerability factor: time-average of ``v``.

        This is exactly the AVF-step definition (Section 2.2): the
        fraction of time the component holds/processes ACE state.
        """
        return self.vulnerable_time / self.period


class PiecewiseProfile(VulnerabilityProfile):
    """Piecewise-constant vulnerability over one period.

    Parameters
    ----------
    breakpoints:
        Shape ``(m+1,)``; starts at 0, strictly increasing, last entry is
        the period.
    values:
        Shape ``(m,)``; each in ``[0, 1]``.
    """

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if np.any((vals < 0) | (vals > 1)):
            raise ProfileError("vulnerability values must lie in [0, 1]")
        # Reuse PiecewiseHazard's validation by constructing the unit-rate
        # hazard; it is also the workhorse for all queries.
        self._unit = PiecewiseHazard(bp, vals)

    @classmethod
    def from_segments(
        cls, segments: Sequence[tuple[float, float]]
    ) -> "PiecewiseProfile":
        """Build from ``(duration, vulnerability)`` pairs."""
        if not segments:
            raise ProfileError("need at least one segment")
        durations = np.asarray([d for d, _ in segments], dtype=float)
        if np.any(durations <= 0):
            raise ProfileError("segment durations must be positive")
        bp = np.concatenate(([0.0], np.cumsum(durations)))
        return cls(bp, [v for _, v in segments])

    @classmethod
    def constant(cls, value: float, period: float) -> "PiecewiseProfile":
        """A constant vulnerability (``value`` for the whole period)."""
        return cls([0.0, period], [value])

    @property
    def breakpoints(self) -> np.ndarray:
        return self._unit.breakpoints

    @property
    def values(self) -> np.ndarray:
        return self._unit.rates

    @property
    def period(self) -> float:
        return self._unit.period

    @property
    def vulnerable_time(self) -> float:
        return self._unit.mass

    @property
    def segment_count(self) -> int:
        return int(self._unit.rates.size)

    @property
    def fingerprint(self) -> str:
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            digest = hashlib.sha256(b"piecewise/v1:")
            digest.update(
                np.ascontiguousarray(
                    self._unit.breakpoints, dtype=np.float64
                ).tobytes()
            )
            digest.update(b"|")
            digest.update(
                np.ascontiguousarray(
                    self._unit.rates, dtype=np.float64
                ).tobytes()
            )
            fp = digest.hexdigest()
            self._fingerprint = fp
        return fp

    def to_dict(self) -> dict:
        return {
            "kind": "piecewise",
            "breakpoints": [float(b) for b in self._unit.breakpoints],
            "values": [float(v) for v in self._unit.rates],
        }

    def value_at(self, tau):
        """Vulnerability at local time ``tau ∈ [0, period)``."""
        return self._unit.rate_at(tau)

    def to_hazard(self, rate_per_second: float) -> PiecewiseHazard:
        if rate_per_second < 0:
            raise ProfileError("raw error rate must be non-negative")
        return self._unit.scaled(rate_per_second)

    def tiled(self, n: int) -> "PiecewiseProfile":
        """The profile repeated over ``n`` consecutive periods."""
        tiled = self._unit.tiled(n)
        return PiecewiseProfile(tiled.breakpoints, tiled.rates)

    def dilated(self, factor: float) -> "PiecewiseProfile":
        """The profile stretched in time by ``factor`` (> 0).

        Every segment's duration is multiplied by ``factor``; the AVF is
        unchanged. Used to map a short simulated masking window onto the
        paper's 1e8-instruction loop length (see
        :mod:`repro.harness.spec_setup`): the dimensionless quantity
        driving AVF/SOFR validity is the hazard mass per iteration
        ``λ·V(L)``, which scales linearly with time dilation.
        """
        if factor <= 0:
            raise ProfileError(f"dilation factor must be positive, got {factor}")
        return PiecewiseProfile(
            self._unit.breakpoints * factor, self._unit.rates
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseProfile(period={self.period:g}, avf={self.avf:.4f}, "
            f"segments={self.segment_count})"
        )


class NestedProfile(VulnerabilityProfile):
    """Two-time-scale profile: outer segments each repeating an inner profile.

    Models the paper's ``combined`` workload (Section 4.2): an outer loop
    of 24 hours whose halves each cycle one SPEC benchmark's masking
    trace. Enumerate-and-flatten is infeasible (billions of inner
    repetitions), so this class delegates to
    :class:`~repro.reliability.hazard.NestedHazard` closed forms.

    Parameters
    ----------
    segments:
        ``(duration, inner)`` pairs where ``inner`` is a
        :class:`PiecewiseProfile` or a plain vulnerability value.
    """

    def __init__(
        self,
        segments: Sequence[tuple[float, "PiecewiseProfile | float"]],
    ):
        if not segments:
            raise ProfileError("need at least one segment")
        normalised: list[tuple[float, PiecewiseProfile]] = []
        for duration, inner in segments:
            duration = float(duration)
            if duration <= 0:
                raise ProfileError("segment durations must be positive")
            if isinstance(inner, (int, float)):
                inner = PiecewiseProfile.constant(float(inner), duration)
            if not isinstance(inner, PiecewiseProfile):
                raise ProfileError(
                    "inner profile must be a PiecewiseProfile or a number"
                )
            normalised.append((duration, inner))
        self._segments = normalised
        self._unit = NestedHazard(
            [(d, p.to_hazard(1.0)) for d, p in normalised]
        )

    @property
    def segments(self) -> list[tuple[float, PiecewiseProfile]]:
        return list(self._segments)

    @property
    def period(self) -> float:
        return self._unit.period

    @property
    def vulnerable_time(self) -> float:
        return self._unit.mass

    @property
    def fingerprint(self) -> str:
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            digest = hashlib.sha256(b"nested/v1:")
            for duration, inner in self._segments:
                digest.update(float(duration).hex().encode("ascii"))
                digest.update(b"|")
                digest.update(inner.fingerprint.encode("ascii"))
                digest.update(b";")
            fp = digest.hexdigest()
            self._fingerprint = fp
        return fp

    def to_dict(self) -> dict:
        return {
            "kind": "nested",
            "segments": [
                [float(duration), inner.to_dict()]
                for duration, inner in self._segments
            ],
        }

    def to_hazard(self, rate_per_second: float) -> NestedHazard:
        if rate_per_second < 0:
            raise ProfileError("raw error rate must be non-negative")
        return self._unit.scaled(rate_per_second)

    def value_at(self, tau):
        """Vulnerability at local time ``tau ∈ [0, period)`` (vectorised)."""
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        tau = np.atleast_1d(tau)
        if np.any((tau < 0) | (tau >= self.period)):
            raise ProfileError("tau outside [0, period)")
        starts = np.concatenate(
            ([0.0], np.cumsum([d for d, _ in self._segments]))
        )
        seg = np.clip(
            np.searchsorted(starts, tau, side="right") - 1,
            0,
            len(self._segments) - 1,
        )
        out = np.empty_like(tau)
        for j in np.unique(seg):
            sel = seg == j
            inner = self._segments[j][1]
            local = np.mod(tau[sel] - starts[j], inner.period)
            out[sel] = inner.value_at(
                np.clip(local, 0, inner.period * (1 - 1e-15))
            )
        return out[0] if scalar else out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NestedProfile(period={self.period:g}, avf={self.avf:.4f}, "
            f"segments={len(self._segments)})"
        )


def profile_from_dict(data: dict) -> VulnerabilityProfile:
    """Rebuild a profile from its :meth:`~VulnerabilityProfile.to_dict` form.

    Dispatches on the ``kind`` tag (``"piecewise"`` or ``"nested"``).
    The reconstruction is lossless: breakpoints and values come back
    bit-for-bit, so the rebuilt profile's ``fingerprint`` — and with it
    every content-addressed cache key derived from it — matches the
    original's. Malformed input raises :class:`ProfileError`.
    """
    if not isinstance(data, dict):
        raise ProfileError(f"profile wire form must be a dict, got {data!r}")
    try:
        return _profile_from_fields(data)
    except (TypeError, ValueError, OverflowError) as error:
        raise ProfileError(f"malformed profile wire form: {error}") from None


def _profile_from_fields(data: dict) -> VulnerabilityProfile:
    kind = data.get("kind")
    if kind == "piecewise":
        try:
            return PiecewiseProfile(data["breakpoints"], data["values"])
        except KeyError as missing:
            raise ProfileError(
                f"piecewise profile wire form is missing {missing}"
            ) from None
    if kind == "nested":
        try:
            segments = data["segments"]
        except KeyError:
            raise ProfileError(
                "nested profile wire form is missing 'segments'"
            ) from None
        rebuilt = []
        for segment in segments:
            duration, inner = segment
            inner_profile = profile_from_dict(inner)
            if not isinstance(inner_profile, PiecewiseProfile):
                raise ProfileError(
                    "nested profile segments must hold piecewise inners"
                )
            rebuilt.append((float(duration), inner_profile))
        return NestedProfile(rebuilt)
    raise ProfileError(
        f"unknown profile kind {kind!r}; expected 'piecewise' or 'nested'"
    )


def busy_idle_profile(
    busy_time: float, period: float, busy_value: float = 1.0
) -> PiecewiseProfile:
    """The paper's canonical synthetic workload (Section 3.1.2).

    Vulnerable (``busy_value``) for the first ``busy_time`` seconds of
    each iteration, masked for the rest. ``busy_time == period`` yields an
    always-vulnerable profile.
    """
    if not 0 < busy_time <= period:
        raise ProfileError(
            f"busy time must be in (0, period]; got {busy_time} of {period}"
        )
    if busy_time == period:
        return PiecewiseProfile.constant(busy_value, period)
    return PiecewiseProfile(
        [0.0, busy_time, period], [busy_value, 0.0]
    )


def from_cycle_mask(
    mask: np.ndarray, cycle_time: float
) -> PiecewiseProfile:
    """Compress a per-cycle vulnerability array into a profile.

    ``mask`` may be boolean (busy/idle) or float in ``[0, 1]``
    (fractional liveness). Consecutive equal cycles are run-length
    encoded; a 100k-cycle trace with phase behaviour typically compresses
    by 10-100x.
    """
    mask = np.asarray(mask)
    if mask.ndim != 1 or mask.size == 0:
        raise ProfileError("mask must be a non-empty 1-D array")
    if cycle_time <= 0:
        raise ProfileError(f"cycle time must be positive, got {cycle_time}")
    values = mask.astype(float)
    if np.any((values < 0) | (values > 1)):
        raise ProfileError("mask values must lie in [0, 1]")
    change = np.flatnonzero(np.diff(values)) + 1
    starts = np.concatenate(([0], change))
    run_values = values[starts]
    bp = np.concatenate((starts, [values.size])) * cycle_time
    return PiecewiseProfile(bp, run_values)
