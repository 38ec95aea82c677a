"""SoftArch: first-principles probabilistic MTTF (Section 5.4).

SoftArch [Li et al., DSN 2005] couples a probabilistic error model with
an architecture-level simulation: as the program executes it tracks the
probability that each architecturally visible value is erroneous —
errors are *generated* on a value while it resides in a structure
(probability ``1 - e^{-λτ}`` over residency ``τ``) and *propagate* to
derived values. When a value can affect program output, the model records
a potential-failure event with its accumulated error probability; the
expected time to first failure over the looped workload is the MTTF.

Crucially, SoftArch never assumes uniform vulnerability (the AVF step) or
exponential per-component failure times (the SOFR step). This module
implements the model's event-accumulation core:

* :class:`SoftArchTimeline` — the potential-failure events within one
  workload iteration as chronologically ordered columns, folded into an
  MTTF by forward survival accumulation plus a geometric continuation
  over subsequent iterations (``MTTF = m1 + L(1-q)/q``);
* :func:`softarch_mttf` — derives the events for a whole system from
  the combined failure intensity, one event per elementary interval in
  which every component's vulnerability is constant, so events never
  overlap and the fold is exact.

Event construction and the folds are array code with the bits of the
per-event scalar loops they replaced: libm transcendentals through
``frompyfunc`` (see :data:`repro.reliability.hazard._libm_exp`),
sequential ``cumsum``/``cumprod`` folds and a stable sort.

The fold is deliberately a *different code path* from the closed-form
renewal integral in :mod:`repro.core.firstprinciples`: the paper uses
SoftArch as an independent method and validates it against Monte Carlo
(<1% component, <2% system error); our tests do the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import EstimationError
from ..masking.profile import VulnerabilityProfile
from ..reliability.hazard import (
    CyclicIntensity,
    NestedHazard,
    PiecewiseHazard,
    _libm_expm1,
    _libm_log1p,
    _libm_pow,
    _split_repetitions,
)
from ..reliability.metrics import MTTFEstimate
from .system import SystemModel


@dataclass(frozen=True)
class OutputEvent:
    """A potential-failure event within one workload iteration.

    Attributes
    ----------
    time:
        End of the interval this event covers (when the affected value
        reaches program output).
    probability:
        Probability that the value is erroneous — i.e. that an unmasked
        strike occurred over the covered interval.
    mean_time:
        Expected failure instant conditional on this event failing
        (strikes spread over the interval, so this lies inside it).
    """

    time: float
    probability: float
    mean_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise EstimationError(
                f"event probability must be in [0,1], got {self.probability}"
            )
        if self.time < 0:
            raise EstimationError(f"event time must be >= 0, got {self.time}")
        if self.mean_time > self.time * (1 + 1e-9):
            raise EstimationError(
                "conditional mean time cannot exceed the event time"
            )


class SoftArchTimeline:
    """Per-iteration output-event timeline folded into an MTTF.

    The timeline is three float64 columns — :attr:`time`,
    :attr:`probability` and :attr:`mean_time` — sorted chronologically
    (a stable sort, so events at equal times keep their construction
    order). :func:`timeline_from_intensity` writes the columns directly
    through :meth:`from_columns`; ``SoftArchTimeline(events, period)``
    takes a hand-built list of :class:`OutputEvent` records, and
    :attr:`events` is the record view.

    Events must cover disjoint, chronologically ordered intervals (the
    builder guarantees this). The fold walks the events once:
    ``P(first failure = event j) = p_j · Π_{i<j}(1 - p_i)``, giving the
    iteration failure probability ``q`` and the conditional mean failure
    time ``m1``; independent identical iterations then give

        ``MTTF = m1 + L · (1 - q) / q``.
    """

    def __init__(self, events: Sequence[OutputEvent], period: float):
        self._assign(
            [e.time for e in events],
            [e.probability for e in events],
            [e.mean_time for e in events],
            period,
        )

    @classmethod
    def from_columns(
        cls, time, probability, mean_time, period: float
    ) -> "SoftArchTimeline":
        """A timeline from event columns in any order, checked and sorted."""
        timeline = cls.__new__(cls)
        timeline._assign(time, probability, mean_time, period)
        return timeline

    def _assign(self, time, probability, mean_time, period) -> None:
        time, probability, mean_time = (
            np.asarray(column, dtype=float)
            for column in (time, probability, mean_time)
        )
        bad = (
            ~((probability >= 0.0) & (probability <= 1.0))
            | (time < 0)
            | (mean_time > time * (1 + 1e-9))
        )
        if bad.any():
            # The first offending row, as a record, raises its own error.
            i = int(bad.argmax())
            OutputEvent(
                float(time[i]), float(probability[i]), float(mean_time[i])
            )
        if period <= 0:
            raise EstimationError(f"period must be positive, got {period}")
        order = np.argsort(time, kind="stable")
        self.time, self.probability, self.mean_time = (
            time[order], probability[order], mean_time[order]
        )
        for column in (self.time, self.probability, self.mean_time):
            column.flags.writeable = False
        outside = self.time > period * (1 + 1e-9)
        if outside.any():
            raise EstimationError(
                f"event at {float(self.time[outside.argmax()])} outside "
                f"iteration of {period}"
            )
        self._period = float(period)

    @property
    def period(self) -> float:
        return self._period

    @property
    def events(self) -> list[OutputEvent]:
        return [
            OutputEvent(t, p, m)
            for t, p, m in zip(
                self.time.tolist(),
                self.probability.tolist(),
                self.mean_time.tolist(),
            )
        ]

    @property
    def event_count(self) -> int:
        return self.time.size

    def iteration_failure_probability(self) -> float:
        """``q``: probability one iteration fails, by forward survival."""
        if (self.probability >= 1.0).any():
            return 1.0
        log_survival = _running_sum(
            _libm_log1p(-self.probability).astype(float)
        )
        # ``0.0 - expm1`` has the bits of ``-expm1`` except at zero,
        # where it gives +0.0: a timeline that never fails has q = 0.0.
        return 0.0 - math.expm1(log_survival)

    def mttf(self) -> float:
        """Expected time to first failure over looped iterations."""
        q, weighted_time = _first_failure_fold(
            self.probability, self.mean_time
        )
        if q <= 0.0:
            return math.inf
        m1 = weighted_time / q
        return m1 + self._period * (1.0 - q) / q


def _running_sum(terms: np.ndarray) -> float:
    """``0.0 + t0 + t1 + ...``, folded left to right.

    ``np.cumsum`` accumulates sequentially, so this is the scalar
    ``total += term`` loop bit for bit (a pairwise ``np.sum`` is not).
    """
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _first_failure_fold(
    probability: np.ndarray, mean_time: np.ndarray
) -> tuple[float, float]:
    """``(q, Σ_j P(first failure = j) · mean_j)`` over chronological events.

    The survival products ``Π_{i<j}(1 - p_i)`` come from ``np.cumprod``,
    a sequential fold like :func:`_running_sum`.
    """
    survival = np.concatenate(([1.0], np.cumprod(1.0 - probability)))[:-1]
    p_here = survival * probability
    return _running_sum(p_here), _running_sum(p_here * mean_time)


# ---------------------------------------------------------------------------
# Event construction from failure intensities.
# ---------------------------------------------------------------------------


def _truncated_exp_mean_fraction(x: np.ndarray) -> np.ndarray:
    """Mean of a truncated Exp(1) on [0, 1] with total hazard ``x``.

    ``g(x) = 1/x - 1/(e^x - 1)``, evaluated stably: a Taylor series for
    small ``x`` (the direct form suffers catastrophic cancellation) and
    the ``expm1`` form otherwise. ``g`` decreases from 1/2 (uniform
    limit) towards 0 (failures concentrate at the interval start), so
    the conditional mean always lies inside the interval.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-5
    large = x > 700.0  # e^x overflows; 1/(e^x - 1) is exactly 0 in double
    mid = ~(small | large)
    g = np.empty_like(x)
    xs = x[small]
    g[small] = 0.5 - xs / 12.0 + _libm_pow(xs, 3.0).astype(float) / 720.0
    g[large] = 1.0 / x[large]
    xm = x[mid]
    g[mid] = 1.0 / xm - 1.0 / _libm_expm1(xm).astype(float)
    return g


def _piecewise_columns(
    hazard: PiecewiseHazard, until: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Event columns for one positive-intensity segment each.

    Segments are cut at ``until`` when given. Over ``[t0, t1)`` with
    rate ``r`` and ``d = t1 - t0`` a strike occurs with probability
    ``1 - e^{-r·d}``; conditional on one, its instant is
    truncated-exponential with mean ``t0 + d·g(r·d)`` (see
    :func:`_truncated_exp_mean_fraction`). Inert segments (``d`` or
    ``r`` zero, or a probability that underflows to 0) give no event.
    """
    bp = hazard.breakpoints
    rate = hazard.rates
    t0 = bp[:-1]
    t1 = bp[1:]
    if until is not None:
        n = int(np.searchsorted(t0, until, side="left"))
        t0, t1, rate = t0[:n], np.minimum(t1[:n], until), rate[:n]
    d = t1 - t0
    live = (d > 0) & (rate > 0)
    t0, t1, d = t0[live], t1[live], d[live]
    x = rate[live] * d
    prob = -(_libm_expm1(-x).astype(float))
    hit = prob > 0.0
    d = d[hit]
    mean = t0[hit] + d * _truncated_exp_mean_fraction(x[hit])
    return t1[hit], prob[hit], mean


#: Below this repetition count, inner cycles are enumerated exactly;
#: above it, each block is folded into one aggregate event (also exact —
#: blocks are sequential and identically distributed).
_ENUMERATION_LIMIT = 1024


def _aggregate_blocks(
    probability: np.ndarray,
    mean_time: np.ndarray,
    block_period: float,
    repetitions: int,
    offset: float,
) -> tuple[float, float, float] | None:
    """Collapse ``repetitions`` identical sequential event blocks.

    The block is given by its chronological ``probability`` and
    ``mean_time`` columns. Within one block: failure probability ``q_b``
    and conditional mean ``m_b`` come from the standard fold. Across
    blocks the first failing block index is geometric, so the aggregate
    ``(time, probability, mean_time)`` has

    * probability ``1 - (1 - q_b)^R``,
    * conditional mean ``offset + E[k | fail]·P_block + m_b`` with
      ``E[k | fail] = q_b·Σ_{k<R} k(1-q_b)^k / (1 - (1-q_b)^R)``.

    Exact because blocks are disjoint in time and i.i.d. (The closed
    form for ``E[k | fail]`` cancels catastrophically when
    ``R·q_b ≪ 1``; see ROADMAP.md.) Returns ``None`` for a block that
    never fails.
    """
    q_b, weighted = _first_failure_fold(probability, mean_time)
    if q_b <= 0.0:
        return None
    m_b = weighted / q_b
    r = repetitions
    if q_b >= 1.0:
        total_q = 1.0
        mean_k = 0.0
    else:
        x = 1.0 - q_b
        total_q = -math.expm1(r * math.log1p(-q_b))
        x_pow_r = math.exp(r * math.log(x)) if x > 0 else 0.0
        # Σ_{k=0}^{r-1} k x^k = x(1 - r x^{r-1} + (r-1) x^r)/(1-x)^2
        x_pow_r_minus_1 = x_pow_r / x if x > 0 else 0.0
        sum_k = x * (1.0 - r * x_pow_r_minus_1 + (r - 1) * x_pow_r) / (
            q_b * q_b
        )
        mean_k = q_b * sum_k / total_q
    return (
        offset + r * block_period,
        total_q,
        offset + mean_k * block_period + m_b,
    )


def _nested_columns(
    hazard: NestedHazard,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Event columns for a nested hazard, aggregating massive repetitions."""
    pieces = []
    offset = 0.0
    for duration, inner in hazard.segments:
        full, tail = _split_repetitions(duration, inner.period)
        time, prob, mean = _piecewise_columns(inner)
        if full > 0 and time.size:
            if full <= _ENUMERATION_LIMIT:
                shift = offset + np.arange(full) * inner.period
                pieces.append(
                    (
                        np.add.outer(shift, time).ravel(),
                        np.tile(prob, full),
                        np.add.outer(shift, mean).ravel(),
                    )
                )
            else:
                aggregate = _aggregate_blocks(
                    prob, mean, inner.period, full, offset
                )
                if aggregate is not None:
                    pieces.append(tuple(np.array([v]) for v in aggregate))
        if tail > 1e-12 * inner.period:
            shift = offset + full * inner.period
            time, prob, mean = _piecewise_columns(inner, until=tail)
            pieces.append((shift + time, prob, shift + mean))
        offset += duration
    if not pieces:
        return np.empty(0), np.empty(0), np.empty(0)
    return tuple(np.concatenate(column) for column in zip(*pieces))


def timeline_from_intensity(intensity: CyclicIntensity) -> SoftArchTimeline:
    """Build the per-iteration event timeline for a failure intensity."""
    if isinstance(intensity, PiecewiseHazard):
        columns = _piecewise_columns(intensity)
    elif isinstance(intensity, NestedHazard):
        columns = _nested_columns(intensity)
    else:
        raise EstimationError(
            f"SoftArch needs a piecewise or nested intensity, got "
            f"{type(intensity).__name__}"
        )
    return SoftArchTimeline.from_columns(*columns, intensity.period)


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def softarch_component_mttf(
    rate_per_second: float, profile: VulnerabilityProfile
) -> float:
    """SoftArch MTTF (seconds) for one component."""
    if rate_per_second < 0:
        raise EstimationError("raw rate must be non-negative")
    if rate_per_second == 0:
        return math.inf
    return timeline_from_intensity(profile.to_hazard(rate_per_second)).mttf()


def softarch_mttf(system: SystemModel) -> MTTFEstimate:
    """SoftArch MTTF of a series system.

    The system's combined failure intensity (components' intensities
    superposed, multiplicities included) is cut into elementary
    constant-intensity intervals; each becomes one output event. Because
    the intervals are disjoint, the forward fold is exact — this mirrors
    SoftArch's operation of accounting for *all* structures at each
    simulation step.
    """
    timeline = timeline_from_intensity(system.combined_intensity())
    return MTTFEstimate(mttf_seconds=timeline.mttf(), method="softarch")
