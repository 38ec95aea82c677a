"""Scalar reference oracles for the array-code analytical estimators.

SoftArch's event construction and folds, and the SOFR sum, as the
per-event Python loops they were before they became array code. The
property suites check the array paths against them bit for bit, so
every function here keeps the original arithmetic and accumulation
order exactly. The one deliberate difference from the original loop is
the repetition split in :func:`events_from_nested`: it uses the shared
``hazard._split_repetitions`` rule (which also folds a tail that rounds
up to a whole inner period into one more repetition), as the array path
does.
"""

from __future__ import annotations

import math

from repro.core import OutputEvent
from repro.errors import ConfigurationError
from repro.reliability.hazard import (
    NestedHazard,
    PiecewiseHazard,
    _split_repetitions,
)

ENUMERATION_LIMIT = 1024


def truncated_exp_mean_fraction(x: float) -> float:
    if x < 1e-5:
        return 0.5 - x / 12.0 + x**3 / 720.0
    if x > 700.0:
        return 1.0 / x
    return 1.0 / x - 1.0 / math.expm1(x)


def segment_event(
    start: float, end: float, rate: float
) -> OutputEvent | None:
    d = end - start
    if d <= 0 or rate <= 0:
        return None
    x = rate * d
    prob = -math.expm1(-x)
    if prob <= 0.0:
        return None
    mean_local = d * truncated_exp_mean_fraction(x)
    return OutputEvent(time=end, probability=prob, mean_time=start + mean_local)


def events_from_piecewise(
    hazard: PiecewiseHazard, offset: float = 0.0, until: float | None = None
) -> list[OutputEvent]:
    events: list[OutputEvent] = []
    bp = hazard.breakpoints
    rates = hazard.rates
    for j in range(rates.size):
        t0 = float(bp[j])
        t1 = float(bp[j + 1])
        if until is not None:
            if t0 >= until:
                break
            t1 = min(t1, until)
        event = segment_event(offset + t0, offset + t1, float(rates[j]))
        if event is not None:
            events.append(event)
    return events


def aggregate_blocks(
    block_events: list[OutputEvent],
    block_period: float,
    repetitions: int,
    offset: float,
) -> OutputEvent | None:
    survival = 1.0
    weighted = 0.0
    q_b = 0.0
    for e in block_events:
        p_here = survival * e.probability
        weighted += p_here * e.mean_time
        q_b += p_here
        survival *= 1.0 - e.probability
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
        x_pow_r_minus_1 = x_pow_r / x if x > 0 else 0.0
        sum_k = x * (1.0 - r * x_pow_r_minus_1 + (r - 1) * x_pow_r) / (
            q_b * q_b
        )
        mean_k = q_b * sum_k / total_q
    return OutputEvent(
        time=offset + r * block_period,
        probability=total_q,
        mean_time=offset + mean_k * block_period + m_b,
    )


def events_from_nested(hazard: NestedHazard) -> list[OutputEvent]:
    events: list[OutputEvent] = []
    offset = 0.0
    for duration, inner in hazard.segments:
        full, tail = _split_repetitions(duration, inner.period)
        block = events_from_piecewise(inner)
        if full > 0 and block:
            if full <= ENUMERATION_LIMIT:
                for k in range(full):
                    shift = offset + k * inner.period
                    events.extend(
                        OutputEvent(
                            time=shift + e.time,
                            probability=e.probability,
                            mean_time=shift + e.mean_time,
                        )
                        for e in block
                    )
            else:
                aggregate = aggregate_blocks(block, inner.period, full, offset)
                if aggregate is not None:
                    events.append(aggregate)
        if tail > 1e-12 * inner.period:
            shift = offset + full * inner.period
            events.extend(
                OutputEvent(
                    time=shift + e.time,
                    probability=e.probability,
                    mean_time=shift + e.mean_time,
                )
                for e in events_from_piecewise(inner, until=tail)
            )
        offset += duration
    return events


def events_from_intensity(intensity) -> list[OutputEvent]:
    """Chronological events, in the order the original timeline sorted them."""
    if isinstance(intensity, PiecewiseHazard):
        events = events_from_piecewise(intensity)
    else:
        events = events_from_nested(intensity)
    return sorted(events, key=lambda e: e.time)


def iteration_failure_probability(events: list[OutputEvent]) -> float:
    log_survival = 0.0
    for event in events:
        if event.probability >= 1.0:
            return 1.0
        log_survival += math.log1p(-event.probability)
    return -math.expm1(log_survival)


def mttf(events: list[OutputEvent], period: float) -> float:
    survival = 1.0
    weighted_time = 0.0
    q = 0.0
    for event in events:
        p_here = survival * event.probability
        weighted_time += p_here * event.mean_time
        q += p_here
        survival *= 1.0 - event.probability
    if q <= 0.0:
        return math.inf
    m1 = weighted_time / q
    return m1 + period * (1.0 - q) / q


def sofr_mttf(component_mttfs) -> float:
    if not len(component_mttfs):
        raise ConfigurationError("need at least one component MTTF")
    total_rate = 0.0
    for m in component_mttfs:
        if m <= 0:
            raise ConfigurationError(f"MTTF must be positive, got {m}")
        if math.isinf(m):
            continue
        total_rate += 1.0 / m
    if total_rate == 0.0:
        return math.inf
    return 1.0 / total_rate
