"""SoftArch and SOFR array code against the scalar oracles, bit for bit.

``softarch_oracle`` keeps the per-event loops SoftArch's event
construction, its folds and the SOFR sum were before they became array
code. Every comparison here is on the float64 bits (``tobytes``), not
within a tolerance: the array paths are sequential folds over the same
libm transcendentals, so any difference is a bug.

The strategies cover each branch of the truncated-exponential mean
fraction (``x < 1e-5``, ``x > 700`` and the ``expm1`` form), zero-rate
segments and rates so small the event probability underflows to 0,
nested tails cut at ``until``, repetition counts on both sides of the
enumeration limit (0, 1, 1024, 1025), certain (``p == 1``) events and
timelines with no events at all.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
import softarch_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OutputEvent,
    SoftArchTimeline,
    sofr_mttf_from_values,
    timeline_from_intensity,
)
from repro.core.softarch import (
    _ENUMERATION_LIMIT,
    _aggregate_blocks,
    _truncated_exp_mean_fraction,
)
from repro.errors import ConfigurationError, EstimationError
from repro.reliability.hazard import NestedHazard, PiecewiseHazard
from repro.reliability.series import sofr_mttf


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_timeline_matches_oracle(timeline, events, period):
    assert timeline.event_count == len(events)
    assert bits(timeline.time) == bits([e.time for e in events])
    assert bits(timeline.probability) == bits([e.probability for e in events])
    assert bits(timeline.mean_time) == bits([e.mean_time for e in events])
    assert bits(timeline.mttf()) == bits(oracle.mttf(events, period))
    q = timeline.iteration_failure_probability()
    expected = oracle.iteration_failure_probability(events)
    # The oracle keeps the old -0.0 for a timeline that can never fail.
    assert bits(q) == bits(expected + 0.0)


#: Rates spanning all three mean-fraction branches, plus exact zeros and
#: subnormals whose strike probability underflows to 0.
rates = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310]),
    st.floats(min_value=1e-12, max_value=1e4),
)


@st.composite
def piecewise_hazards(draw, max_segments=5):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    durations = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=n, max_size=n
        )
    )
    segment_rates = draw(st.lists(rates, min_size=n, max_size=n))
    return PiecewiseHazard.from_segments(list(zip(durations, segment_rates)))


@st.composite
def nested_hazards(draw):
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            inner = draw(piecewise_hazards(max_segments=4))
            full = draw(st.sampled_from([0, 1, 2, 1024, 1025, 50_000]))
            fraction = draw(
                st.one_of(
                    st.just(0.0), st.floats(min_value=0.01, max_value=0.99)
                )
            )
            if full == 0 and fraction == 0.0:
                fraction = 0.5
            segments.append(((full + fraction) * inner.period, inner))
        else:
            segments.append((draw(st.floats(0.1, 10.0)), draw(rates)))
    return NestedHazard(segments)


def oracle_or_error(build):
    """The oracle's events, or the error it raised instead.

    Besides the event checks' ``EstimationError``, the aggregate's
    ``E[k | fail]`` divides by ``q_b**2``, which underflows to 0 for a
    block probability below ~1e-162 (a known defect, see ROADMAP.md);
    the array path must fail the same way.
    """
    try:
        return build(), None
    except (EstimationError, ZeroDivisionError) as exc:
        return None, exc


class TestEventConstruction:
    @settings(max_examples=300, deadline=None)
    @given(piecewise_hazards())
    def test_piecewise(self, hazard):
        events, error = oracle_or_error(
            lambda: oracle.events_from_intensity(hazard)
        )
        if error is not None:
            with pytest.raises(type(error), match=re.escape(str(error))):
                timeline_from_intensity(hazard)
            return
        assert_timeline_matches_oracle(
            timeline_from_intensity(hazard), events, hazard.period
        )

    @settings(max_examples=150, deadline=None)
    @given(nested_hazards())
    def test_nested(self, hazard):
        events, error = oracle_or_error(
            lambda: oracle.events_from_intensity(hazard)
        )
        if error is not None:
            with pytest.raises(type(error), match=re.escape(str(error))):
                timeline_from_intensity(hazard)
            return
        assert_timeline_matches_oracle(
            timeline_from_intensity(hazard), events, hazard.period
        )

    def test_all_zero_rates_give_an_empty_timeline(self):
        hazard = PiecewiseHazard.from_segments([(1.0, 0.0), (0.25, 5e-324)])
        timeline = timeline_from_intensity(hazard)
        assert timeline.event_count == 0
        assert_timeline_matches_oracle(timeline, [], hazard.period)

    @pytest.mark.parametrize("full", [0, 1, 1024, 1025])
    def test_repetition_counts_around_the_enumeration_limit(self, full):
        inner = PiecewiseHazard.from_segments(
            [(0.25, 3.0), (0.5, 0.0), (0.25, 1e-7)]
        )
        hazard = NestedHazard(
            [((full + 0.4) * inner.period, inner), (2.0, 0.1)]
        )
        events = oracle.events_from_intensity(hazard)
        timeline = timeline_from_intensity(hazard)
        assert_timeline_matches_oracle(timeline, events, hazard.period)
        # Two events per enumerated block (the zero segment is inert) or
        # one aggregate; the tail, cut inside the zero segment, keeps one
        # and the constant outer segment adds one.
        blocks = 2 * full if full <= _ENUMERATION_LIMIT else 1
        assert timeline.event_count == blocks + 2

    def test_tail_that_rounds_to_a_full_period_is_one_more_repetition(self):
        # duration / period floors to k, but duration - k*period rounds to
        # a whole period: the shared split counts k + 1 repetitions and no
        # tail, so the timeline is one aggregate event.
        period = 0.001380518018071977
        inner = PiecewiseHazard([0.0, period], [1e-3])
        hazard = NestedHazard([(9900605.843964001, inner)])
        timeline = timeline_from_intensity(hazard)
        assert timeline.event_count == 1
        assert_timeline_matches_oracle(
            timeline, oracle.events_from_intensity(hazard), hazard.period
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=2e-5),
                st.floats(min_value=0.0, max_value=1e3),
                st.floats(min_value=690.0, max_value=1e6),
                st.sampled_from([1e-5, 700.0, 5e-324]),
            ),
            max_size=20,
        )
    )
    def test_mean_fraction_branches(self, xs):
        got = _truncated_exp_mean_fraction(np.array(xs, dtype=float))
        assert bits(got) == bits(
            [oracle.truncated_exp_mean_fraction(x) for x in xs]
        )


events_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.one_of(
            st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
        ),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=30,
)


def hand_built(draws):
    # Coarse times so that ties (kept in construction order) occur.
    return [
        OutputEvent(time=round(t, 0), probability=p, mean_time=f * round(t, 0))
        for t, p, f in draws
    ]


class TestFolds:
    @settings(max_examples=300, deadline=None)
    @given(events_strategy)
    def test_hand_built_timeline(self, draws):
        events = hand_built(draws)
        timeline = SoftArchTimeline(events, 100.0)
        ordered = sorted(events, key=lambda e: e.time)
        assert timeline.events == ordered
        assert_timeline_matches_oracle(timeline, ordered, 100.0)

    @settings(max_examples=300, deadline=None)
    @given(
        events_strategy,
        st.sampled_from([1, 2, 1025, 10**6, 1108488145]),
        st.floats(min_value=0.0, max_value=1e3),
    )
    def test_aggregate_blocks(self, draws, repetitions, offset):
        block = hand_built(draws)

        def aggregate():
            return _aggregate_blocks(
                np.array([e.probability for e in block], dtype=float),
                np.array([e.mean_time for e in block], dtype=float),
                100.0, repetitions, offset,
            )

        expected, error = oracle_or_error(
            lambda: oracle.aggregate_blocks(block, 100.0, repetitions, offset)
        )
        if isinstance(error, ZeroDivisionError):
            with pytest.raises(ZeroDivisionError):
                aggregate()
        elif error is not None:
            # The aggregate breaks an event invariant: the timeline's
            # column checks reject it as the record did.
            with pytest.raises(EstimationError, match=re.escape(str(error))):
                SoftArchTimeline.from_columns(
                    *([v] for v in aggregate()), math.inf
                )
        elif expected is None:
            assert aggregate() is None
        else:
            assert bits(aggregate()) == bits(
                [expected.time, expected.probability, expected.mean_time]
            )

    def test_columns_are_checked_like_records(self):
        with pytest.raises(EstimationError, match="probability"):
            SoftArchTimeline.from_columns([1.0], [1.5], [0.5], 2.0)
        with pytest.raises(EstimationError, match="time must be >= 0"):
            SoftArchTimeline.from_columns([-1.0], [0.5], [-2.0], 2.0)
        with pytest.raises(EstimationError, match="mean time"):
            SoftArchTimeline.from_columns([1.0], [0.5], [2.0], 2.0)
        with pytest.raises(EstimationError, match="outside iteration"):
            SoftArchTimeline.from_columns([3.0], [0.5], [2.0], 2.0)
        with pytest.raises(EstimationError, match="period"):
            SoftArchTimeline.from_columns([], [], [], 0.0)


mttf_values = st.one_of(
    st.floats(min_value=1e-3, max_value=1e15),
    st.just(math.inf),
)


class TestSofrFold:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(mttf_values, st.integers(min_value=0, max_value=60)),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_the_expanded_loop(self, pairs):
        values = [v for v, _ in pairs]
        counts = [c for _, c in pairs]
        expanded = [v for v, c in pairs for _ in range(c)]
        if not expanded:
            with pytest.raises(ConfigurationError):
                sofr_mttf_from_values(values, counts)
            return
        got = sofr_mttf_from_values(values, counts).mttf_seconds
        assert bits(got) == bits(oracle.sofr_mttf(expanded))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                mttf_values,
                st.floats(max_value=0.0),
                st.just(math.nan),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_errors_and_nan_match_the_loop(self, values):
        # A list as given, and the float64 array np.repeat builds.
        doubled = [v for v in values for _ in range(2)]
        for mttfs, loop_input in (
            (values, values), (np.repeat(values, 2), doubled)
        ):
            try:
                expected = oracle.sofr_mttf(loop_input)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError) as info:
                    sofr_mttf(mttfs)
                assert str(info.value) == str(exc)
                continue
            assert bits(sofr_mttf(mttfs)) == bits(expected)

    def test_multiplicities_must_match_in_length(self):
        # np.repeat would broadcast a single count over every value.
        with pytest.raises(ValueError):
            sofr_mttf_from_values([1.0, 2.0], [3])

    def test_first_offender_is_reported(self):
        with pytest.raises(ConfigurationError, match="got -2.0"):
            sofr_mttf([1.0, math.nan, -2.0, 0.0])
        assert math.isnan(sofr_mttf([1.0, math.nan, math.inf]))
        assert sofr_mttf([math.inf, math.inf]) == math.inf


#: ``(q_b, R)`` of the gzip-half block of sec5.4's ``combined`` workload
#: at N x S = 1e8 (C = 1 and C = 8) and of its swim half at C = 1.
CANCELLATION_POINTS = [
    (float.fromhex("0x1.a36d7e138b864p-44"), 1108488145),
    (float.fromhex("0x1.aa4851da562f4p-43"), 2069956875),
    (float.fromhex("0x1.a36d7e138b224p-41"), 1108488145),
]


def expected_block_index(q_b: float, repetitions: int) -> float:
    """``E[k | fail] = q·Σ_{k<R} k(1-q)^k / (1-(1-q)^R)`` at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        q = Decimal(q_b)
        r = Decimal(repetitions)
        x = 1 - q
        x_r = (r * x.ln()).exp()
        sum_k = x * (1 - r * x_r / x + (r - 1) * x_r) / (q * q)
        return float(q * sum_k / (1 - x_r))


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        reason="E[k | fail] in _aggregate_blocks cancels when R*q_b << 1 "
        "(ROADMAP known defect; fixing it moves sec5.4's numbers)",
    )
    @pytest.mark.parametrize("q_b, repetitions", CANCELLATION_POINTS)
    def test_aggregate_mean_block_index(self, q_b, repetitions):
        period = 3.8972000000000006e-05
        _, _, mean_time = _aggregate_blocks(
            np.array([q_b]), np.array([0.5 * period]), period, repetitions, 0.0
        )
        mean_k = (mean_time - 0.5 * period) / period
        assert mean_k == pytest.approx(
            expected_block_index(q_b, repetitions), rel=1e-6
        )
