"""Edge-case tests across modules: branches the main suites don't hit."""

import math

import numpy as np
import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    OutputEvent,
    SoftArchTimeline,
    SystemModel,
    monte_carlo_mttf,
    timeline_from_intensity,
)
from repro.core.montecarlo import _estimate_from_samples
from repro.core.softarch import _aggregate_blocks, _truncated_exp_mean_fraction
from repro.errors import ConfigurationError, EstimationError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile
from repro.reliability.hazard import NestedHazard, PiecewiseHazard


class TestMonteCarloInternals:
    def test_mixed_finite_infinite_rejected(self):
        samples = np.array([1.0, np.inf, 2.0])
        with pytest.raises(EstimationError):
            _estimate_from_samples(samples, "test")

    def test_all_infinite_gives_infinite_estimate(self):
        est = _estimate_from_samples(np.full(5, np.inf), "test")
        assert math.isinf(est.mttf_seconds)
        assert est.trials == 5

    def test_single_sample_zero_stderr(self):
        est = _estimate_from_samples(np.array([3.0]), "test")
        assert est.std_error_seconds == 0.0

    def test_zero_mass_system(self):
        system = SystemModel(
            [Component("c", 1e-6, PiecewiseProfile.constant(0.0, 5.0))]
        )
        est = monte_carlo_mttf(system, MonteCarloConfig(trials=10))
        assert math.isinf(est.mttf_seconds)


class TestSoftArchInternals:
    def test_truncated_mean_fraction_limits(self):
        # Uniform limit at x -> 0, 1/x tail at x -> infinity.
        assert _truncated_exp_mean_fraction(1e-12) == pytest.approx(0.5)
        assert _truncated_exp_mean_fraction(1e4) == pytest.approx(1e-4)
        assert _truncated_exp_mean_fraction(1e6) == pytest.approx(1e-6)

    def test_truncated_mean_fraction_continuous_at_switch(self):
        below = _truncated_exp_mean_fraction(0.99e-5)
        above = _truncated_exp_mean_fraction(1.01e-5)
        assert below == pytest.approx(above, rel=1e-6)

    def test_aggregate_blocks_matches_enumeration(self):
        events = [
            OutputEvent(time=0.4, probability=0.01, mean_time=0.2),
            OutputEvent(time=1.0, probability=0.02, mean_time=0.7),
        ]
        reps = 50
        aggregated = OutputEvent(
            *_aggregate_blocks(
                np.array([e.probability for e in events]),
                np.array([e.mean_time for e in events]),
                1.0, reps, offset=0.0,
            )
        )
        enumerated = []
        for k in range(reps):
            enumerated.extend(
                OutputEvent(
                    time=k + e.time,
                    probability=e.probability,
                    mean_time=k + e.mean_time,
                )
                for e in events
            )
        agg_timeline = SoftArchTimeline([aggregated], float(reps))
        enum_timeline = SoftArchTimeline(enumerated, float(reps))
        assert agg_timeline.iteration_failure_probability() == (
            pytest.approx(enum_timeline.iteration_failure_probability(),
                          rel=1e-12)
        )
        assert agg_timeline.mttf() == pytest.approx(
            enum_timeline.mttf(), rel=1e-9
        )

    def test_aggregate_blocks_empty(self):
        assert (
            _aggregate_blocks(np.empty(0), np.empty(0), 1.0, 10, 0.0) is None
        )

    def test_aggregate_blocks_certain_failure(self):
        aggregated = OutputEvent(
            *_aggregate_blocks(
                np.array([1.0]), np.array([0.5]), 1.0, 1000, offset=0.0
            )
        )
        assert aggregated.probability == 1.0
        assert aggregated.mean_time == pytest.approx(0.5)

    def test_timeline_events_property_sorted(self):
        timeline = SoftArchTimeline(
            [
                OutputEvent(time=2.0, probability=0.1, mean_time=1.5),
                OutputEvent(time=1.0, probability=0.1, mean_time=0.5),
            ],
            10.0,
        )
        times = [e.time for e in timeline.events]
        assert times == sorted(times)


class TestNestedEdgeCases:
    def test_nested_hazard_segments_property(self):
        inner = PiecewiseHazard.from_segments([(1.0, 0.5)])
        nested = NestedHazard([(5.0, inner), (3.0, 0.2)])
        segments = nested.segments
        assert len(segments) == 2
        assert segments[0][0] == pytest.approx(5.0)

    def test_timeline_from_nested_zero_rate_segment(self):
        inner = PiecewiseProfile.constant(0.0, 1.0)
        nested = NestedProfile([(10.0, inner), (10.0, 0.5)])
        timeline = timeline_from_intensity(nested.to_hazard(0.1))
        # Only the second segment generates events.
        assert timeline.event_count >= 1
        assert all(e.time > 10.0 for e in timeline.events)

    def test_nested_profile_segments_accessor(self):
        inner = PiecewiseProfile.constant(1.0, 1.0)
        nested = NestedProfile([(2.0, inner)])
        assert len(nested.segments) == 1

    def test_system_merge_rejects_mismatched_nested(self):
        a = NestedProfile([(2.0, 1.0), (2.0, 0.0)])
        b = NestedProfile([(1.0, 1.0), (3.0, 0.0)])
        system = SystemModel(
            [Component("a", 1.0, a), Component("b", 1.0, b)]
        )
        with pytest.raises(ConfigurationError):
            system.combined_intensity()


class TestProfileEdgeCases:
    def test_dilation_validation(self):
        profile = busy_idle_profile(1.0, 2.0)
        from repro.errors import ProfileError

        with pytest.raises(ProfileError):
            profile.dilated(0.0)
        with pytest.raises(ProfileError):
            profile.dilated(-2.0)

    def test_value_at_rejects_out_of_range_nested(self):
        from repro.errors import ProfileError

        nested = NestedProfile([(2.0, 0.5)])
        with pytest.raises(ProfileError):
            nested.value_at(2.0)

    def test_busy_idle_profile_full_period_hazard(self):
        profile = busy_idle_profile(2.0, 2.0)
        hazard = profile.to_hazard(3.0)
        assert hazard.mass == pytest.approx(6.0)
