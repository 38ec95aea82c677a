"""Tests for the SoftArch method (Section 5.4)."""

import math

import pytest

from repro.core import (
    Component,
    OutputEvent,
    SoftArchTimeline,
    SystemModel,
    exact_component_mttf,
    first_principles_mttf,
    softarch_component_mttf,
    softarch_mttf,
    timeline_from_intensity,
)
from repro.errors import EstimationError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile


class TestTimeline:
    def test_single_event_geometric(self):
        # One event with probability q at the end of each iteration of
        # length L: MTTF = t + L(1-q)/q with mean time t.
        q, period = 0.25, 10.0
        timeline = SoftArchTimeline(
            [OutputEvent(time=10.0, probability=q, mean_time=5.0)], period
        )
        assert timeline.mttf() == pytest.approx(5.0 + period * (1 - q) / q)
        assert timeline.iteration_failure_probability() == pytest.approx(q)

    def test_no_events_never_fails(self):
        timeline = SoftArchTimeline([], 5.0)
        assert math.isinf(timeline.mttf())
        q = timeline.iteration_failure_probability()
        assert q == 0.0
        assert math.copysign(1, q) == 1

    def test_certain_event(self):
        timeline = SoftArchTimeline(
            [OutputEvent(time=1.0, probability=1.0, mean_time=0.5)], 2.0
        )
        assert timeline.mttf() == pytest.approx(0.5)

    def test_event_ordering_enforced_by_sort(self):
        events = [
            OutputEvent(time=8.0, probability=0.5, mean_time=7.0),
            OutputEvent(time=2.0, probability=0.5, mean_time=1.0),
        ]
        timeline = SoftArchTimeline(events, 10.0)
        # First failure dominated by the earlier event.
        assert timeline.events[0].time == 2.0

    def test_rejects_event_outside_period(self):
        with pytest.raises(EstimationError):
            SoftArchTimeline(
                [OutputEvent(time=11.0, probability=0.5, mean_time=10.5)],
                10.0,
            )

    def test_rejects_bad_probability(self):
        with pytest.raises(EstimationError):
            OutputEvent(time=1.0, probability=1.5, mean_time=0.5)

    def test_rejects_mean_after_event(self):
        with pytest.raises(EstimationError):
            OutputEvent(time=1.0, probability=0.5, mean_time=2.0)


class TestAgainstExact:
    """Section 5.4: SoftArch matches Monte Carlo/first principles closely."""

    def test_busy_idle_component_exact(self):
        lam = 4e-5
        profile = busy_idle_profile(30_000.0, 86_400.0)
        sa = softarch_component_mttf(lam, profile)
        exact = exact_component_mttf(lam, profile)
        assert sa == pytest.approx(exact, rel=1e-9)

    def test_fractional_component_exact(self, fractional_profile):
        lam = 0.01
        sa = softarch_component_mttf(lam, fractional_profile)
        exact = exact_component_mttf(lam, fractional_profile)
        assert sa == pytest.approx(exact, rel=1e-9)

    def test_large_hazard_component(self):
        # Even at huge λL (accelerated test) SoftArch stays exact.
        lam = 1e-3
        profile = busy_idle_profile(43_200.0, 86_400.0)
        sa = softarch_component_mttf(lam, profile)
        exact = exact_component_mttf(lam, profile)
        assert sa == pytest.approx(exact, rel=1e-9)

    def test_system_with_multiplicity(self, day_profile):
        system = SystemModel(
            [Component("c", 1e-5, day_profile, multiplicity=5000)]
        )
        sa = softarch_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        assert sa == pytest.approx(exact, rel=1e-6)

    def test_heterogeneous_system(self, day_profile):
        other = PiecewiseProfile.from_segments(
            [(21_600.0, 0.2), (64_800.0, 0.9)]
        )
        system = SystemModel(
            [
                Component("a", 2e-5, day_profile),
                Component("b", 3e-5, other),
            ]
        )
        sa = softarch_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        assert sa == pytest.approx(exact, rel=1e-6)

    def test_nested_profile_with_aggregation(self):
        # Inner cycle repeated ~4e7 times: exercises block aggregation.
        inner = PiecewiseProfile.from_segments([(5e-4, 1.0), (5e-4, 0.0)])
        nested = NestedProfile([(43_200.0, inner), (43_200.0, 0.0)])
        lam = 1e-5
        sa = softarch_component_mttf(lam, nested)
        exact = exact_component_mttf(lam, nested)
        assert sa == pytest.approx(exact, rel=1e-6)

    def test_zero_rate_infinite(self, day_profile):
        assert math.isinf(softarch_component_mttf(0.0, day_profile))

    def test_rejects_negative_rate(self, day_profile):
        with pytest.raises(EstimationError):
            softarch_component_mttf(-1.0, day_profile)


class TestTimelineFromIntensity:
    def test_event_per_vulnerable_segment(self, day_profile):
        timeline = timeline_from_intensity(day_profile.to_hazard(1e-5))
        assert timeline.event_count == 1  # one busy segment per day

    def test_rejects_unknown_intensity_type(self):
        with pytest.raises(EstimationError):
            timeline_from_intensity(object())
