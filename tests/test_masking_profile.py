"""Tests for vulnerability profiles (repro.masking.profile)."""

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.masking import (
    NestedProfile,
    PiecewiseProfile,
    busy_idle_profile,
    from_cycle_mask,
)


class TestPiecewiseProfile:
    def test_avf_is_time_average(self):
        p = PiecewiseProfile.from_segments([(2.0, 1.0), (6.0, 0.0)])
        assert p.avf == pytest.approx(0.25)

    def test_fractional_values(self):
        p = PiecewiseProfile.from_segments([(1.0, 0.5), (1.0, 0.25)])
        assert p.avf == pytest.approx(0.375)

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ProfileError):
            PiecewiseProfile([0.0, 1.0], [1.5])
        with pytest.raises(ProfileError):
            PiecewiseProfile([0.0, 1.0], [-0.1])

    def test_value_at(self):
        p = PiecewiseProfile.from_segments([(2.0, 0.8), (2.0, 0.1)])
        assert float(p.value_at(1.0)) == pytest.approx(0.8)
        assert float(p.value_at(3.0)) == pytest.approx(0.1)

    def test_to_hazard_scales_by_rate(self):
        p = PiecewiseProfile.from_segments([(1.0, 1.0), (3.0, 0.0)])
        h = p.to_hazard(2.5)
        assert h.mass == pytest.approx(2.5)

    def test_to_hazard_rejects_negative_rate(self):
        p = PiecewiseProfile.constant(1.0, 1.0)
        with pytest.raises(ProfileError):
            p.to_hazard(-1.0)

    def test_constant_profile(self):
        p = PiecewiseProfile.constant(0.6, 10.0)
        assert p.avf == pytest.approx(0.6)
        assert p.period == pytest.approx(10.0)

    def test_tiled_preserves_avf(self):
        p = PiecewiseProfile.from_segments([(1.0, 1.0), (1.0, 0.0)])
        t = p.tiled(5)
        assert t.period == pytest.approx(5 * p.period)
        assert t.avf == pytest.approx(p.avf)


class TestBusyIdle:
    def test_avf_is_busy_fraction(self):
        p = busy_idle_profile(3.0, 12.0)
        assert p.avf == pytest.approx(0.25)

    def test_fully_busy_collapses_to_constant(self):
        p = busy_idle_profile(5.0, 5.0)
        assert p.avf == pytest.approx(1.0)
        assert p.segment_count == 1

    def test_busy_value_scaling(self):
        p = busy_idle_profile(2.0, 4.0, busy_value=0.5)
        assert p.avf == pytest.approx(0.25)

    def test_rejects_zero_busy(self):
        with pytest.raises(ProfileError):
            busy_idle_profile(0.0, 5.0)

    def test_rejects_busy_exceeding_period(self):
        with pytest.raises(ProfileError):
            busy_idle_profile(6.0, 5.0)


class TestFromCycleMask:
    def test_boolean_mask_rle(self):
        mask = np.array([1, 1, 0, 0, 0, 1], dtype=bool)
        p = from_cycle_mask(mask, 0.5)
        assert p.period == pytest.approx(3.0)
        assert p.avf == pytest.approx(0.5)
        assert p.segment_count == 3

    def test_fractional_mask(self):
        mask = np.array([0.5, 0.5, 1.0])
        p = from_cycle_mask(mask, 1.0)
        assert p.avf == pytest.approx(2.0 / 3.0)

    def test_all_equal_mask_single_segment(self):
        p = from_cycle_mask(np.ones(1000), 1e-9)
        assert p.segment_count == 1

    def test_compression_round_trip(self):
        rng = np.random.default_rng(7)
        mask = rng.random(500) < 0.3
        p = from_cycle_mask(mask, 1.0)
        cycles = np.arange(500) + 0.5
        np.testing.assert_allclose(p.value_at(cycles), mask.astype(float))

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            from_cycle_mask(np.array([]), 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ProfileError):
            from_cycle_mask(np.array([2.0]), 1.0)

    def test_rejects_bad_cycle_time(self):
        with pytest.raises(ProfileError):
            from_cycle_mask(np.ones(3), 0.0)


class TestNestedProfile:
    def test_avf_mixes_segments(self):
        inner = PiecewiseProfile.from_segments([(1.0, 1.0), (1.0, 0.0)])
        nested = NestedProfile([(10.0, inner), (10.0, 0.0)])
        assert nested.avf == pytest.approx(0.25)

    def test_period_is_sum_of_durations(self):
        nested = NestedProfile([(3.0, 1.0), (7.0, 0.5)])
        assert nested.period == pytest.approx(10.0)

    def test_value_at_resolves_inner_cycles(self):
        inner = PiecewiseProfile.from_segments([(1.0, 1.0), (1.0, 0.0)])
        nested = NestedProfile([(10.0, inner), (5.0, 0.25)])
        # Third repetition of the inner profile, busy half.
        assert float(nested.value_at(4.5)) == pytest.approx(1.0)
        assert float(nested.value_at(5.5)) == pytest.approx(0.0)
        assert float(nested.value_at(12.0)) == pytest.approx(0.25)

    def test_value_at_vectorised(self):
        nested = NestedProfile([(2.0, 1.0), (2.0, 0.0)])
        np.testing.assert_allclose(
            nested.value_at(np.array([1.0, 3.0])), [1.0, 0.0]
        )

    def test_to_hazard_mass(self):
        inner = PiecewiseProfile.from_segments([(1.0, 1.0), (1.0, 0.0)])
        nested = NestedProfile([(10.0, inner)])
        h = nested.to_hazard(0.2)
        assert h.mass == pytest.approx(0.2 * 5.0)

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            NestedProfile([])

    def test_rejects_bad_duration(self):
        with pytest.raises(ProfileError):
            NestedProfile([(-1.0, 0.5)])

    def test_constant_segment_from_float(self):
        nested = NestedProfile([(4.0, 0.75)])
        assert nested.avf == pytest.approx(0.75)
