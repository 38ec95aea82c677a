"""Tests for profile composition (repro.masking.compose)."""

import numpy as np
import pytest

from repro.errors import ProfileError
from repro.masking import PiecewiseProfile, or_combine
from repro.masking.compose import weighted_average_profile


class TestOrCombine:
    def test_binary_or(self):
        a = PiecewiseProfile.from_segments([(1.0, 1.0), (3.0, 0.0)])
        b = PiecewiseProfile.from_segments([(2.0, 0.0), (2.0, 1.0)])
        c = or_combine([a, b])
        np.testing.assert_allclose(
            c.value_at(np.array([0.5, 1.5, 2.5, 3.5])), [1.0, 0.0, 1.0, 1.0]
        )

    def test_fractional_or(self):
        a = PiecewiseProfile.constant(0.5, 4.0)
        b = PiecewiseProfile.constant(0.5, 4.0)
        c = or_combine([a, b])
        assert c.avf == pytest.approx(0.75)

    def test_result_bounds(self):
        a = PiecewiseProfile.from_segments([(1.0, 0.3), (1.0, 0.9)])
        b = PiecewiseProfile.from_segments([(0.5, 0.8), (1.5, 0.1)])
        c = or_combine([a, b])
        mids = np.array([0.25, 0.75, 1.25, 1.75])
        va, vb, vc = a.value_at(mids), b.value_at(mids), c.value_at(mids)
        assert np.all(vc >= np.maximum(va, vb) - 1e-12)
        assert np.all(vc <= 1.0 + 1e-12)

    def test_single_profile_identity(self):
        a = PiecewiseProfile.from_segments([(1.0, 0.4), (1.0, 0.0)])
        c = or_combine([a])
        assert c.avf == pytest.approx(a.avf)

    def test_rejects_period_mismatch(self):
        a = PiecewiseProfile.constant(1.0, 1.0)
        b = PiecewiseProfile.constant(1.0, 2.0)
        with pytest.raises(ProfileError):
            or_combine([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            or_combine([])


class TestWeightedAverage:
    def test_register_file_banks(self):
        int_bank = PiecewiseProfile.constant(1.0, 2.0)
        fp_bank = PiecewiseProfile.constant(0.0, 2.0)
        avg = weighted_average_profile([int_bank, fp_bank], [80, 176])
        assert avg.avf == pytest.approx(80 / 256)

    def test_weights_normalised(self):
        a = PiecewiseProfile.constant(1.0, 1.0)
        b = PiecewiseProfile.constant(0.5, 1.0)
        avg1 = weighted_average_profile([a, b], [1, 1])
        avg2 = weighted_average_profile([a, b], [10, 10])
        assert avg1.avf == pytest.approx(avg2.avf)

    def test_rejects_bad_weights(self):
        a = PiecewiseProfile.constant(1.0, 1.0)
        with pytest.raises(ProfileError):
            weighted_average_profile([a], [-1.0])
        with pytest.raises(ProfileError):
            weighted_average_profile([a], [0.0])

    def test_rejects_length_mismatch(self):
        a = PiecewiseProfile.constant(1.0, 1.0)
        with pytest.raises(ProfileError):
            weighted_average_profile([a], [1.0, 2.0])
