"""Tests for profile composition (repro.masking.compose)."""

import pytest

from repro.errors import ProfileError
from repro.masking import PiecewiseProfile
from repro.masking.compose import weighted_average_profile


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
