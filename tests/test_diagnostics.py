"""Tests for exponentiality diagnostics."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.reliability import (
    coefficient_of_variation,
    exponentiality_report,
    ks_statistic_exponential,
)


class TestCoV:
    def test_exponential_sample_cov_near_one(self, rng):
        samples = rng.exponential(scale=3.0, size=100_000)
        assert coefficient_of_variation(samples) == pytest.approx(1.0, abs=0.02)

    def test_deterministic_sample_cov_zero(self):
        samples = np.full(100, 2.5)
        assert coefficient_of_variation(samples) == pytest.approx(0.0)

    def test_needs_two_samples(self):
        with pytest.raises(EstimationError):
            coefficient_of_variation(np.array([1.0]))

    def test_rejects_zero_mean(self):
        with pytest.raises(EstimationError):
            coefficient_of_variation(np.zeros(10))


class TestKs:
    def test_exponential_sample_small_distance(self, rng):
        samples = rng.exponential(scale=2.0, size=50_000)
        assert ks_statistic_exponential(samples) < 0.01

    def test_uniform_sample_large_distance(self, rng):
        samples = rng.uniform(0.9, 1.1, size=50_000)
        assert ks_statistic_exponential(samples) > 0.3

    def test_rejects_negative(self):
        with pytest.raises(EstimationError):
            ks_statistic_exponential(np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("n", [2, 3, 1_000, 100_003])
    @pytest.mark.parametrize("shape", ["exponential", "uniform", "gamma"])
    def test_bits_match_the_direct_expression(self, rng, n, shape):
        args = (0.3,) if shape == "gamma" else ()
        samples = getattr(rng, shape)(*args, size=n) * 1e4
        # The direct form the in-place evaluation replaced.
        ordered = np.sort(samples)
        cdf = -np.expm1(-ordered / ordered.mean())
        expected = np.max(
            np.maximum(
                np.abs(np.arange(1, n + 1) / n - cdf),
                np.abs(cdf - np.arange(0, n) / n),
            )
        )
        assert ks_statistic_exponential(samples) == float(expected)


class TestReport:
    def test_exponential_looks_exponential(self, rng):
        samples = rng.exponential(scale=1.0, size=20_000)
        report = exponentiality_report(samples)
        assert report.looks_exponential
        assert report.sample_size == 20_000

    def test_bursty_ttf_flagged(self, rng):
        # A mixture of very short and very long failure times — the
        # signature of long-phase masking — is not exponential.
        short = rng.exponential(0.05, size=10_000)
        long = 100.0 + rng.exponential(0.05, size=10_000)
        report = exponentiality_report(np.concatenate([short, long]))
        assert not report.looks_exponential

    def test_infinities_dropped(self, rng):
        samples = np.concatenate(
            [rng.exponential(1.0, size=5_000), [np.inf, np.inf]]
        )
        report = exponentiality_report(samples)
        assert report.sample_size == 5_000

    def test_needs_finite_samples(self):
        with pytest.raises(EstimationError):
            exponentiality_report(np.array([np.inf, np.inf]))
