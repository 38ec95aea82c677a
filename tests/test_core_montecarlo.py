"""Tests for the Monte-Carlo samplers: the inverse sampler every
estimate runs, and the paper-literal arrival sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ARRIVAL_INSTANCE_LIMIT,
    Component,
    MonteCarloConfig,
    SystemModel,
    exact_component_mttf,
    first_principles_mttf,
    monte_carlo_component_mttf,
    monte_carlo_mttf,
    sample_component_ttf,
    sample_system_ttf,
)
from repro.core import montecarlo as mc
from repro.core.montecarlo import _estimate_from_samples, arrival_system_ttf
from repro.errors import EstimationError
from repro.masking import PiecewiseProfile, busy_idle_profile


class TestConfig:
    def test_rejects_bad_trials(self):
        with pytest.raises(EstimationError):
            MonteCarloConfig(trials=0)


class TestInverseSampler:
    def test_converges_to_exact(self, day_profile):
        lam = 3e-5
        comp = Component("c", lam, day_profile)
        exact = exact_component_mttf(lam, day_profile)
        est = monte_carlo_component_mttf(
            comp, MonteCarloConfig(trials=300_000, seed=11)
        )
        assert est.mttf_seconds == pytest.approx(exact, rel=0.01)
        # Deviations should be within ~4 standard errors.
        assert abs(est.mttf_seconds - exact) < 4.5 * est.std_error_seconds

    def test_deterministic_given_seed(self, day_profile):
        comp = Component("c", 1e-5, day_profile)
        cfg = MonteCarloConfig(trials=1000, seed=42)
        a = monte_carlo_component_mttf(comp, cfg).mttf_seconds
        b = monte_carlo_component_mttf(comp, cfg).mttf_seconds
        assert a == b

    def test_different_seeds_differ(self, day_profile):
        comp = Component("c", 1e-5, day_profile)
        a = monte_carlo_component_mttf(
            comp, MonteCarloConfig(trials=1000, seed=1)
        ).mttf_seconds
        b = monte_carlo_component_mttf(
            comp, MonteCarloConfig(trials=1000, seed=2)
        ).mttf_seconds
        assert a != b

    def test_system_converges(self, day_profile):
        system = SystemModel(
            [Component("c", 1e-5, day_profile, multiplicity=50)]
        )
        exact = first_principles_mttf(system).mttf_seconds
        est = monte_carlo_mttf(
            system, MonteCarloConfig(trials=200_000, seed=5)
        )
        assert est.mttf_seconds == pytest.approx(exact, rel=0.02)

    def test_large_cluster_supported(self, day_profile):
        # 500,000 components — the Table-2 maximum — must be tractable.
        system = SystemModel(
            [Component("c", 1e-9, day_profile, multiplicity=500_000)]
        )
        est = monte_carlo_mttf(system, MonteCarloConfig(trials=50_000, seed=3))
        exact = first_principles_mttf(system).mttf_seconds
        assert est.mttf_seconds == pytest.approx(exact, rel=0.03)

    def test_never_failing_component(self):
        comp = Component("c", 1e-6, PiecewiseProfile.constant(0.0, 10.0))
        est = monte_carlo_component_mttf(comp, MonteCarloConfig(trials=100))
        assert math.isinf(est.mttf_seconds)


class TestArrivalSampler:
    def test_agrees_with_inverse(self, day_profile):
        lam = 5e-5
        comp = Component("c", lam, day_profile)
        inv = sample_component_ttf(
            comp, MonteCarloConfig(trials=150_000, seed=7)
        )
        arr = arrival_system_ttf(
            comp.alone(), MonteCarloConfig(trials=150_000, seed=8)
        )
        assert arr.mean() == pytest.approx(inv.mean(), rel=0.02)
        # Distributional agreement, not just the mean: compare deciles.
        q = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(
            np.quantile(arr, q), np.quantile(inv, q), rtol=0.05
        )

    def test_fractional_masking(self, fractional_profile):
        # Register-file-style probabilistic masking.
        lam = 0.05
        comp = Component("rf", lam, fractional_profile)
        exact = exact_component_mttf(lam, fractional_profile)
        arr = arrival_system_ttf(
            comp.alone(), MonteCarloConfig(trials=100_000, seed=9)
        )
        assert arr.mean() == pytest.approx(exact, rel=0.02)

    def test_system_min_semantics(self, day_profile):
        system = SystemModel(
            [
                Component("a", 2e-5, day_profile),
                Component("b", 1e-5, day_profile, multiplicity=2),
            ]
        )
        exact = first_principles_mttf(system).mttf_seconds
        samples = arrival_system_ttf(
            system, MonteCarloConfig(trials=60_000, seed=10)
        )
        assert samples.mean() == pytest.approx(exact, rel=0.03)

    def test_instance_limit_enforced(self, day_profile):
        system = SystemModel(
            [
                Component(
                    "c",
                    1e-6,
                    day_profile,
                    multiplicity=ARRIVAL_INSTANCE_LIMIT + 1,
                )
            ]
        )
        with pytest.raises(EstimationError, match="instances"):
            arrival_system_ttf(system, MonteCarloConfig(trials=10))

    def test_never_vulnerable_rejected(self):
        # The paper's procedure would loop forever; we fail loudly.
        comp = Component("c", 1.0, PiecewiseProfile.constant(0.0, 1.0))
        with pytest.raises(EstimationError, match="AVF = 0"):
            arrival_system_ttf(comp.alone(), MonteCarloConfig(trials=10))

    def test_rounds_cap_triggers(self, monkeypatch):
        # AVF = 1e-4 with a tiny cap must hit the guard.
        profile = PiecewiseProfile.from_segments(
            [(1.0, 1.0), (9999.0, 0.0)]
        )
        comp = Component("c", 1.0, profile)
        monkeypatch.setattr(mc, "_arrival_rounds_cap", lambda component: 2)
        with pytest.raises(EstimationError, match="within 2 resampling"):
            arrival_system_ttf(comp.alone(), MonteCarloConfig(trials=1000))


class TestEstimates:
    def test_stderr_shrinks_with_trials(self, day_profile):
        comp = Component("c", 1e-5, day_profile)
        small = monte_carlo_component_mttf(
            comp, MonteCarloConfig(trials=1_000, seed=1)
        )
        large = monte_carlo_component_mttf(
            comp, MonteCarloConfig(trials=100_000, seed=1)
        )
        assert large.std_error_seconds < small.std_error_seconds

    def test_ci_contains_exact_usually(self, day_profile):
        lam = 1e-5
        comp = Component("c", lam, day_profile)
        exact = exact_component_mttf(lam, day_profile)
        hits = 0
        for seed in range(20):
            est = monte_carlo_component_mttf(
                comp, MonteCarloConfig(trials=20_000, seed=seed)
            )
            lo, hi = est.ci95()
            hits += lo <= exact <= hi
        assert hits >= 16  # 95% nominal; allow wide slack

    def test_trials_recorded(self, day_profile):
        comp = Component("c", 1e-5, day_profile)
        est = monte_carlo_component_mttf(comp, MonteCarloConfig(trials=123))
        assert est.trials == 123


class TestEstimateFromSamples:
    """One summation gives NumPy's ``mean()`` and ``std(ddof=1)`` bits."""

    @given(
        st.sampled_from([1, 2, 7, 32_767, 32_768, 32_769, 100_003]),
        st.integers(0, 2**32 - 1),
        st.floats(min_value=-6.0, max_value=12.0),
        st.sampled_from(["exponential", "uniform", "lognormal"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bits_match_numpy(self, n, seed, log_scale, shape):
        rng = np.random.default_rng(seed)
        samples = getattr(rng, shape)(size=n) * 10.0**log_scale
        samples += 10.0**log_scale * 1e-9  # strictly positive
        estimate = _estimate_from_samples(samples, "mc")
        assert estimate.mttf_seconds == float(samples.mean())
        expected = (
            float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        )
        assert estimate.std_error_seconds == expected
        assert estimate.trials == n

    def test_all_infinite_samples_never_fail(self):
        estimate = _estimate_from_samples(np.full(5, np.inf), "mc")
        assert math.isinf(estimate.mttf_seconds)
        assert estimate.trials == 5

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([1.0, np.inf, 2.0], "mixed finite/infinite"),
            ([np.inf, np.nan], "mixed finite/infinite"),
            ([1.0, np.nan, 2.0], "MTTF must be positive"),
            ([np.nan], "MTTF must be positive"),
        ],
        ids=["finite-and-inf", "inf-and-nan", "nan", "only-nan"],
    )
    def test_refusals(self, samples, message):
        with pytest.raises(EstimationError, match=message):
            _estimate_from_samples(np.asarray(samples), "mc")
