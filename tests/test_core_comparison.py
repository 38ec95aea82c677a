"""Tests for the method-comparison apparatus (repro.core.comparison)."""

import pytest

from repro import analyze
from repro.core import Component, MonteCarloConfig, SystemModel
from repro.reliability.metrics import relative_error, signed_relative_error
from repro.errors import ConfigurationError, EstimationError
from repro.units import SECONDS_PER_DAY


def comparison_of(
    system, label="", mc_config=None, reference="monte_carlo",
    include_softarch=False,
):
    """AVF+SOFR, SOFR-only and the closed form against ``reference``,
    through ``repro.analyze``."""
    methods = ["avf_sofr", "sofr_only", "first_principles"]
    if include_softarch:
        methods.append("softarch")
    return (
        analyze(system, label=label)
        .using(*methods)
        .against(reference)
        .with_mc(mc_config)
        .run()[0]
    )


@pytest.fixture
def small_system(day_profile):
    return SystemModel(
        [Component("node", 1e-7 / SECONDS_PER_DAY, day_profile)]
    )


@pytest.fixture
def stressed_system(day_profile):
    return SystemModel(
        [
            Component(
                "node",
                2.0 / SECONDS_PER_DAY,
                day_profile,
                multiplicity=100,
            )
        ]
    )


class TestCompareMethods:
    """One system's method comparison, built by ``repro.analyze``."""

    def test_exact_reference_safe_regime(self, small_system):
        comparison = comparison_of(
            small_system,
            label="safe",
            reference="exact",
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
        )
        assert comparison.abs_error("avf_sofr") < 1e-6
        assert comparison.abs_error("sofr_only") < 1e-6
        assert comparison.abs_error("first_principles") == 0.0

    def test_stressed_regime_flags_avf_sofr(self, stressed_system):
        comparison = comparison_of(
            stressed_system,
            reference="exact",
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
        )
        assert comparison.abs_error("avf_sofr") > 0.2

    def test_softarch_included_on_request(self, small_system):
        comparison = comparison_of(
            small_system,
            reference="exact",
            include_softarch=True,
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
        )
        assert "softarch" in comparison.method_names
        assert comparison.abs_error("softarch") < 1e-6

    def test_monte_carlo_reference(self, small_system):
        comparison = comparison_of(
            small_system,
            reference="monte_carlo",
            mc_config=MonteCarloConfig(trials=30_000, seed=2),
        )
        # MC noise only: both methods within ~1%.
        assert comparison.abs_error("avf_sofr") < 0.02

    def test_unknown_reference_rejected(self, small_system):
        with pytest.raises(ConfigurationError):
            comparison_of(small_system, reference="oracle")

    def test_error_signs_exposed(self, stressed_system):
        comparison = comparison_of(
            stressed_system,
            reference="exact",
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
        )
        # Front-loaded day workload: AVF+SOFR overestimates (positive).
        assert comparison.error("avf_sofr") > 0


class TestErrorMetrics:
    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(90.0, 100.0) == pytest.approx(0.1)

    def test_signed_relative_error(self):
        assert signed_relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert signed_relative_error(90.0, 100.0) == pytest.approx(-0.1)

    def test_reference_validation(self):
        with pytest.raises(EstimationError):
            relative_error(1.0, 0.0)
        with pytest.raises(EstimationError):
            signed_relative_error(1.0, float("inf"))
