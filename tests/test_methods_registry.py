"""Tests for the estimator registry (repro.methods)."""

import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    avf_sofr_mttf,
    first_principles_mttf,
    monte_carlo_mttf,
)
from repro.core.hybrid import hybrid_system_mttf
from repro.errors import ConfigurationError
from repro.methods import (
    MethodConfig,
    available,
    evaluate_design_space,
    get,
    register_method,
    unregister,
)
from repro.reliability.metrics import MTTFEstimate
from repro.units import SECONDS_PER_DAY

#: The paper's five methods plus the hybrid extension — the acceptance
#: surface of the registry.
EXPECTED_METHODS = (
    "avf",
    "avf_sofr",
    "sofr_only",
    "monte_carlo",
    "first_principles",
    "softarch",
    "hybrid",
)


@pytest.fixture
def system(day_profile):
    return SystemModel(
        [Component("node", 0.5 / SECONDS_PER_DAY, day_profile)]
    )


class TestRegistry:
    def test_all_paper_methods_registered(self):
        for name in EXPECTED_METHODS:
            estimator = get(name)
            assert estimator.name == name

    def test_every_method_estimates(self, system):
        config = MethodConfig(mc=MonteCarloConfig(trials=2_000, seed=1))
        for name in EXPECTED_METHODS:
            estimate = get(name).estimate(system, config)
            assert isinstance(estimate, MTTFEstimate)
            assert estimate.mttf_seconds > 0

    def test_unknown_method_hints_available_names(self):
        with pytest.raises(ConfigurationError, match="avf_sofr"):
            get("no_such_method")

    def test_exact_alias(self):
        assert get("exact").name == "first_principles"

    def test_duplicate_registration_raises(self):
        @register_method("temp_method")
        def temp_method(system, config):
            return MTTFEstimate(mttf_seconds=1.0, method="temp")

        try:
            with pytest.raises(ConfigurationError, match="duplicate"):

                @register_method("temp_method")
                def temp_method_again(system, config):
                    return MTTFEstimate(mttf_seconds=1.0, method="temp")

        finally:
            unregister("temp_method")
        assert "temp_method" not in available()

    def test_registered_method_usable_from_facade(self, system):
        from repro import analyze

        @register_method("constant_year")
        def constant_year(system, config):
            return MTTFEstimate(
                mttf_seconds=365.25 * 86400, method="constant_year"
            )

        try:
            result = (
                analyze(system)
                .using("constant_year")
                .against("exact")
                .run()
            )
            assert result[0].estimates["constant_year"].mttf_seconds == (
                365.25 * 86400
            )
        finally:
            unregister("constant_year")

    def test_capability_flags(self):
        assert get("monte_carlo").is_stochastic
        assert not get("first_principles").is_stochastic

    def test_avf_supports_only_single_instance(self, day_profile):
        single = SystemModel(
            [Component("a", 1e-6, day_profile)]
        )
        cluster = SystemModel(
            [Component("a", 1e-6, day_profile, multiplicity=4)]
        )
        assert get("avf").supports(single)
        assert not get("avf").supports(cluster)


class TestAdapterEquivalence:
    """Registry adapters must reproduce the seed free functions exactly."""

    def test_deterministic_methods(self, system):
        config = MethodConfig()
        assert get("avf_sofr").estimate(system, config).mttf_seconds == (
            avf_sofr_mttf(system).mttf_seconds
        )
        assert get(
            "first_principles"
        ).estimate(system, config).mttf_seconds == (
            first_principles_mttf(system).mttf_seconds
        )
        assert get("hybrid").estimate(system, config) == (
            hybrid_system_mttf(system)
        )

    def test_monte_carlo_same_seed_same_numbers(self, system):
        mc = MonteCarloConfig(trials=4_000, seed=11)
        via_registry = get("monte_carlo").estimate(
            system, MethodConfig(mc=mc)
        )
        direct = monte_carlo_mttf(system, mc)
        assert via_registry.mttf_seconds == direct.mttf_seconds
        assert via_registry.std_error_seconds == direct.std_error_seconds


class TestSofrOnlyReference:
    """The SOFR step takes each instance's MTTF from the run's reference
    method, as that method's estimate of the one-instance system."""

    def test_softarch_reference_feeds_softarch_instances(self, day_profile):
        # Against SoftArch, sofr_only used to be fed Monte-Carlo instance
        # MTTFs, so its error was the sampling noise of those draws. Fed
        # SoftArch's own instance estimates, the error is the SOFR step's
        # alone: the same at every trial count, and tiny at this hazard
        # mass (lambda * L ~ 1e-3).
        system = SystemModel(
            [
                Component("a", 1e-8, day_profile, multiplicity=4),
                Component("b", 3e-8, day_profile),
            ]
        )
        errors = [
            evaluate_design_space(
                [("mixed", system)],
                methods=["sofr_only"],
                reference="softarch",
                mc_config=MonteCarloConfig(trials=trials, seed=0),
            )[0].error("sofr_only")
            for trials in (2_000, 20_000)
        ]
        assert errors[0] == errors[1]
        assert abs(errors[0]) < 1e-3

    def test_refuses_itself_as_reference(self, system):
        with pytest.raises(ConfigurationError, match="from itself"):
            get("sofr_only").estimate(
                system, MethodConfig(reference="sofr_only")
            )
