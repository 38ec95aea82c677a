"""Tests for the uncore/ECC-aware estimator (Cho et al.-style)."""

import pytest

from repro.core import Component, SystemModel
from repro.methods import available, get
from repro.methods.uncore import (
    PROTECTION_CLASSES,
    EccProtection,
    protection_for,
    uncore_partition,
)
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def mixed_system(day_profile):
    rate = 2.0 / SECONDS_PER_DAY
    return SystemModel(
        [
            Component("l2_cache", 10 * rate, day_profile),
            Component("issue_queue", 4 * rate, day_profile),
            Component("alu", rate, day_profile),
        ]
    )


class TestRegistration:
    def test_registered_and_discoverable(self):
        assert "uncore_ecc" in available()
        assert not get("uncore_ecc").is_stochastic

    def test_label_on_estimates(self, mixed_system):
        assert get("uncore_ecc").estimate(mixed_system).method == (
            "uncore_ecc"
        )


class TestClassification:
    def test_keyword_classes(self):
        assert protection_for("l2_cache") is PROTECTION_CLASSES["ecc"]
        assert protection_for("register_file") is (
            PROTECTION_CLASSES["ecc"]
        )
        assert protection_for("issue_queue") is (
            PROTECTION_CLASSES["parity"]
        )
        assert protection_for("alu") is PROTECTION_CLASSES["none"]

    def test_ecc_wins_over_parity_keywords(self):
        assert protection_for("store_buffer_cache") is (
            PROTECTION_CLASSES["ecc"]
        )

    def test_partition_fractions_validated(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            EccProtection("bad", corrected=0.8, detected=0.3)
        with pytest.raises(ValueError, match="corrected"):
            EccProtection("bad", corrected=-0.1, detected=0.0)


class TestPartition:
    def test_rates_split_conservatively(self, mixed_system):
        for part in uncore_partition(mixed_system):
            total = (
                part.corrected_rate + part.flush_rate + part.sdc_rate
            )
            assert total == pytest.approx(part.raw_rate_per_second)
            assert part.sdc_rate > 0

    def test_protection_only_raises_mttf(self, mixed_system):
        protected = get("uncore_ecc").estimate(mixed_system)
        bare = get("first_principles").estimate(mixed_system)
        assert protected.mttf_seconds > bare.mttf_seconds

    def test_unprotected_system_matches_first_principles(
        self, day_profile
    ):
        system = SystemModel(
            [Component("alu", 2.0 / SECONDS_PER_DAY, day_profile)]
        )
        protected = get("uncore_ecc").estimate(system)
        bare = get("first_principles").estimate(system)
        assert protected.mttf_seconds == bare.mttf_seconds


class TestEngineIntegration:
    def test_usable_from_evaluate_design_space(self, mixed_system):
        from repro.methods import evaluate_design_space

        result = evaluate_design_space(
            [("uncore", mixed_system)],
            methods=["uncore_ecc", "avf_sofr"],
            reference="exact",
        )
        comparison = result[0]
        assert "uncore_ecc" in comparison.estimates
        # ECC-protected MTTF must exceed the unprotected reference.
        assert comparison.error("uncore_ecc") > 0
