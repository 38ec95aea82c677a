"""Tests for the validity advisor."""

from repro.core import (
    Component,
    Regime,
    SystemModel,
    component_validity,
    validity_report,
)
from repro.masking import busy_idle_profile
from repro.units import SECONDS_PER_DAY


def day_component(rate: float, multiplicity: int = 1) -> Component:
    return Component(
        "proc",
        rate,
        busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY),
        multiplicity=multiplicity,
    )


class TestComponentValidity:
    def test_terrestrial_spec_is_safe(self):
        # ~1e-6 errors/year over a 1-day loop: mass ~3e-12.
        comp = day_component(1e-6 / (365 * 86400))
        result = component_validity(comp)
        assert result.regime is Regime.SAFE
        assert abs(result.avf_step_error) < 1e-6

    def test_accelerated_test_flagged(self):
        # Several raw errors per day: mass > 1.
        comp = day_component(5.0 / SECONDS_PER_DAY)
        result = component_validity(comp)
        assert result.regime is Regime.UNRELIABLE
        assert abs(result.avf_step_error) > 0.05

    def test_intermediate_regime(self):
        comp = day_component(0.02 / SECONDS_PER_DAY)
        assert component_validity(comp).regime is Regime.CAUTION


class TestValidityReport:
    def test_safe_system(self):
        system = SystemModel([day_component(1e-13, multiplicity=2)])
        report = validity_report(system)
        assert report.avf_regime is Regime.SAFE
        assert report.sofr_regime is Regime.SAFE
        assert report.overall_regime is Regime.SAFE
        assert any("validates" in n for n in report.notes)

    def test_cluster_flags_sofr(self):
        # Per-component mass tiny but C huge: SOFR at risk, AVF fine.
        system = SystemModel([day_component(2e-8, multiplicity=500_000)])
        report = validity_report(system)
        assert report.avf_regime is Regime.SAFE
        assert report.sofr_regime is not Regime.SAFE
        assert report.overall_regime is not Regime.SAFE

    def test_component_count_in_report(self):
        system = SystemModel([day_component(1e-12, multiplicity=42)])
        assert validity_report(system).component_count == 42

    def test_summary_mentions_components(self):
        system = SystemModel([day_component(1e-12)])
        text = validity_report(system).summary()
        assert "proc" in text
        assert "AVF step" in text
