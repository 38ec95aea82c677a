"""Tests for the AVF step, SOFR step, and first-principles methods."""

import math

import pytest

from repro.core import (
    Component,
    SystemModel,
    avf_mttf,
    avf_sofr_mttf,
    avf_step,
    exact_component_mttf,
    exact_system_process,
    first_principles_mttf,
    sofr_mttf_from_components,
    sofr_mttf_from_values,
)
from repro.errors import ConfigurationError, EstimationError
from repro.masking import NestedProfile, PiecewiseProfile, busy_idle_profile
from repro.analytical.busy_idle import busy_idle_mttf_closed_form


class TestAvfStep:
    def test_formula(self, day_profile):
        lam = 2e-6
        assert avf_mttf(lam, day_profile) == pytest.approx(
            1.0 / (lam * 0.5)
        )

    def test_never_vulnerable_is_infinite(self):
        p = PiecewiseProfile.constant(0.0, 10.0)
        assert math.isinf(avf_mttf(1.0, p))

    def test_zero_rate_is_infinite(self, day_profile):
        assert math.isinf(avf_mttf(0.0, day_profile))

    def test_rejects_negative_rate(self, day_profile):
        with pytest.raises(EstimationError):
            avf_mttf(-1.0, day_profile)

    def test_avf_step_estimate_labelled(self, day_profile):
        comp = Component("c", 1e-6, day_profile)
        est = avf_step(comp)
        assert est.method == "avf"


class TestFirstPrinciples:
    def test_matches_paper_closed_form(self):
        lam, busy, period = 0.4, 2.0, 9.0
        profile = busy_idle_profile(busy, period)
        assert exact_component_mttf(lam, profile) == pytest.approx(
            busy_idle_mttf_closed_form(lam, busy, period), rel=1e-12
        )

    def test_always_vulnerable_is_exponential(self):
        lam = 0.123
        profile = PiecewiseProfile.constant(1.0, 5.0)
        assert exact_component_mttf(lam, profile) == pytest.approx(1 / lam)

    def test_system_process_mass(self, day_profile):
        comp = Component("c", 1e-5, day_profile, multiplicity=100)
        system = SystemModel([comp])
        process = exact_system_process(system)
        assert process.mass_per_period == pytest.approx(
            100 * 1e-5 * day_profile.vulnerable_time
        )

    def test_system_mttf_scales_inversely_at_small_mass(self, day_profile):
        # In the SOFR-valid regime doubling C halves the MTTF.
        lam = 1e-9
        m1 = first_principles_mttf(
            SystemModel([Component("c", lam, day_profile, multiplicity=10)])
        ).mttf_seconds
        m2 = first_principles_mttf(
            SystemModel([Component("c", lam, day_profile, multiplicity=20)])
        ).mttf_seconds
        assert m1 / m2 == pytest.approx(2.0, rel=1e-3)

    def test_heterogeneous_components_merge(self, day_profile):
        night = PiecewiseProfile.from_segments(
            [(43200.0, 0.0), (43200.0, 1.0)]
        )
        system = SystemModel(
            [
                Component("day", 1e-6, day_profile),
                Component("night", 1e-6, night),
            ]
        )
        # Complementary busy windows: combined hazard is constant 1e-6.
        assert first_principles_mttf(system).mttf_seconds == pytest.approx(
            1e6, rel=1e-9
        )


class TestSofrStep:
    def test_values_with_multiplicity(self):
        est = sofr_mttf_from_values([100.0], [4])
        assert est.mttf_seconds == pytest.approx(25.0)

    def test_component_callback(self, day_profile):
        system = SystemModel(
            [Component("a", 1e-6, day_profile, multiplicity=2)]
        )
        est = sofr_mttf_from_components(system, lambda c: 50.0)
        assert est.mttf_seconds == pytest.approx(25.0)

    def test_avf_sofr_pipeline(self, day_profile):
        lam = 1e-6
        system = SystemModel(
            [
                Component("a", lam, day_profile),
                Component("b", lam, day_profile),
            ]
        )
        est = avf_sofr_mttf(system)
        expected = 1.0 / (2 * lam * 0.5)
        assert est.mttf_seconds == pytest.approx(expected)
        assert est.method == "avf+sofr"

    def test_avf_sofr_exact_in_valid_regime(self, day_profile):
        # λL → 0 and small C: AVF+SOFR must agree with first principles
        # (the paper's Section 5.1 situation).
        lam = 1e-12
        system = SystemModel(
            [Component("a", lam, day_profile, multiplicity=4)]
        )
        approx = avf_sofr_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        assert approx == pytest.approx(exact, rel=1e-4)

    def test_avf_sofr_breaks_at_large_mass(self, day_profile):
        # λL large: the discrepancy the paper warns about appears.
        lam = 2.0 / 86400.0  # two raw errors per day on average
        system = SystemModel(
            [Component("a", lam, day_profile, multiplicity=1000)]
        )
        approx = avf_sofr_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        assert abs(approx - exact) / exact > 0.10


class TestSystemModel:
    def test_component_count(self, day_profile):
        system = SystemModel(
            [
                Component("a", 1e-6, day_profile, multiplicity=3),
                Component("b", 1e-6, day_profile),
            ]
        )
        assert system.component_count == 4

    def test_rejects_duplicate_names(self, day_profile):
        with pytest.raises(ConfigurationError):
            SystemModel(
                [
                    Component("a", 1e-6, day_profile),
                    Component("a", 2e-6, day_profile),
                ]
            )

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SystemModel([])

    def test_rejects_negative_rate(self, day_profile):
        with pytest.raises(ConfigurationError):
            Component("a", -1e-6, day_profile)

    def test_rejects_zero_multiplicity(self, day_profile):
        with pytest.raises(ConfigurationError):
            Component("a", 1e-6, day_profile, multiplicity=0)

    def test_nested_systems_merge(self):
        inner = PiecewiseProfile.from_segments([(0.5, 1.0), (0.5, 0.0)])
        nested = NestedProfile([(100.0, inner), (100.0, 0.1)])
        system = SystemModel(
            [
                Component("a", 1e-4, nested),
                Component("b", 2e-4, nested),
            ]
        )
        combined = system.combined_intensity()
        assert combined.mass == pytest.approx(
            (1e-4 + 2e-4) * nested.vulnerable_time, rel=1e-9
        )

    def test_mixed_profile_types_rejected(self, day_profile):
        nested = NestedProfile([(86400.0, 0.5)])
        system = SystemModel(
            [
                Component("a", 1e-6, day_profile),
                Component("b", 1e-6, nested),
            ]
        )
        with pytest.raises(ConfigurationError):
            system.combined_intensity()
