"""Tests for the Monte-Carlo loop-phase conventions."""

import math

import numpy as np
import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    sample_component_ttf,
)
from repro.core.montecarlo import arrival_system_ttf
from repro.errors import EstimationError
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def hot_component(day_profile):
    # Large hazard mass: phase convention matters a lot here.
    return Component("c", 10.0 / SECONDS_PER_DAY, day_profile)


class TestPhaseConfig:
    def test_unknown_phase_rejected(self):
        with pytest.raises(EstimationError):
            MonteCarloConfig(start_phase="noon")

    def test_default_is_zero(self):
        assert MonteCarloConfig().start_phase == "zero"


class TestRandomPhaseInverse:
    def test_differs_from_zero_at_large_mass(self, hot_component):
        zero = sample_component_ttf(
            hot_component, MonteCarloConfig(trials=40_000, seed=1)
        )
        random_phase = sample_component_ttf(
            hot_component,
            MonteCarloConfig(trials=40_000, seed=1, start_phase="random"),
        )
        # Zero phase fails inside the first busy window; random phase
        # waits through the idle night half the time.
        assert random_phase.mean() > 2 * zero.mean()

    def test_agrees_with_zero_at_small_mass(self, day_profile):
        comp = Component("c", 1e-10, day_profile)
        zero = sample_component_ttf(
            comp, MonteCarloConfig(trials=50_000, seed=2)
        )
        random_phase = sample_component_ttf(
            comp,
            MonteCarloConfig(trials=50_000, seed=3, start_phase="random"),
        )
        pooled = math.hypot(
            zero.std(ddof=1) / math.sqrt(zero.size),
            random_phase.std(ddof=1) / math.sqrt(random_phase.size),
        )
        assert abs(zero.mean() - random_phase.mean()) < 5 * pooled

    def test_random_phase_mean_matches_theory(self, hot_component):
        # Exact expectation over a uniform start phase u:
        #   E = (1/L) ∫_0^L e^{Λ(u)} [ I(u) + q·I0/(1-q) ] du
        # with I(u) = ∫_u^L e^{-Λ}, I0 = I(0), q = e^{-Λ(L)}; evaluated
        # here by fine quadrature over the hazard machinery.
        samples = sample_component_ttf(
            hot_component,
            MonteCarloConfig(trials=120_000, seed=4, start_phase="random"),
        )
        intensity = hot_component.intensity
        period = intensity.period
        grid = np.linspace(0.0, period, 200_001)
        lam = np.asarray(intensity.cumulative(grid))
        survival = np.exp(-lam)
        i_total = np.trapezoid(survival, grid)
        # I(u) via reversed cumulative trapezoid.
        step_areas = 0.5 * (survival[1:] + survival[:-1]) * np.diff(grid)
        i_from_u = np.concatenate(
            (np.cumsum(step_areas[::-1])[::-1], [0.0])
        )
        q = math.exp(-intensity.mass)
        e_u = np.exp(lam) * (i_from_u + q * i_total / (1 - q))
        expected = np.trapezoid(e_u, grid) / period
        assert samples.mean() == pytest.approx(expected, rel=0.02)


class TestRandomPhaseArrival:
    def test_arrival_matches_inverse_random_phase(self, hot_component):
        inverse = sample_component_ttf(
            hot_component,
            MonteCarloConfig(trials=30_000, seed=5, start_phase="random"),
        )
        arrival = arrival_system_ttf(
            hot_component.alone(),
            MonteCarloConfig(trials=30_000, seed=6, start_phase="random"),
        )
        pooled = math.hypot(
            inverse.std(ddof=1) / math.sqrt(inverse.size),
            arrival.std(ddof=1) / math.sqrt(arrival.size),
        )
        assert abs(inverse.mean() - arrival.mean()) < 5 * pooled

    def test_system_shares_offsets(self, day_profile):
        # A two-component system must behave like one component with the
        # doubled rate (same workload, shared phase).
        rate = 5.0 / SECONDS_PER_DAY
        system = SystemModel(
            [Component("c", rate, day_profile, multiplicity=2)]
        )
        doubled = Component("d", 2 * rate, day_profile)
        sys_samples = arrival_system_ttf(
            system,
            MonteCarloConfig(trials=30_000, seed=7, start_phase="random"),
        )
        comp_samples = arrival_system_ttf(
            doubled.alone(),
            MonteCarloConfig(trials=30_000, seed=8, start_phase="random"),
        )
        pooled = math.hypot(
            sys_samples.std(ddof=1) / math.sqrt(sys_samples.size),
            comp_samples.std(ddof=1) / math.sqrt(comp_samples.size),
        )
        assert abs(sys_samples.mean() - comp_samples.mean()) < 5 * pooled
