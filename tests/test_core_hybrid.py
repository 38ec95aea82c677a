"""Tests for the hybrid method selector (repro.core.hybrid)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Component,
    SystemModel,
    avf_sofr_mttf,
    first_principles_mttf,
    hybrid_regime,
    hybrid_system_mttf,
)
from repro.core.validity import SAFE_MASS_THRESHOLD, Regime
from repro.masking import PiecewiseProfile, busy_idle_profile
from repro.methods import MethodConfig, get
from repro.units import SECONDS_PER_DAY
from repro.workloads import combined_workload


def day_component(mass: float, multiplicity: int = 1) -> Component:
    profile = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    rate = mass / profile.vulnerable_time
    return Component("node", rate, profile, multiplicity=multiplicity)


class TestSystemSelection:
    def test_safe_system_uses_sofr(self):
        system = SystemModel([day_component(1e-7, multiplicity=4)])
        result = hybrid_system_mttf(system)
        assert hybrid_regime(system) is Regime.SAFE
        assert result.method == "hybrid[avf+sofr]"
        assert result.mttf_seconds == avf_sofr_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        assert result.mttf_seconds == pytest.approx(exact, rel=1e-5)

    def test_cluster_escalates_to_exact(self):
        # Per-component mass tiny, but C drives the system mass up: the
        # hybrid must refuse SOFR and return the exact value.
        system = SystemModel([day_component(1e-4, multiplicity=50_000)])
        result = hybrid_system_mttf(system)
        assert hybrid_regime(system) is not Regime.SAFE
        assert result.method == "hybrid[first_principles]"
        assert result.mttf_seconds == (
            first_principles_mttf(system).mttf_seconds
        )

    def test_hybrid_always_close_to_exact(self):
        # The selling point: across regimes, the hybrid stays within a
        # small tolerance of first principles while AVF+SOFR does not.
        for mass, mult in ((1e-6, 2), (0.03, 10), (2.0, 1000)):
            system = SystemModel([day_component(mass, multiplicity=mult)])
            exact = first_principles_mttf(system).mttf_seconds
            hybrid = hybrid_system_mttf(system).mttf_seconds
            assert abs(hybrid - exact) / exact < 5e-3
        # ... whereas plain AVF+SOFR is off by >30% at the last point.
        system = SystemModel([day_component(2.0, multiplicity=1000)])
        plain = avf_sofr_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        assert abs(plain - exact) / exact > 0.3


#: The loop every generated profile shares, so the systems superpose.
PERIOD = 10.0


@st.composite
def loop_profiles(draw):
    """A piecewise profile of 1-4 segments over :data:`PERIOD`, with
    some vulnerability somewhere in the loop."""
    cuts = draw(
        st.lists(
            st.floats(0.01, PERIOD - 0.01), max_size=3, unique=True
        )
    )
    breakpoints = [0.0, *sorted(cuts), PERIOD]
    values = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
            min_size=len(breakpoints) - 1,
            max_size=len(breakpoints) - 1,
        )
    )
    if not any(values):
        values[-1] = 1.0
    return PiecewiseProfile(breakpoints, values)


@st.composite
def straddling_systems(draw):
    """1-3 components of up to 1e5 instances each, whose system hazard
    mass per iteration falls between 1e-6 and 1, on both sides of
    :data:`SAFE_MASS_THRESHOLD`."""
    n = draw(st.integers(1, 3))
    target = 10.0 ** draw(st.floats(-6.0, 0.0))
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    )
    components = []
    for i, weight in enumerate(weights):
        profile = draw(loop_profiles())
        count = draw(st.integers(1, 100_000))
        mass = target * weight / sum(weights) / count
        rate = mass / profile.vulnerable_time
        components.append(Component(f"c{i}", rate, profile, count))
    return SystemModel(components)


def _bits(x: float) -> str:
    return float(x).hex()


def assert_hybrid_bits(system: SystemModel) -> None:
    """Below the safe system mass, ``hybrid`` has ``avf_sofr``'s bits;
    elsewhere ``first_principles``'; directly and through the registry."""
    mass = sum(c.multiplicity * c.intensity.mass for c in system.components)
    if mass < SAFE_MASS_THRESHOLD:
        expected, label = avf_sofr_mttf(system), "hybrid[avf+sofr]"
        assert hybrid_regime(system) is Regime.SAFE
    else:
        expected, label = first_principles_mttf(system), (
            "hybrid[first_principles]"
        )
        assert hybrid_regime(system) is not Regime.SAFE
    for estimate in (
        hybrid_system_mttf(system),
        get("hybrid").estimate(system, MethodConfig()),
    ):
        assert estimate.method == label
        assert _bits(estimate.mttf_seconds) == _bits(expected.mttf_seconds)
        assert (estimate.std_error_seconds, estimate.trials) == (0.0, 0)


class TestHybridBits:
    @given(straddling_systems())
    @settings(max_examples=80, deadline=None)
    def test_one_branch_on_the_system_mass(self, system):
        assert_hybrid_bits(system)

    @pytest.mark.parametrize(
        "mass, count",
        [(1e-6, 1), (5e-4, 1_000), (2e-3, 1_000), (0.5, 100_000)],
    )
    def test_nested_combined_system(self, mass, count):
        workload = combined_workload(
            PiecewiseProfile([0.0, 1.0, 3.0], [1.0, 0.2]),
            PiecewiseProfile([0.0, 2.0, 5.0], [0.0, 0.7]),
        )
        rate = mass / count / workload.vulnerable_time
        system = SystemModel([Component("node", rate, workload, count)])
        assert_hybrid_bits(system)
