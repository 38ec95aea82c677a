"""Series (first-failure) systems: the SOFR combination
(repro.reliability.series) and the exact series system, a
``SystemModel`` whose components' hazards superpose."""

import math

import pytest

from repro.core import Component, SystemModel, first_principles_mttf
from repro.errors import ConfigurationError
from repro.masking import PiecewiseProfile
from repro.reliability import sofr_mttf


def _mttf(system):
    return first_principles_mttf(system).mttf_seconds


def _component(name, rate, profile, multiplicity=1):
    return Component(name, rate, profile, multiplicity=multiplicity)


class TestSofrFormula:
    def test_two_identical_components(self):
        assert sofr_mttf([10.0, 10.0]) == pytest.approx(5.0)

    def test_heterogeneous(self):
        # rates 1/2 + 1/6 = 2/3 -> MTTF 1.5
        assert sofr_mttf([2.0, 6.0]) == pytest.approx(1.5)

    def test_infinite_components_ignored(self):
        assert sofr_mttf([math.inf, 4.0]) == pytest.approx(4.0)

    def test_all_infinite(self):
        assert math.isinf(sofr_mttf([math.inf, math.inf]))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            sofr_mttf([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            sofr_mttf([0.0])


class TestSeriesSystem:
    def test_exponential_components_sofr_exact(self):
        # For truly exponential components SOFR is exact: this is the
        # regime where the paper's Section 3.2.1 limit applies.
        lam1, lam2 = 0.3, 0.7
        always = PiecewiseProfile.constant(1.0, 2.0)
        system = SystemModel(
            [_component("a", lam1, always), _component("b", lam2, always)]
        )
        assert _mttf(system) == pytest.approx(1.0 / (lam1 + lam2), rel=1e-10)

    def test_multiplicity_equals_enumeration(self):
        profile = PiecewiseProfile([0.0, 1.0, 3.0], [1.0, 0.0])
        multi = SystemModel([_component("c", 0.5, profile, 4)])
        enumerated = SystemModel(
            [_component(f"c{i}", 0.5, profile) for i in range(4)]
        )
        assert _mttf(multi) == pytest.approx(_mttf(enumerated), rel=1e-10)

    def test_system_mttf_below_component_mttf(self):
        profile = PiecewiseProfile([0.0, 2.0, 4.0], [0.9, 0.1])
        single = _mttf(SystemModel([_component("c", 1.0, profile)]))
        system = _mttf(SystemModel([_component("c", 1.0, profile, 10)]))
        assert system < single

    def test_component_processes(self):
        # Each instance's own process: its one-instance system.
        always = PiecewiseProfile.constant(1.0, 1.0)
        system = SystemModel(
            [_component("a", 1.0, always), _component("b", 2.0, always, 3)]
        )
        a, b = (_mttf(c.alone()) for c in system.components)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(0.5)

    def test_component_count(self):
        always = PiecewiseProfile.constant(1.0, 1.0)
        system = SystemModel(
            [_component("a", 1.0, always, 3), _component("b", 1.0, always, 5)]
        )
        assert system.component_count == 8

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SystemModel([])

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ConfigurationError):
            _component("c", 1.0, PiecewiseProfile.constant(1.0, 1.0), 0)
