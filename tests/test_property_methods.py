"""Property-based tests for the MTTF methods and profile algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Component,
    SystemModel,
    avf_mttf,
    exact_component_mttf,
    first_principles_mttf,
    softarch_component_mttf,
    sofr_mttf_from_values,
)
from repro.masking import PiecewiseProfile
from repro.masking.compose import weighted_average_profile
from repro.reliability.series import sofr_mttf


@st.composite
def profiles(draw, max_segments=5):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    durations = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=20.0),
            min_size=n, max_size=n,
        )
    )
    # Exact zero keeps masked segments; the positive branch floors at
    # 1e-6 so subnormal vulnerabilities can't overflow reciprocals.
    values = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=1.0),
            ),
            min_size=n, max_size=n,
        )
    )
    return PiecewiseProfile.from_segments(list(zip(durations, values)))


rates = st.floats(min_value=1e-8, max_value=2.0)


class TestProfileAlgebra:
    @given(profiles())
    def test_avf_in_unit_interval(self, profile):
        assert 0.0 <= profile.avf <= 1.0

    @given(profiles(), st.floats(min_value=0.01, max_value=0.99))
    def test_weighted_average_between(self, profile, weight):
        zero = PiecewiseProfile(
            profile.breakpoints, np.zeros_like(profile.values)
        )
        avg = weighted_average_profile(
            [profile, zero], [weight, 1.0 - weight]
        )
        assert avg.avf == pytest.approx(profile.avf * weight, rel=1e-9,
                                        abs=1e-12)

    @given(profiles(), st.floats(min_value=0.1, max_value=100.0))
    def test_dilation_preserves_avf(self, profile, factor):
        assert profile.dilated(factor).avf == pytest.approx(
            profile.avf, rel=1e-9, abs=1e-12
        )


class TestMethodRelations:
    @given(profiles(), rates)
    def test_softarch_equals_exact(self, profile, rate):
        exact = exact_component_mttf(rate, profile)
        softarch = softarch_component_mttf(rate, profile)
        if np.isinf(exact):
            assert np.isinf(softarch)
        else:
            assert softarch == pytest.approx(exact, rel=1e-6)

    @given(profiles(), rates)
    def test_avf_exact_in_small_hazard_limit(self, profile, rate):
        # Skip degenerate profiles whose vulnerable time underflows: the
        # scaled rate would overflow to infinity (correctly rejected by
        # the library).
        if profile.avf == 0 or profile.vulnerable_time < 1e-100:
            return
        tiny_rate = 1e-9 / profile.vulnerable_time
        exact = exact_component_mttf(tiny_rate, profile)
        approx = avf_mttf(tiny_rate, profile)
        assert approx == pytest.approx(exact, rel=1e-6)

    @settings(max_examples=40)
    @given(profiles(), rates, st.integers(min_value=2, max_value=1000))
    def test_system_mttf_below_component(self, profile, rate, count):
        # Note: E[min] >= E[X]/C is NOT a valid bound for non-exponential
        # lifetimes — that near-miss is precisely the SOFR fallacy the
        # paper dissects. The valid invariants are domination by the
        # single component and monotonicity in the component count.
        if profile.avf == 0:
            return
        single = exact_component_mttf(rate, profile)
        system = first_principles_mttf(
            SystemModel(
                [Component("c", rate, profile, multiplicity=count)]
            )
        ).mttf_seconds
        bigger = first_principles_mttf(
            SystemModel(
                [Component("c", rate, profile, multiplicity=2 * count)]
            )
        ).mttf_seconds
        assert system <= single * (1 + 1e-9)
        assert bigger <= system * (1 + 1e-9)

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1e6),
            min_size=1,
            max_size=6,
        )
    )
    def test_sofr_below_min_component(self, mttfs):
        combined = sofr_mttf(mttfs)
        assert combined <= min(mttfs) + 1e-9

    @given(
        st.floats(min_value=0.5, max_value=1e5),
        st.integers(min_value=1, max_value=100),
    )
    def test_sofr_identical_components(self, mttf, count):
        est = sofr_mttf_from_values([mttf], [count])
        assert est.mttf_seconds == pytest.approx(mttf / count, rel=1e-12)


class TestMonteCarloAgainstExact:
    @settings(max_examples=10, deadline=None)
    @given(profiles(), st.floats(min_value=0.001, max_value=0.5))
    def test_mc_within_confidence(self, profile, mass_target):
        # Random profile, hazard scaled to a moderate mass: the MC mean
        # must sit within 5 standard errors of the closed form.
        from repro.core import MonteCarloConfig, sample_component_ttf

        if profile.vulnerable_time <= 0:
            return
        rate = mass_target / profile.vulnerable_time
        # Subnormal vulnerable times overflow the rate to inf, which the
        # hazard constructor rightly rejects — not an MC property.
        if not np.isfinite(rate):
            return
        component = Component("c", rate, profile)
        exact = exact_component_mttf(rate, profile)
        samples = sample_component_ttf(
            component, MonteCarloConfig(trials=20_000, seed=17)
        )
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - exact) < 5.5 * stderr
