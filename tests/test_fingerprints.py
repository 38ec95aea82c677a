"""Content-fingerprint tests (profiles, components, systems).

Fingerprints are the cache-key identity of the estimation caches: equal
content must hash equal regardless of object identity, and any content
change must produce a different digest (which is what invalidates stale
disk-cache entries).
"""

import numpy as np

from repro.core.system import Component, SystemModel
from repro.masking.profile import (
    NestedProfile,
    PiecewiseProfile,
    busy_idle_profile,
)
from repro.units import SECONDS_PER_DAY


class TestProfileFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
        b = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
        assert a is not b
        assert a.fingerprint == b.fingerprint

    def test_changed_values_change_fingerprint(self):
        a = PiecewiseProfile([0.0, 1.0, 2.0], [0.5, 0.0])
        b = PiecewiseProfile([0.0, 1.0, 2.0], [0.6, 0.0])
        assert a.fingerprint != b.fingerprint

    def test_changed_breakpoints_change_fingerprint(self):
        a = PiecewiseProfile([0.0, 1.0, 2.0], [0.5, 0.0])
        b = PiecewiseProfile([0.0, 1.5, 2.0], [0.5, 0.0])
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_is_stable_across_calls(self):
        a = busy_idle_profile(3600.0, 7200.0)
        assert a.fingerprint == a.fingerprint

    def test_nested_profile_fingerprint(self):
        inner_a = PiecewiseProfile([0.0, 1.0, 2.0], [1.0, 0.0])
        inner_b = PiecewiseProfile([0.0, 1.0, 2.0], [1.0, 0.0])
        n1 = NestedProfile([(10.0, inner_a), (10.0, 0.25)])
        n2 = NestedProfile([(10.0, inner_b), (10.0, 0.25)])
        n3 = NestedProfile([(10.0, inner_a), (10.0, 0.5)])
        assert n1.fingerprint == n2.fingerprint
        assert n1.fingerprint != n3.fingerprint

    def test_nested_differs_from_piecewise(self):
        flat = PiecewiseProfile([0.0, 10.0], [0.5])
        nested = NestedProfile([(10.0, 0.5)])
        assert flat.fingerprint != nested.fingerprint

    def test_mask_roundtrip_preserves_fingerprint(self):
        from repro.masking.profile import from_cycle_mask

        mask = np.array([1.0, 1.0, 0.0, 0.0, 0.5])
        a = from_cycle_mask(mask, 2.0)
        b = from_cycle_mask(mask.copy(), 2.0)
        assert a.fingerprint == b.fingerprint


class TestComponentFingerprint:
    """An instance is fingerprinted as its one-instance system."""

    def test_multiplicity_excluded(self, day_profile):
        # Every C shares the instance, and so does the one-component
        # point; the name is a system's, so it stays in.
        a = Component("alpha", 1e-6, day_profile)
        b = Component("alpha", 1e-6, day_profile, multiplicity=500)
        point = SystemModel([a])
        assert a.alone().content_fingerprint == point.content_fingerprint
        assert b.alone().content_fingerprint == point.content_fingerprint
        renamed = Component("beta", 1e-6, day_profile)
        assert renamed.alone().content_fingerprint != point.content_fingerprint

    def test_rate_included(self, day_profile):
        a = Component("x", 1e-6, day_profile)
        b = Component("x", 2e-6, day_profile)
        assert a.alone().content_fingerprint != b.alone().content_fingerprint

    def test_profile_content_included(self, day_profile):
        other = busy_idle_profile(0.25 * SECONDS_PER_DAY, SECONDS_PER_DAY)
        a = Component("x", 1e-6, day_profile)
        b = Component("x", 1e-6, other)
        assert a.alone().content_fingerprint != b.alone().content_fingerprint


class TestSystemFingerprint:
    def test_multiplicity_included(self, day_profile):
        a = SystemModel([Component("n", 1e-6, day_profile)])
        b = SystemModel(
            [Component("n", 1e-6, day_profile, multiplicity=2)]
        )
        assert a.content_fingerprint != b.content_fingerprint

    def test_equal_content_equal_fingerprint(self, day_profile):
        rebuilt = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
        a = SystemModel([Component("n", 1e-6, day_profile)])
        b = SystemModel([Component("n", 1e-6, rebuilt)])
        assert a.content_fingerprint == b.content_fingerprint

    def test_component_order_included(self, day_profile, fractional_profile):
        x = Component("x", 1e-6, day_profile)
        y = Component("y", 1e-6, fractional_profile)
        assert (
            SystemModel([x, y]).content_fingerprint
            != SystemModel([y, x]).content_fingerprint
        )

    def test_cached_on_instance(self, day_profile):
        system = SystemModel([Component("n", 1e-6, day_profile)])
        assert system.content_fingerprint is system.content_fingerprint
