"""Model wire-format tests: lossless JSON round trips.

Sampling plans pickle their components as wire dicts, so
``Component``/``SystemModel``/profile serialization must be *lossless
in the fingerprint sense*: rebuilding a model from its wire form must
reproduce the exact ``content_fingerprint``, or a rebuilt model would
miss the content-addressed caches the original hits.
"""

import json
import math

import pytest

from repro.core import Component, SystemModel
from repro.core.system import SYSTEM_SCHEMA
from repro.errors import ConfigurationError, ProfileError
from repro.masking import (
    NestedProfile,
    PiecewiseProfile,
    busy_idle_profile,
    profile_from_dict,
)
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def nested_profile(day_profile, fractional_profile) -> NestedProfile:
    return NestedProfile(
        [
            (2 * SECONDS_PER_DAY, day_profile),
            (300.0, fractional_profile),
        ]
    )


def json_round_trip(data: dict) -> dict:
    """Force the dict through actual JSON text, as HTTP would."""
    return json.loads(json.dumps(data))


class TestProfileWire:
    def test_piecewise_round_trip_is_lossless(self, fractional_profile):
        rebuilt = profile_from_dict(
            json_round_trip(fractional_profile.to_dict())
        )
        assert isinstance(rebuilt, PiecewiseProfile)
        assert rebuilt.fingerprint == fractional_profile.fingerprint
        assert rebuilt.avf == fractional_profile.avf

    def test_irrational_floats_survive_json(self):
        # repr-based JSON floats are shortest-round-trip, so even
        # non-representable durations come back bit-for-bit.
        profile = PiecewiseProfile.from_segments(
            [(math.pi, 1 / 3), (math.e, 0.1), (math.sqrt(2), 0.0)]
        )
        rebuilt = profile_from_dict(json_round_trip(profile.to_dict()))
        assert rebuilt.fingerprint == profile.fingerprint

    def test_nested_round_trip_is_lossless(self, nested_profile):
        rebuilt = profile_from_dict(
            json_round_trip(nested_profile.to_dict())
        )
        assert isinstance(rebuilt, NestedProfile)
        assert rebuilt.fingerprint == nested_profile.fingerprint

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProfileError, match="unknown profile kind"):
            profile_from_dict({"kind": "spline", "knots": []})

    def test_rejects_non_dict(self):
        with pytest.raises(ProfileError, match="must be a dict"):
            profile_from_dict([1, 2, 3])

    def test_rejects_missing_piecewise_fields(self):
        with pytest.raises(ProfileError, match="missing"):
            profile_from_dict({"kind": "piecewise", "breakpoints": [1.0]})

    def test_rejects_nested_inside_nested(self, nested_profile):
        data = nested_profile.to_dict()
        data["segments"][0][1] = nested_profile.to_dict()
        with pytest.raises(ProfileError, match="piecewise inners"):
            profile_from_dict(data)


class TestComponentWire:
    def test_round_trip_preserves_fingerprint(self, day_profile):
        component = Component(
            "l2", 3.5 / SECONDS_PER_DAY, day_profile, multiplicity=16
        )
        rebuilt = Component.from_dict(
            json_round_trip(component.to_dict())
        )
        assert rebuilt.name == "l2"
        assert rebuilt.multiplicity == 16
        assert rebuilt.rate_per_second == component.rate_per_second
        assert (
            rebuilt.content_fingerprint == component.content_fingerprint
        )

    def test_multiplicity_defaults_to_one(self, day_profile):
        data = Component("c", 1e-5, day_profile).to_dict()
        del data["multiplicity"]
        assert Component.from_dict(data).multiplicity == 1

    def test_missing_fields_fail_loudly(self):
        with pytest.raises(ConfigurationError, match="missing"):
            Component.from_dict({"name": "c"})


class TestSystemModelWire:
    @pytest.fixture
    def system(self, day_profile, fractional_profile) -> SystemModel:
        return SystemModel(
            [
                Component(
                    "node", 2.0 / SECONDS_PER_DAY, day_profile,
                    multiplicity=64,
                ),
                Component("regfile", 1e-6, fractional_profile),
            ]
        )

    def test_round_trip_preserves_fingerprint(self, system):
        rebuilt = SystemModel.from_dict(json_round_trip(system.to_dict()))
        assert rebuilt.content_fingerprint == system.content_fingerprint
        assert [c.name for c in rebuilt.components] == [
            c.name for c in system.components
        ]

    def test_component_order_is_part_of_identity(self, system):
        data = system.to_dict()
        data["components"].reverse()
        rebuilt = SystemModel.from_dict(data)
        assert (
            rebuilt.content_fingerprint != system.content_fingerprint
        )

    def test_schema_tag_required(self, system):
        data = system.to_dict()
        data["schema"] = "repro.system/v0"
        with pytest.raises(ConfigurationError, match="repro.system/v1"):
            SystemModel.from_dict(data)

    def test_components_list_required(self):
        with pytest.raises(ConfigurationError, match="components"):
            SystemModel.from_dict({"schema": SYSTEM_SCHEMA})

    def test_wire_form_is_plain_json(self, system):
        # No numpy scalars or other non-JSON types may leak in.
        text = json.dumps(system.to_dict())
        assert SYSTEM_SCHEMA in text

    def test_estimates_agree_after_round_trip(self, day_profile):
        # The ultimate losslessness check: the rebuilt model produces
        # the identical closed-form estimate.
        from repro.methods import registry

        system = SystemModel(
            [
                Component(
                    "node", 2.0 / SECONDS_PER_DAY, day_profile,
                    multiplicity=64,
                ),
                Component(
                    "spare", 1e-6,
                    busy_idle_profile(
                        0.25 * SECONDS_PER_DAY, SECONDS_PER_DAY, 0.7
                    ),
                ),
            ]
        )
        rebuilt = SystemModel.from_dict(json_round_trip(system.to_dict()))
        direct = registry.estimate("first_principles", system)
        served = registry.estimate("first_principles", rebuilt)
        assert served.mttf_seconds == direct.mttf_seconds
