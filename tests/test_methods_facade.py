"""Tests for the analyze() facade, batch engine, and ResultSet JSON."""

import math

import pytest

from repro import analyze, evaluate_design_space
from repro.core import Component, MonteCarloConfig, SystemModel
from repro.errors import ConfigurationError
from repro.methods import ComponentCache, ResultSet, mc_token
from repro.reliability.metrics import MTTFEstimate
from repro.core.comparison import MethodComparison
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def system(day_profile):
    # Hazard mass per day is 5e-4: deep inside the AVF-safe regime.
    return SystemModel(
        [Component("node", 1e-3 / SECONDS_PER_DAY, day_profile)]
    )


@pytest.fixture
def cluster_space(day_profile):
    rate = 2.0 / SECONDS_PER_DAY
    return [
        (
            f"C={c}",
            SystemModel(
                [Component("node", rate, day_profile, multiplicity=c)]
            ),
        )
        for c in (2, 8, 100)
    ]


class TestAnalyzeFacade:
    def test_fluent_run(self, system):
        result = (
            analyze(system, label="uni")
            .using("avf_sofr", "hybrid")
            .against("exact")
            .run()
        )
        assert isinstance(result, ResultSet)
        assert len(result) == 1
        assert result[0].system_label == "uni"
        assert result.methods == ("avf_sofr", "hybrid")
        assert result.reference_method == "first_principles"
        # run() goes through the batch engine, so its set records the
        # Monte-Carlo settings as every engine set does.
        assert result.mc_token == mc_token(MonteCarloConfig())
        assert result[0].abs_error("avf_sofr") < 1e-3

    def test_empty_method_list_rejected(self, system):
        with pytest.raises(ConfigurationError, match="at least one"):
            analyze(system).using()

    def test_run_without_using_rejected(self, system):
        with pytest.raises(ConfigurationError, match="no methods"):
            analyze(system).run()

    def test_unknown_method_rejected_with_hint(self, system):
        with pytest.raises(ConfigurationError, match="available"):
            analyze(system).using("quantum_oracle")

    def test_unknown_reference_rejected(self, system):
        with pytest.raises(ConfigurationError, match="reference"):
            analyze(system).against("vibes")

    def test_monte_carlo_reference_seeded(self, system):
        mc = MonteCarloConfig(trials=3_000, seed=5)
        a = analyze(system).using("avf_sofr").with_mc(mc).run()
        b = analyze(system).using("avf_sofr").with_mc(mc).run()
        assert a[0].reference.mttf_seconds == b[0].reference.mttf_seconds

    def test_non_system_rejected(self):
        with pytest.raises(ConfigurationError, match="SystemModel"):
            analyze("not a system")

    def test_unsupported_method_rejected(self, day_profile):
        cluster = SystemModel(
            [Component("n", 1e-6, day_profile, multiplicity=4)]
        )
        with pytest.raises(ConfigurationError, match="support"):
            analyze(cluster).using("avf").against("exact").run()

    def test_reference_reused_when_also_selected(self, system):
        result = (
            analyze(system)
            .using("first_principles", "avf_sofr")
            .against("exact")
            .run()
        )
        assert result[0].estimates["first_principles"] is (
            result[0].reference
        )


class TestBatchEngine:
    def test_orders_and_labels_preserved(self, cluster_space):
        result = evaluate_design_space(
            cluster_space,
            methods=["sofr_only", "first_principles"],
            mc_config=MonteCarloConfig(trials=2_000, seed=3),
        )
        assert result.labels == ["C=2", "C=8", "C=100"]
        assert result.methods == ("sofr_only", "first_principles")

    def test_component_cache_reused_across_grid_points(self, cluster_space):
        cache = ComponentCache()
        evaluate_design_space(
            cluster_space,
            methods=["sofr_only"],
            mc_config=MonteCarloConfig(trials=2_000, seed=3),
            cache=cache,
        )
        # One distinct (profile, rate) component instance across all
        # three C values: one miss, the rest hits. Each point adds its
        # reference and its SOFR estimate.
        assert cache.misses == 3 + 3 + 1
        assert cache.hits == 2

    def test_workers_match_serial(self, cluster_space):
        mc = MonteCarloConfig(trials=2_000, seed=3)
        serial = evaluate_design_space(
            cluster_space, methods=["sofr_only"], mc_config=mc
        )
        threaded = evaluate_design_space(
            cluster_space, methods=["sofr_only"], mc_config=mc, workers=4
        )
        assert serial == threaded

    def test_merged_mixed_references_flagged(self, system):
        a = analyze(system).using("avf_sofr").against("exact").run()
        b = analyze(system).using("avf_sofr").against("monte_carlo").run()
        assert a.merged(a).reference_method == "first_principles"
        assert a.merged(b).reference_method == "mixed"

    def test_empty_methods_rejected(self, cluster_space):
        with pytest.raises(ConfigurationError, match="empty"):
            evaluate_design_space(cluster_space, methods=[])

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            evaluate_design_space([], methods=["avf_sofr"])


class TestResultSetJson:
    def test_round_trip_lossless(self, system):
        result = (
            analyze(system, label="uni")
            .using("avf_sofr", "sofr_only", "first_principles")
            .against("monte_carlo")
            .with_mc(MonteCarloConfig(trials=2_000, seed=9))
            .run()
        )
        loaded = ResultSet.from_json(result.to_json())
        assert loaded == result
        assert loaded[0].error("avf_sofr") == result[0].error("avf_sofr")

    def test_round_trip_through_file(self, system, tmp_path):
        result = analyze(system).using("first_principles").run()
        path = tmp_path / "result.json"
        result.to_json(path)
        assert ResultSet.from_json(path) == result
        assert ResultSet.from_json(str(path)) == result

    def test_infinite_mttf_round_trips(self):
        comparison = MethodComparison(
            system_label="never-fails",
            reference=MTTFEstimate(mttf_seconds=1.0),
            estimates={
                "avf": MTTFEstimate(mttf_seconds=math.inf, method="avf")
            },
        )
        rs = ResultSet((comparison,), methods=("avf",))
        loaded = ResultSet.from_json(rs.to_json())
        assert math.isinf(loaded[0].estimates["avf"].mttf_seconds)

    def test_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            ResultSet.from_json('{"schema": "something/else"}')

    def test_rejects_unknown_top_level_keys(self, system):
        # A sharded file from an older release holds part of a sweep;
        # it must not load as a complete one.
        data = analyze(system).using("first_principles").run().to_dict()
        data["shard"] = [0, 2]
        with pytest.raises(ConfigurationError, match="shard"):
            ResultSet.from_dict(data)

    def test_worst_abs_error_requires_method_presence(self, system):
        result = analyze(system).using("first_principles").run()
        with pytest.raises(ConfigurationError):
            result.worst_abs_error("softarch")
