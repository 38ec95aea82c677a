"""Batch-engine fan-out tests: thread-pool width identity."""

import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    monte_carlo_mttf,
)
from repro.errors import ConfigurationError
from repro.methods import ComponentCache, evaluate_design_space
from repro.units import SECONDS_PER_DAY


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


class TestExecutorIdentity:
    """workers=1 and workers=N must be numerically identical, and equal
    to the direct estimate of each point."""

    def test_thread_workers_match_serial(self, cluster_space):
        mc = MonteCarloConfig(trials=2_000, seed=3)
        serial = evaluate_design_space(
            cluster_space, methods=["sofr_only"], mc_config=mc
        )
        threaded = evaluate_design_space(
            cluster_space, methods=["sofr_only"], mc_config=mc,
            workers=4,
        )
        assert serial == threaded
        for (_label, system), comparison in zip(cluster_space, serial):
            assert comparison.reference == monte_carlo_mttf(system, mc)

    def test_single_worker_matches_many(self, cluster_space):
        mc = MonteCarloConfig(trials=1_500, seed=7)
        one = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=1,
        )
        many = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=3,
        )
        assert one == many


class TestExecutorValidation:
    def test_nonpositive_workers_rejected(self, cluster_space):
        with pytest.raises(ConfigurationError, match="workers"):
            evaluate_design_space(
                cluster_space, methods=["avf_sofr"], workers=0
            )


class TestEngineSemantics:
    def test_reference_estimate_reused_when_also_selected(
        self, cluster_space
    ):
        result = evaluate_design_space(
            cluster_space,
            methods=["first_principles", "avf_sofr"],
            reference="exact",
        )
        for comparison in result:
            assert comparison.estimates["first_principles"] is (
                comparison.reference
            )

    def test_pool_skips_cached_references(self, cluster_space):
        mc = MonteCarloConfig(trials=1_000, seed=1)
        cache = ComponentCache()
        evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            cache=cache,
        )
        hits_before = cache.estimate_hits
        again = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            cache=cache,
            workers=2,
        )
        assert cache.estimate_hits > hits_before
        assert len(again) == len(cluster_space)
