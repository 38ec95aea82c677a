"""Cached replays and the per-point trial audit.

A warm cache replays every estimate of a sweep at any pool width
without running an estimator, and every record carries the trials
behind its Monte-Carlo reference.
"""

import pytest

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.methods import ComponentCache, evaluate_design_space
from repro.methods.base import FunctionEstimator
from repro.ser import component_rate_per_second
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
        for c in (2, 8, 100, 300, 1000)
    ]


class TestCachedReplays:
    def test_warm_cache_replays_at_every_width(
        self, cluster_space, monkeypatch
    ):
        mc = MonteCarloConfig(trials=1_000, seed=1)
        cache = ComponentCache()
        cold = evaluate_design_space(
            cluster_space[:2], methods=["first_principles"],
            mc_config=mc, cache=cache,
        )
        calls = []
        estimate = FunctionEstimator.estimate

        def counting(estimator, system, config=None):
            calls.append(estimator.name)
            return estimate(estimator, system, config)

        monkeypatch.setattr(FunctionEstimator, "estimate", counting)
        for workers in (1, 2):
            hits, misses = cache.hits, cache.misses
            warm = evaluate_design_space(
                cluster_space[:2],
                methods=["first_principles"],
                mc_config=mc,
                cache=cache,
                workers=workers,
            )
            assert warm == cold, workers
            # Two points, each a reference and one method estimate.
            assert cache.hits - hits == 4, workers
            assert cache.misses == misses, workers
        assert calls == []


class TestSweepAudit:
    def test_sweep_results_carry_trial_counts(self, day_profile):
        space = [
            (
                f"day/NxS={n_times_s:g}/C=1",
                SystemModel(
                    [
                        Component(
                            "day",
                            component_rate_per_second(n_times_s, 1.0),
                            day_profile,
                        )
                    ]
                ),
            )
            for n_times_s in (1e8, 1e9)
        ]
        result = evaluate_design_space(
            space,
            methods=["avf", "first_principles"],
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
        )
        assert [c.reference.trials for c in result] == [2_000, 2_000]
        for comparison in result:
            assert comparison.reference.rel_stderr > 0
