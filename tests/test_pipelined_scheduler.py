"""Work-conserving scheduler tests.

Covers the scheduler every sweep runs — method estimates streamed into
the pool as references finalize, shard-aware disk-cache prewarming, and
the dispatch rules (method-ordered estimates, one chunk in flight per
point on shared-memory pools) — plus the acceptance bar: bit-identity
across worker counts and executors against the default one-worker run.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
    adaptive_chunk_configs,
    chunk_configs,
)
from repro.errors import ConfigurationError
from repro.masking import busy_idle_profile
from repro.methods import (
    ComponentCache,
    DiskCache,
    evaluate_design_space,
)
from repro.methods.progress import (
    CACHE_PREWARMED,
    METHOD_DONE,
    METHOD_STARTED,
    POINT_DONE,
    ProgressEvent,
)
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


class TestExtensionChunks:
    def test_seeds_are_pure_functions_of_the_index(self):
        # A max_trials extension keeps the fixed plan as its prefix and
        # seeds chunk i from SeedSequence(seed).spawn(i + 1)[i], so a
        # chunk never depends on how far the plan was extended.
        fixed = MonteCarloConfig(trials=8_000, seed=3, chunks=4)
        extended = replace(
            fixed,
            stopping=StoppingRule(
                target_rel_stderr=0.01, max_trials=16_000
            ),
        )
        plan = adaptive_chunk_configs(extended)
        assert len(plan) == 8
        assert plan[:4] == chunk_configs(fixed)
        for index, chunk in enumerate(plan):
            child = np.random.SeedSequence(3).spawn(index + 1)[index]
            assert chunk.seed == int(child.generate_state(1, np.uint64)[0])
            assert chunk.trials == 2_000
            assert chunk.chunks == 1 and chunk.stopping is None
        shorter = replace(
            fixed,
            stopping=StoppingRule(
                target_rel_stderr=0.01, max_trials=12_000
            ),
        )
        assert adaptive_chunk_configs(shorter) == plan[:6]


class TestPipelinedIdentity:
    """Acceptance bar: the schedule is never a numbers change. Each
    ``phased`` baseline is the default run (one thread worker); each
    ``piped`` run fans the same sweep out wider or to processes."""

    def test_pipelined_equals_phased_at_fixed_chunking(
        self, cluster_space
    ):
        mc = MonteCarloConfig(trials=4_000, seed=3, chunks=4)
        phased = evaluate_design_space(
            cluster_space,
            methods=["first_principles", "sofr_only"],
            mc_config=mc,
        )
        for executor, workers in (("thread", 3), ("process", 2)):
            piped = evaluate_design_space(
                cluster_space,
                methods=["first_principles", "sofr_only"],
                mc_config=mc,
                workers=workers,
                executor=executor,
            )
            assert piped == phased, executor

    def test_pipelined_adaptive_equals_phased_adaptive(
        self, cluster_space
    ):
        mc = MonteCarloConfig(
            trials=40_000,
            seed=3,
            chunks=20,
            stopping=StoppingRule(target_rel_stderr=0.05),
        )
        phased = evaluate_design_space(
            cluster_space, methods=["first_principles"], mc_config=mc
        )
        piped = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=4,
        )
        assert piped == phased

    def test_pipelined_exact_reference(self, cluster_space):
        phased = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact"
        )
        piped = evaluate_design_space(
            cluster_space,
            methods=["avf_sofr"],
            reference="exact",
            workers=2,
        )
        assert piped == phased

    def test_process_pipelined_keeps_component_memoization(
        self, cluster_space
    ):
        # Per-component methods stay in the parent on the process
        # executor: every C shares one profile, so the whole sweep
        # performs exactly one component-level MC estimation instead of
        # one per point — matching the one-worker run's cost.
        mc = MonteCarloConfig(trials=2_000, seed=1, chunks=2)
        phased = evaluate_design_space(
            cluster_space[:3], methods=["sofr_only"], mc_config=mc
        )
        cache = ComponentCache()
        piped = evaluate_design_space(
            cluster_space[:3],
            methods=["sofr_only"],
            mc_config=mc,
            workers=2,
            executor="process",
            cache=cache,
        )
        assert piped == phased
        assert cache.misses == 1

    def test_method_events_stream_with_the_references(
        self, cluster_space
    ):
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space[:3],
            methods=["first_principles", "sofr_only"],
            mc_config=MonteCarloConfig(trials=2_000, seed=1, chunks=4),
            workers=2,
            progress=events.append,
        )
        starts = [e for e in events if e.kind == METHOD_STARTED]
        dones = [e for e in events if e.kind == METHOD_DONE]
        assert {e.method for e in starts} == {
            "first_principles", "sofr_only",
        }
        assert len(dones) == 6  # 3 points x 2 methods
        # Methods launch after their own point's reference, not after
        # every reference: each label's method-start follows its
        # point-done immediately in the event order.
        for label in ("C=2", "C=8", "C=100"):
            kinds = [
                e.kind for e in events if e.label == label
            ]
            assert kinds.index(POINT_DONE) < kinds.index(METHOD_STARTED)


class TestDispatch:
    def test_estimates_follow_method_order_on_every_backend(
        self, cluster_space
    ):
        # The reference doubles as the second method's estimate and
        # lands first; the record still lists methods in method order,
        # so the JSON bytes never depend on completion timing.
        methods = ["avf_sofr", "first_principles"]
        runs = [
            evaluate_design_space(
                cluster_space[:3],
                methods=methods,
                reference="first_principles",
                workers=workers,
                executor=executor,
            ).to_json()
            for executor, workers in (
                ("thread", 1), ("thread", 2), ("process", 2),
            )
        ]
        assert runs[0] == runs[1] == runs[2]
        for comparison in json.loads(runs[0])["comparisons"]:
            assert list(comparison["estimates"]) == methods

    def test_shared_memory_pools_sample_only_folded_chunks(
        self, cluster_space, monkeypatch
    ):
        # Every point stops within its first two of 16 chunks; a thread
        # pool samples only the chunks it folds.
        from repro.core.kernel import SamplingPlan

        calls = []
        sample_ttf = SamplingPlan.sample_ttf

        def counting(plan, config):
            calls.append(config.seed)
            return sample_ttf(plan, config)

        monkeypatch.setattr(SamplingPlan, "sample_ttf", counting)
        mc = MonteCarloConfig(
            trials=64_000,
            seed=3,
            chunks=16,
            stopping=StoppingRule(target_rel_stderr=0.02),
        )
        for workers in (1, 2):
            calls.clear()
            events: list[ProgressEvent] = []
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=mc,
                workers=workers,
                cache=False,
                progress=events.append,
            )
            done = [e for e in events if e.kind == POINT_DONE]
            assert len(done) == len(cluster_space)
            assert all(e.stopped_early for e in done)
            assert len(calls) == sum(e.merged_chunks for e in done)

    def test_an_error_cancels_the_queued_work(
        self, cluster_space, monkeypatch
    ):
        # avf supports single-instance systems only, so launching the
        # first point's methods raises; the references still queued
        # behind it must not run before the error surfaces.
        from repro.methods.base import FunctionEstimator

        calls = []
        estimate = FunctionEstimator.estimate

        def counting(estimator, system, config=None):
            if estimator.name == "monte_carlo":
                calls.append(system)
            return estimate(estimator, system, config)

        monkeypatch.setattr(FunctionEstimator, "estimate", counting)
        space = cluster_space * 8
        with pytest.raises(ConfigurationError, match="does not support"):
            evaluate_design_space(
                space,
                methods=["avf"],
                mc_config=MonteCarloConfig(trials=20_000, seed=1),
            )
        assert len(calls) < len(space)


class TestPrewarmAndPublication:
    def test_prewarm_event_reports_disk_entries(
        self, cluster_space, tmp_path
    ):
        # Only sharded runs prewarm: shard 0 of 2 holds three points.
        mc = MonteCarloConfig(trials=1_000, seed=1, chunks=2)
        run = lambda cache, progress=None, shard=(0, 2): (
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=mc,
                cache=cache,
                progress=progress,
                shard=shard,
            )
        )
        cold = ComponentCache(disk=DiskCache(tmp_path))
        cold_events: list[ProgressEvent] = []
        run(cold, cold_events.append)
        cold_prewarm = [
            e for e in cold_events if e.kind == CACHE_PREWARMED
        ]
        assert len(cold_prewarm) == 1
        assert cold_prewarm[0].warmed_entries == 0
        # A fresh in-memory cache over the same directory prewarms
        # every reference and method estimate the shard needs.
        warm = ComponentCache(disk=DiskCache(tmp_path))
        warm_events: list[ProgressEvent] = []
        run(warm, warm_events.append)
        warm_prewarm = [
            e for e in warm_events if e.kind == CACHE_PREWARMED
        ]
        assert warm_prewarm[0].warmed_entries == 6  # 3 refs + 3 methods
        done = [e for e in warm_events if e.kind == POINT_DONE]
        assert done and all(e.cached for e in done)
        assert warm.misses == 0 and warm.estimate_misses == 0
        # An unsharded run has no sibling to learn from: no prewarm, so
        # its disk lookups keep their hit/miss accounting.
        unsharded: list[ProgressEvent] = []
        run(ComponentCache(disk=DiskCache(tmp_path)), unsharded.append, None)
        assert all(e.kind != CACHE_PREWARMED for e in unsharded)

    def test_estimates_publish_to_disk_as_points_finish(
        self, cluster_space, tmp_path
    ):
        # Streaming publication: after a pipelined run every system
        # estimate (reference and methods) is on disk — a co-running
        # shard polling the same directory would see them without
        # waiting for the sweep to finish.
        disk = DiskCache(tmp_path)
        cache = ComponentCache(disk=disk)
        evaluate_design_space(
            cluster_space[:2],
            methods=["first_principles", "sofr_only"],
            mc_config=MonteCarloConfig(trials=1_000, seed=1, chunks=2),
            cache=cache,
        )
        mc = MonteCarloConfig(trials=1_000, seed=1, chunks=2)
        for _label, system in cluster_space[:2]:
            ref_key = ComponentCache.estimate_key(
                "monte_carlo", system, mc, "monte_carlo"
            )
            assert disk.peek(ref_key) is not None
            method_key = ComponentCache.estimate_key(
                "sofr_only", system, mc, "monte_carlo"
            )
            assert disk.peek(method_key) is not None

    def test_co_running_shards_share_published_work(
        self, cluster_space, tmp_path
    ):
        # Sequentialized stand-in for two co-running shards: shard 0
        # publishes into the shared dir; shard 1's prewarm then skips
        # every system its sibling already finished plus the component
        # estimates they share.
        mc = MonteCarloConfig(trials=1_000, seed=1, chunks=2)
        kwargs = dict(
            methods=["sofr_only", "first_principles"],
            mc_config=mc,
        )
        shard0 = evaluate_design_space(
            cluster_space,
            shard=(0, 2),
            cache=ComponentCache(disk=DiskCache(tmp_path)),
            **kwargs,
        )
        shard1_cache = ComponentCache(disk=DiskCache(tmp_path))
        shard1 = evaluate_design_space(
            cluster_space,
            shard=(1, 2),
            cache=shard1_cache,
            **kwargs,
        )
        assert shard1_cache.disk.hits + shard1_cache.disk.writes > 0
        from repro.methods import merge_result_sets

        full = evaluate_design_space(
            cluster_space,
            cache=ComponentCache(disk=DiskCache(tmp_path)),
            **kwargs,
        )
        assert merge_result_sets([shard0, shard1]) == full
