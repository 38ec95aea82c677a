"""Work-conserving scheduler tests.

Covers the scheduler every sweep runs — method estimates streamed into
the pool as references finalize, cancelled-chunk budget re-allocated to
the least-converged stragglers, shard-aware disk-cache prewarming, and
the dispatch rules (method-ordered estimates, one chunk in flight per
point on shared-memory pools) — plus the acceptance bars: bit-identity
across worker counts and executors against the default one-worker run,
and budget conservation.
"""

import json
import math

import pytest

from repro.core import (
    Component,
    MomentAccumulator,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
    adaptive_chunk_configs,
    extension_chunk_config,
    grant_chunk_trials,
)
from repro.errors import ConfigurationError, EstimationError
from repro.masking import busy_idle_profile
from repro.methods import (
    ComponentCache,
    DiskCache,
    evaluate_design_space,
)
from repro.methods.progress import (
    BUDGET_REALLOCATED,
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


#: Absolute-precision rule sized so the large-MTTF C=2 point exhausts
#: its base budget while the small-MTTF points stop after one chunk —
#: the configuration that exercises budget re-allocation end to end.
STRAGGLER_MC = MonteCarloConfig(
    trials=8_000,
    seed=3,
    chunks=8,
    stopping=StoppingRule(target_ci_halfwidth=250.0),
)


class TestExtensionChunks:
    def test_seeds_are_pure_functions_of_the_index(self):
        config = MonteCarloConfig(trials=8_000, seed=3, chunks=4)
        extended = MonteCarloConfig(
            trials=8_000,
            seed=3,
            chunks=4,
            stopping=StoppingRule(
                target_rel_stderr=0.01, max_trials=16_000
            ),
        )
        plan = adaptive_chunk_configs(extended)
        unit = grant_chunk_trials(config)
        # Chunk-by-chunk grants reproduce the up-front extension plan.
        for index in range(4, len(plan)):
            assert extension_chunk_config(config, index, unit) == (
                plan[index]
            )

    def test_grant_unit_matches_adaptive_extension_size(self):
        assert grant_chunk_trials(
            MonteCarloConfig(trials=8_000, chunks=4)
        ) == 2_000
        assert grant_chunk_trials(
            MonteCarloConfig(trials=3, chunks=8)
        ) == 1

    def test_rejects_invalid_arguments(self):
        config = MonteCarloConfig(trials=100, chunks=2)
        with pytest.raises(EstimationError, match="index"):
            extension_chunk_config(config, -1, 10)
        with pytest.raises(EstimationError, match="trials"):
            extension_chunk_config(config, 2, 0)


class TestAccumulatorExtension:
    def test_extension_reopens_an_exhausted_accumulator(self):
        from repro.core import moments_from_samples
        import numpy as np

        accumulator = MomentAccumulator(
            2, StoppingRule(target_rel_stderr=1e-12)
        )
        samples = np.random.default_rng(0).exponential(size=100)
        part = moments_from_samples(samples)
        accumulator.add(0, part)
        assert accumulator.add(1, part)
        assert accumulator.done and not accumulator.satisfied
        accumulator.extend_plan(2)
        assert not accumulator.done
        accumulator.add(2, part)
        assert accumulator.moments.count == 300

    def test_extending_a_satisfied_accumulator_is_rejected(self):
        from repro.core import moments_from_samples
        import numpy as np

        accumulator = MomentAccumulator(
            4, StoppingRule(target_rel_stderr=0.9)
        )
        samples = np.random.default_rng(0).exponential(size=100)
        accumulator.add(0, moments_from_samples(samples))
        assert accumulator.satisfied
        with pytest.raises(EstimationError, match="satisfied"):
            accumulator.extend_plan(1)

    def test_extend_needs_positive_chunks(self):
        with pytest.raises(EstimationError, match="extra_chunks"):
            MomentAccumulator(2).extend_plan(0)


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


class TestStoppingRuleDeficit:
    def _moments(self, mean, stderr, count=100):
        from repro.core import SampleMoments

        # m2 chosen so SampleMoments.stderr reproduces `stderr`.
        m2 = stderr * stderr * (count - 1) * count
        return SampleMoments(count, mean, m2)

    def test_ranks_by_the_configured_target(self):
        # Under an absolute half-width rule the genuine straggler is
        # the point furthest from its half-width target, even when its
        # *relative* error is the smaller one.
        rule = StoppingRule(target_ci_halfwidth=250.0)
        far = self._moments(mean=1e6, stderr=1e5)  # rel 0.1, hw ~2e5
        near = self._moments(mean=10.0, stderr=5.0)  # rel 0.5, hw ~10
        assert rule.deficit(far) > rule.deficit(near)
        # A relative rule ranks the other way around.
        rel_rule = StoppingRule(target_rel_stderr=0.01)
        assert rel_rule.deficit(near) > rel_rule.deficit(far)

    def test_combined_targets_take_the_worst_constraint(self):
        rule = StoppingRule(
            target_rel_stderr=0.01, target_ci_halfwidth=250.0
        )
        moments = self._moments(mean=1e6, stderr=1e3)
        expected = max(
            (1e3 / 1e6) / 0.01, 1.96 * 1e3 / 250.0
        )
        assert rule.deficit(moments) == pytest.approx(expected)

    def test_unmeasurable_prefixes_have_no_deficit(self):
        rule = StoppingRule(target_rel_stderr=0.01)
        assert rule.deficit(self._moments(math.inf, 0.0)) is None
        assert rule.deficit(self._moments(0.0, 1.0)) is None
        assert rule.deficit(self._moments(1.0, 1.0, count=1)) is None
        # A half-width rule can still measure a mean-zero point.
        hw = StoppingRule(target_ci_halfwidth=1.0)
        assert hw.deficit(self._moments(0.0, 1.0)) is not None


class TestBudgetReallocation:
    def test_freed_budget_reaches_the_straggler(self, cluster_space):
        base = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
        )
        events: list[ProgressEvent] = []
        realloc = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            reallocate_budget=True,
            progress=events.append,
        )
        base_trials = base.reference_trials()
        realloc_trials = realloc.reference_trials()
        # The straggler (C=2: largest MTTF, absolute target) was
        # extended past its base budget; early-stopping points are
        # untouched.
        assert realloc_trials["C=2"] > base_trials["C=2"]
        for label in ("C=100", "C=300", "C=1000"):
            assert realloc_trials[label] == base_trials[label]
        grants = [e for e in events if e.kind == BUDGET_REALLOCATED]
        assert grants and all(e.granted_trials > 0 for e in grants)
        assert {e.label for e in grants} == {"C=2"}

    def test_budget_is_conserved(self, cluster_space):
        realloc = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            reallocate_budget=True,
        )
        total_budget = STRAGGLER_MC.trials * len(cluster_space)
        assert sum(realloc.reference_trials().values()) <= total_budget

    def test_bit_identical_across_workers_and_executors(
        self, cluster_space
    ):
        kwargs = dict(
            methods=["first_principles", "sofr_only"],
            mc_config=STRAGGLER_MC,
            reallocate_budget=True,
        )
        serial = evaluate_design_space(cluster_space, **kwargs)
        threaded = evaluate_design_space(
            cluster_space, workers=4, **kwargs
        )
        processed = evaluate_design_space(
            cluster_space, workers=2, executor="process", **kwargs
        )
        assert serial == threaded == processed

    def test_reallocation_without_stopping_rule_is_a_noop(
        self, cluster_space
    ):
        mc = MonteCarloConfig(trials=4_000, seed=3, chunks=4)
        plain = evaluate_design_space(
            cluster_space, methods=["first_principles"], mc_config=mc
        )
        realloc = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            reallocate_budget=True,
        )
        assert realloc == plain

    def test_satisfied_grant_refunds_to_the_next_straggler(
        self, day_profile
    ):
        # Two stragglers: a mid-tier target both miss in base budget.
        # The worst-converged one is granted first; when it satisfies
        # mid-extension its unspent grant refunds and reaches the
        # other — total spend never exceeds the run budget.
        rate = 2.0 / SECONDS_PER_DAY
        space = [
            (
                f"C={c}",
                SystemModel(
                    [
                        Component(
                            "node", rate, day_profile, multiplicity=c
                        )
                    ]
                ),
            )
            for c in (2, 3, 100, 300, 1000)
        ]
        mc = MonteCarloConfig(
            trials=8_000,
            seed=3,
            chunks=8,
            stopping=StoppingRule(target_ci_halfwidth=400.0),
        )
        events: list[ProgressEvent] = []
        realloc = evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=mc,
            reallocate_budget=True,
            progress=events.append,
        )
        grants = [e for e in events if e.kind == BUDGET_REALLOCATED]
        assert {e.label for e in grants} >= {"C=2"}
        assert sum(realloc.reference_trials().values()) <= (
            mc.trials * len(space)
        )
        # Determinism holds for multi-round grant schedules too.
        again = evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=mc,
            workers=3,
            executor="process",
            reallocate_budget=True,
        )
        assert again == realloc

    def test_reallocated_references_never_enter_the_cache(
        self, cluster_space, tmp_path
    ):
        # A re-allocated reference depends on the whole sweep's ledger,
        # so caching it would poison later runs: a warm rerun must
        # recompute references (reproducing the cold numbers exactly)
        # while method estimates — pure functions — replay from disk.
        kwargs = dict(
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            reallocate_budget=True,
        )
        cold = evaluate_design_space(
            cluster_space,
            cache=ComponentCache(disk=DiskCache(tmp_path)),
            **kwargs,
        )
        warm_cache = ComponentCache(disk=DiskCache(tmp_path))
        warm = evaluate_design_space(
            cluster_space, cache=warm_cache, **kwargs
        )
        assert warm == cold
        ref_key = ComponentCache.estimate_key(
            "monte_carlo", cluster_space[0][1], STRAGGLER_MC,
            "monte_carlo",
        )
        assert warm_cache.disk.peek(ref_key) is None
        method_key = ComponentCache.estimate_key(
            "first_principles", cluster_space[0][1], None, "monte_carlo"
        )
        assert warm_cache.disk.peek(method_key) is not None

    def test_merge_refuses_mixing_realloc_and_plain_shards(
        self, cluster_space
    ):
        from repro.errors import ConfigurationError
        from repro.methods import merge_result_sets

        plain = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(0, 2),
        )
        realloc = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(1, 2),
            reallocate_budget=True,
        )
        assert realloc.mc_token.endswith("+realloc")
        with pytest.raises(ConfigurationError, match="different runs"):
            merge_result_sets([plain, realloc])

    def test_censored_points_are_never_candidates(self, day_profile):
        # A zero-rate point draws only infinite TTFs; granting it more
        # trials cannot help and must not happen.
        space = [
            (
                "idle",
                SystemModel([Component("idle", 0.0, day_profile)]),
            ),
            (
                "busy",
                SystemModel(
                    [
                        Component(
                            "busy", 2.0 / SECONDS_PER_DAY, day_profile
                        )
                    ]
                ),
            ),
        ]
        mc = MonteCarloConfig(
            trials=800,
            seed=1,
            chunks=4,
            stopping=StoppingRule(target_rel_stderr=1e-9),
        )
        events: list[ProgressEvent] = []
        result = evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=mc,
            reallocate_budget=True,
            progress=events.append,
        )
        grants = [e for e in events if e.kind == BUDGET_REALLOCATED]
        assert all(e.label != "idle" for e in grants)
        assert math.isinf(result[0].reference.mttf_seconds)
        assert result[0].reference.trials == 800


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

    def test_sharded_realloc_is_shard_deterministic(self, cluster_space):
        # Re-allocation redistributes within one invocation: a sharded
        # run is deterministic in its own right (same shard, any
        # workers/executor), which is the documented contract.
        kwargs = dict(
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(0, 2),
            reallocate_budget=True,
        )
        serial = evaluate_design_space(cluster_space, **kwargs)
        fanned = evaluate_design_space(cluster_space, workers=3, **kwargs)
        assert serial == fanned
        assert serial.shard == (0, 2)
