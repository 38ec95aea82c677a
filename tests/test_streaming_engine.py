"""Streaming adaptive-precision engine tests.

Covers the PR-3 engine rewrite: in-order streaming moment reduction
(bit-identical to the gather-era engine at fixed chunking), the
precision-driven stopping rule, deterministic shard partitioning with
merge-equals-unsharded, per-point progress events, and the adaptive
audit trail carried through the ResultSet JSON round-trip.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    Component,
    MomentAccumulator,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
    accumulate_chunks,
    adaptive_chunk_configs,
    chunk_configs,
    merge_moments,
    monte_carlo_mttf,
    system_chunk_moments,
)
from repro.errors import ConfigurationError, EstimationError
from repro.masking import busy_idle_profile
from repro.methods import (
    ResultSet,
    evaluate_design_space,
    merge_result_sets,
    shard_select,
)
from repro.methods.cache import mc_token
from repro.methods.progress import ProgressEvent, relative_stderr
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def day_system(day_profile):
    return SystemModel(
        [Component("node", 2.0 / SECONDS_PER_DAY, day_profile)]
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
        for c in (2, 8, 100, 300, 1000)
    ]


class TestStoppingRule:
    def test_needs_a_target(self):
        with pytest.raises(EstimationError, match="target"):
            StoppingRule()

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(EstimationError, match="positive"):
            StoppingRule(target_rel_stderr=0.0)

    def test_min_trials_blocks_early_satisfaction(self, day_system):
        config = MonteCarloConfig(trials=8_000, seed=1, chunks=8)
        moments = system_chunk_moments(
            day_system, chunk_configs(config)[0]
        )
        loose = StoppingRule(target_rel_stderr=0.5)
        assert loose.satisfied(moments)
        assert not StoppingRule(
            target_rel_stderr=0.5, min_trials=5_000
        ).satisfied(moments)

    def test_ci_halfwidth_target(self, day_system):
        config = MonteCarloConfig(trials=4_000, seed=1)
        moments = system_chunk_moments(
            day_system, chunk_configs(config)[0]
        )
        stderr = math.sqrt(
            moments.m2 / (moments.count - 1) / moments.count
        )
        tight = StoppingRule(target_ci_halfwidth=1.96 * stderr * 0.5)
        loose = StoppingRule(target_ci_halfwidth=1.96 * stderr * 2.0)
        assert loose.satisfied(moments)
        assert not tight.satisfied(moments)


class TestAdaptiveChunkPlan:
    def test_without_rule_equals_fixed_plan(self):
        config = MonteCarloConfig(trials=10_000, seed=3, chunks=4)
        assert adaptive_chunk_configs(config) == chunk_configs(config)

    def test_rule_without_extension_keeps_fixed_plan_seeds(self):
        fixed = MonteCarloConfig(trials=10_000, seed=3, chunks=4)
        adaptive = MonteCarloConfig(
            trials=10_000,
            seed=3,
            chunks=4,
            stopping=StoppingRule(target_rel_stderr=0.01),
        )
        assert adaptive_chunk_configs(adaptive) == chunk_configs(fixed)

    def test_budget_below_trials_truncates_plan(self):
        config = MonteCarloConfig(
            trials=10_000,
            seed=3,
            chunks=10,
            stopping=StoppingRule(
                target_rel_stderr=1e-12, max_trials=3_000
            ),
        )
        plan = adaptive_chunk_configs(config)
        assert plan == chunk_configs(
            MonteCarloConfig(trials=10_000, seed=3, chunks=10)
        )[: 3]
        assert sum(c.trials for c in plan) == 3_000

    def test_unreachable_target_respects_max_trials_budget(
        self, day_system
    ):
        estimate = monte_carlo_mttf(
            day_system,
            MonteCarloConfig(
                trials=10_000,
                seed=3,
                chunks=10,
                stopping=StoppingRule(
                    target_rel_stderr=1e-12, max_trials=3_000
                ),
            ),
        )
        assert estimate.trials == 3_000

    def test_budget_extension_preserves_prefix(self):
        base = MonteCarloConfig(trials=8_000, seed=3, chunks=4)
        extended = MonteCarloConfig(
            trials=8_000,
            seed=3,
            chunks=4,
            stopping=StoppingRule(
                target_rel_stderr=0.01, max_trials=20_000
            ),
        )
        plan = adaptive_chunk_configs(extended)
        assert plan[: 4] == chunk_configs(base)
        # max_trials is a hard cap: the plan covers it exactly.
        assert sum(c.trials for c in plan) == 20_000
        assert all(c.trials == 2_000 for c in plan[4:])
        assert len({c.seed for c in plan}) == len(plan)

    def test_budget_is_a_hard_cap_at_any_chunking(self):
        # Non-multiple budgets clamp the final chunk; even a monolithic
        # chunks=1 plan is cut down to the budget.
        for trials, chunks, max_trials in (
            (1_000_000, 1, 1_000),
            (100_000, 4, 30_000),
            (8_000, 4, 21_000),
        ):
            config = MonteCarloConfig(
                trials=trials,
                seed=3,
                chunks=chunks,
                stopping=StoppingRule(
                    target_rel_stderr=1e-12, max_trials=max_trials
                ),
            )
            plan = adaptive_chunk_configs(config)
            assert sum(c.trials for c in plan) == max_trials, (
                trials, chunks, max_trials,
            )


class TestMomentAccumulator:
    def _chunks(self, day_system, chunks=8):
        config = MonteCarloConfig(trials=8_000, seed=5, chunks=chunks)
        return [
            system_chunk_moments(day_system, chunk)
            for chunk in chunk_configs(config)
        ]

    def test_out_of_order_arrival_matches_in_order_fold(self, day_system):
        parts = self._chunks(day_system)
        in_order = MomentAccumulator(len(parts))
        for index, part in enumerate(parts):
            in_order.add(index, part)
        shuffled = MomentAccumulator(len(parts))
        order = np.random.default_rng(0).permutation(len(parts))
        for index in order:
            shuffled.add(int(index), parts[index])
        assert shuffled.moments == in_order.moments
        assert shuffled.moments == merge_moments(parts)

    def test_stop_decision_is_arrival_order_independent(self, day_system):
        parts = self._chunks(day_system)
        rule = StoppingRule(target_rel_stderr=0.05)
        stops = []
        for seed in range(5):
            accumulator = MomentAccumulator(len(parts), rule)
            order = np.random.default_rng(seed).permutation(len(parts))
            for index in order:
                accumulator.add(int(index), parts[index])
            stops.append(
                (accumulator.merged_chunks, accumulator.moments)
            )
        assert len(set(stops)) == 1
        assert stops[0][0] < len(parts)  # it did stop early

    def test_straggler_after_done_is_ignored(self, day_system):
        parts = self._chunks(day_system, chunks=4)
        accumulator = MomentAccumulator(
            4, StoppingRule(target_rel_stderr=0.9)
        )
        assert accumulator.add(0, parts[0])
        frozen = accumulator.moments
        accumulator.add(1, parts[1])
        assert accumulator.moments == frozen


class TestStreamingBitIdentity:
    """The acceptance bar: with the rule disabled at fixed chunking the
    streaming engine reproduces the serial chunked reduction to the bit,
    across worker counts and executors; with the rule enabled the result
    is still a pure function of the configuration."""

    def test_process_streaming_matches_serial_chunked(
        self, cluster_space
    ):
        mc = MonteCarloConfig(trials=4_000, seed=3, chunks=4)
        serial = evaluate_design_space(
            cluster_space, methods=["first_principles"], mc_config=mc
        )
        streamed = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=4,
            executor="process",
        )
        assert streamed == serial
        for label, system in cluster_space:
            direct = monte_carlo_mttf(system, mc)
            comparison = next(
                c for c in serial if c.system_label == label
            )
            assert comparison.reference == direct

    def test_adaptive_identical_across_workers_and_executors(
        self, cluster_space
    ):
        mc = MonteCarloConfig(
            trials=40_000,
            seed=3,
            chunks=20,
            stopping=StoppingRule(target_rel_stderr=0.05),
        )
        serial = evaluate_design_space(
            cluster_space, methods=["first_principles"], mc_config=mc
        )
        threaded = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=4,
        )
        processed = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=3,
            executor="process",
        )
        assert serial == threaded == processed

    def test_extension_past_budget_identical_across_executors(
        self, cluster_space
    ):
        # The lazily-submitted extension tail must reproduce the serial
        # adaptive run exactly (extension seeds are a pure function of
        # the chunk index, and folding stays in index order).
        mc = MonteCarloConfig(
            trials=1_000,
            seed=9,
            chunks=4,
            stopping=StoppingRule(
                target_rel_stderr=0.01, max_trials=20_000
            ),
        )
        serial = evaluate_design_space(
            cluster_space[:3], methods=["first_principles"], mc_config=mc
        )
        processed = evaluate_design_space(
            cluster_space[:3],
            methods=["first_principles"],
            mc_config=mc,
            workers=3,
            executor="process",
        )
        assert processed == serial
        # Points genuinely used the extension (more than the base plan).
        assert all(
            trials > 1_000
            for trials in serial.reference_trials().values()
        )

    def test_unsatisfiable_target_reproduces_fixed_run(self, day_system):
        fixed = monte_carlo_mttf(
            day_system, MonteCarloConfig(trials=8_000, seed=3, chunks=8)
        )
        exhausted = monte_carlo_mttf(
            day_system,
            MonteCarloConfig(
                trials=8_000,
                seed=3,
                chunks=8,
                stopping=StoppingRule(target_rel_stderr=1e-12),
            ),
        )
        assert exhausted == fixed


class TestStoppingConvergence:
    def test_achieved_stderr_meets_target(self, day_system):
        target = 0.03
        estimate = monte_carlo_mttf(
            day_system,
            MonteCarloConfig(
                trials=200_000,
                seed=11,
                chunks=100,
                stopping=StoppingRule(target_rel_stderr=target),
            ),
        )
        achieved = estimate.std_error_seconds / estimate.mttf_seconds
        assert achieved <= target
        assert estimate.trials < 200_000  # it stopped well short

    def test_known_distribution_estimate_within_ci(self):
        # Constant-vulnerability profile => exponential TTF with a
        # known mean 1/rate; the adaptive estimate must land within a
        # few achieved standard errors of the truth.
        profile = busy_idle_profile(SECONDS_PER_DAY, SECONDS_PER_DAY)
        rate = 4.0 / SECONDS_PER_DAY
        system = SystemModel([Component("const", rate, profile)])
        estimate = monte_carlo_mttf(
            system,
            MonteCarloConfig(
                trials=100_000,
                seed=2,
                chunks=50,
                stopping=StoppingRule(target_rel_stderr=0.02),
            ),
        )
        truth = 1.0 / rate
        assert abs(estimate.mttf_seconds - truth) <= (
            4.0 * estimate.std_error_seconds
        )

    def test_all_censored_prefix_never_stops_early(self, day_profile):
        # A zero-rate component draws only infinite TTFs; the rule must
        # not declare that "converged" — the run spends its budget and
        # reports the same legitimate infinity a fixed run would.
        system = SystemModel([Component("idle", 0.0, day_profile)])
        fixed = monte_carlo_mttf(
            system, MonteCarloConfig(trials=800, seed=1, chunks=4)
        )
        adaptive = monte_carlo_mttf(
            system,
            MonteCarloConfig(
                trials=800,
                seed=1,
                chunks=4,
                stopping=StoppingRule(target_rel_stderr=0.5),
            ),
        )
        assert math.isinf(adaptive.mttf_seconds)
        assert adaptive.trials == 800
        assert adaptive == fixed

    def test_accumulate_chunks_reports_early_stop(self, day_system):
        config = MonteCarloConfig(
            trials=40_000,
            seed=3,
            chunks=20,
            stopping=StoppingRule(target_rel_stderr=0.05),
        )
        accumulator = accumulate_chunks(
            lambda chunk: system_chunk_moments(day_system, chunk), config
        )
        assert accumulator.stopped_early
        assert accumulator.merged_chunks < 20
        assert config.stopping.satisfied(accumulator.moments)


class TestSharding:
    def test_shard_select_partitions_deterministically(self):
        items = list(range(11))
        shards = [shard_select(items, (i, 3)) for i in range(3)]
        assert shards[0] == [0, 3, 6, 9]
        assert shards[1] == [1, 4, 7, 10]
        assert shards[2] == [2, 5, 8]
        flat = sorted(x for shard in shards for x in shard)
        assert flat == items

    def test_invalid_shards_rejected(self, cluster_space):
        for bad in ((2, 2), (-1, 2), (0, 0)):
            with pytest.raises(ConfigurationError, match="shard"):
                evaluate_design_space(
                    cluster_space, methods=["avf_sofr"],
                    reference="exact", shard=bad,
                )

    def test_sharded_runs_merge_to_unsharded(self, cluster_space):
        mc = MonteCarloConfig(trials=3_000, seed=5, chunks=3)
        full = evaluate_design_space(
            cluster_space, methods=["sofr_only"], mc_config=mc
        )
        shards = [
            evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=mc,
                shard=(i, 3),
                # exercise different executors per shard on purpose
                workers=1 + i,
                executor="process" if i == 1 else "thread",
            )
            for i in range(3)
        ]
        merged = merge_result_sets(shards)
        assert merged == full
        assert merged.shard is None

    def test_merge_rejects_incomplete_or_mixed_partitions(
        self, cluster_space
    ):
        s0 = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact",
            shard=(0, 2),
        )
        s1 = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact",
            shard=(1, 2),
        )
        with pytest.raises(ConfigurationError, match="missing"):
            merge_result_sets([s0])
        # Byte-identical duplicates collapse (a shard run twice
        # legitimately produces the same bytes) — but a lone shard
        # repeated still leaves the partition incomplete.
        with pytest.raises(ConfigurationError, match="missing"):
            merge_result_sets([s0, s0])
        assert merge_result_sets([s0, s1, s0]) == merge_result_sets(
            [s0, s1]
        )
        conflicting = replace(s0, mc_token="not-the-same-run")
        with pytest.raises(ConfigurationError, match="duplicate"):
            merge_result_sets([s0, s1, conflicting])
        bad = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact",
            shard=(1, 3),
        )
        with pytest.raises(ConfigurationError, match="shard counts"):
            merge_result_sets([s0, bad])
        with pytest.raises(ConfigurationError, match="sharded"):
            merge_result_sets(
                [evaluate_design_space(
                    cluster_space, methods=["avf_sofr"],
                    reference="exact",
                )]
            )
        assert merge_result_sets([s0, s1]) is not None

    def test_merge_rejects_mismatched_mc_configurations(
        self, cluster_space
    ):
        # Shards that came from runs with different Monte-Carlo
        # settings must not interleave silently.
        s0 = evaluate_design_space(
            cluster_space,
            methods=["sofr_only"],
            mc_config=MonteCarloConfig(trials=1_000, seed=5),
            shard=(0, 2),
        )
        s1 = evaluate_design_space(
            cluster_space,
            methods=["sofr_only"],
            mc_config=MonteCarloConfig(trials=2_000, seed=5),
            shard=(1, 2),
        )
        with pytest.raises(ConfigurationError, match="different runs"):
            merge_result_sets([s0, s1])

    def test_malformed_shard_raises_configuration_error(self):
        import json

        with pytest.raises(ConfigurationError, match="invalid shard"):
            ResultSet(comparisons=(), shard=(0,))  # type: ignore[arg-type]
        document = {
            "schema": "repro.resultset/v1",
            "comparisons": [],
            "shard": [0],
        }
        with pytest.raises(ConfigurationError, match="invalid shard"):
            ResultSet.from_json(json.dumps(document))

    def test_shard_survives_json_round_trip(self, cluster_space):
        sharded = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact",
            shard=(1, 2),
        )
        restored = ResultSet.from_json(sharded.to_json())
        assert restored == sharded
        assert restored.shard == (1, 2)


class TestAdaptiveAudit:
    def test_trials_and_stderr_survive_round_trip(self, cluster_space):
        mc = MonteCarloConfig(
            trials=40_000,
            seed=3,
            chunks=20,
            stopping=StoppingRule(target_rel_stderr=0.05),
        )
        run = evaluate_design_space(
            cluster_space, methods=["first_principles"], mc_config=mc
        )
        restored = ResultSet.from_json(run.to_json())
        assert restored.reference_trials() == run.reference_trials()
        assert restored.reference_rel_stderr() == (
            run.reference_rel_stderr()
        )
        for label, trials in restored.reference_trials().items():
            assert 0 < trials < 40_000, label
        for rel in restored.reference_rel_stderr().values():
            assert rel <= 0.05

    def test_mc_token_distinguishes_stopping_rules(self):
        fixed = MonteCarloConfig(trials=1_000, seed=0, chunks=2)
        adaptive = MonteCarloConfig(
            trials=1_000,
            seed=0,
            chunks=2,
            stopping=StoppingRule(target_rel_stderr=0.01),
        )
        tighter = MonteCarloConfig(
            trials=1_000,
            seed=0,
            chunks=2,
            stopping=StoppingRule(target_rel_stderr=0.001),
        )
        tokens = {mc_token(c) for c in (fixed, adaptive, tighter)}
        assert len(tokens) == 3
        # Fixed-count tokens keep the pre-stopping format (warm caches
        # from earlier releases stay valid).
        assert "stopping" not in mc_token(fixed)


def _assert_point_lifecycles(events, labels, methods):
    """Per label: one point-start, then one point-done, then the
    point's ``methods`` method-done events."""
    for label in labels:
        kinds = [e.kind for e in events if e.label == label]
        assert kinds.count("point-start") == 1, label
        assert kinds.count("point-done") == 1, label
        assert kinds.count("method-done") == methods, label
        done = kinds.index("point-done")
        assert kinds.index("point-start") < done, label
        assert all(
            position > done
            for position, kind in enumerate(kinds)
            if kind == "method-done"
        ), label


class TestProgressEvents:
    def test_streaming_process_run_emits_chunk_events(
        self, cluster_space
    ):
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space[:2],
            methods=["first_principles"],
            mc_config=MonteCarloConfig(trials=2_000, seed=1, chunks=4),
            workers=2,
            executor="process",
            progress=events.append,
        )
        kinds = {e.kind for e in events}
        assert {"point-start", "point-done"} <= kinds
        done = [e for e in events if e.kind == "point-done"]
        assert {e.label for e in done} == {"C=2", "C=8"}
        assert all(e.trials == 2_000 for e in done)

    def test_serial_run_emits_point_events(self, cluster_space):
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space[:2],
            methods=["avf_sofr"],
            reference="exact",
            progress=events.append,
        )
        _assert_point_lifecycles(events, ("C=2", "C=8"), methods=1)

    def test_warm_cache_events_flag_cached_on_every_executor(
        self, cluster_space
    ):
        from repro.methods import ComponentCache

        mc = MonteCarloConfig(trials=1_000, seed=1, chunks=2)
        cache = ComponentCache()
        evaluate_design_space(
            cluster_space[:2], methods=["first_principles"],
            mc_config=mc, cache=cache,
        )
        for executor, workers in (("thread", 1), ("process", 2)):
            events: list[ProgressEvent] = []
            evaluate_design_space(
                cluster_space[:2],
                methods=["first_principles"],
                mc_config=mc,
                cache=cache,
                executor=executor,
                workers=workers,
                progress=events.append,
            )
            _assert_point_lifecycles(events, ("C=2", "C=8"), methods=1)
            done = [
                e for e in events if e.kind in ("point-done", "method-done")
            ]
            assert len(done) == 4, executor
            assert all(e.cached for e in done), executor

    def test_relative_stderr_helper(self, day_system):
        config = MonteCarloConfig(trials=4_000, seed=1)
        moments = system_chunk_moments(
            day_system, chunk_configs(config)[0]
        )
        rel = relative_stderr(moments)
        assert rel is not None and 0 < rel < 1
        assert relative_stderr(None) is None


class TestSweepAudit:
    def test_sweep_results_carry_trial_counts(self, day_profile):
        from repro.core import component_sweep

        outcome = component_sweep(
            {"day": day_profile},
            [1e8, 1e9],
            MonteCarloConfig(trials=2_000, seed=1, chunks=2),
        )
        assert [r.monte_carlo_trials for r in outcome] == [2_000, 2_000]
        for result in outcome:
            assert result.monte_carlo_rel_stderr > 0

    def test_sharded_sweep_keeps_points_aligned(self, day_profile):
        from repro.core import component_sweep

        mc = MonteCarloConfig(trials=2_000, seed=1, chunks=2)
        full = component_sweep({"day": day_profile}, [1e8, 1e9, 1e10], mc)
        shard = component_sweep(
            {"day": day_profile}, [1e8, 1e9, 1e10], mc, shard=(1, 2)
        )
        assert [r.point.label for r in shard] == [
            full[1].point.label
        ]
        assert shard[0].monte_carlo_mttf == full[1].monte_carlo_mttf
        assert shard.result_set.shard == (1, 2)
