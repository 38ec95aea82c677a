"""Cross-shard budget ledger tests (PR-5 tentpole).

Covers the ledger file discipline (torn-record skip, deterministic
duplicate rejection), the pure allocation policy, and the acceptance
bars: a ledger-coordinated fleet's merged ResultSet is bit-identical
across worker counts and executors, a sequential replay of the
completed ledger reproduces the live fleet bit-for-bit, total granted
trials never exceed total freed trials, and ``merge`` refuses to mix
``+xshard`` artifacts with plain or ``+realloc`` shards.
"""

import dataclasses
import threading

import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
    allocate_grants,
    extension_chunk_config,
    extension_chunk_configs,
)
from repro.errors import ConfigurationError, EstimationError
from repro.methods import (
    BudgetLedger,
    LedgerState,
    evaluate_design_space,
    ledger_path,
    merge_result_sets,
)
from repro.methods.cache import append_record, scan_records
from repro.methods.progress import BUDGET_CLAIMED, ProgressEvent
from repro.units import SECONDS_PER_DAY

#: Absolute-precision rule sized so the large-MTTF C=2 point exhausts
#: its base budget while small-MTTF points stop after one chunk — the
#: configuration where freed budget actually crosses shards.
STRAGGLER_MC = MonteCarloConfig(
    trials=8_000,
    seed=3,
    chunks=8,
    stopping=StoppingRule(target_ci_halfwidth=250.0),
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


def run_fleet(
    space,
    ledger_file,
    shards=2,
    replay=False,
    workers=(1, 1),
    executors=("thread", "thread"),
    progress=None,
):
    """Run every shard of one ledger fleet; co-running unless replaying."""
    results = [None] * shards
    errors = []

    def one(i):
        results[i] = evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(i, shards),
            workers=workers[i % len(workers)],
            executor=executors[i % len(executors)],
            reallocate_budget=True,
            progress=progress,
            budget_ledger=BudgetLedger(
                ledger_file,
                shard=(i, shards),
                replay=replay,
                poll_interval=0.01,
                timeout=120.0,
            ),
        )

    def guarded(i):
        try:
            one(i)
        except Exception as error:  # re-raised in the test thread
            errors.append(error)

    if replay:
        # Replay follows the recorded rounds with no waiting, so the
        # shards rerun sequentially, in any order.
        for index in reversed(range(shards)):
            one(index)
    else:
        threads = [
            threading.Thread(target=guarded, args=(index,))
            for index in range(shards)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    return results


class TestRecordDiscipline:
    def test_append_scan_round_trip(self, tmp_path):
        path = tmp_path / "log.ledger"
        records = [{"kind": "a", "n": 1}, {"kind": "b", "deficit": 1.75}]
        for record in records:
            append_record(path, record)
        assert scan_records(path) == records

    def test_missing_file_reads_empty(self, tmp_path):
        assert scan_records(tmp_path / "absent.ledger") == []

    def test_torn_tail_is_skipped_and_resynchronized(self, tmp_path):
        # A writer dying mid-append leaves a torn last record; other
        # shards must skip it without error, and the next append's
        # leading newline must keep later records readable.
        path = tmp_path / "log.ledger"
        append_record(path, {"kind": "a"})
        with open(path, "ab") as handle:
            handle.write(b'\n{"kind": "torn", "trials": 12')
        assert scan_records(path) == [{"kind": "a"}]
        append_record(path, {"kind": "b"})
        assert scan_records(path) == [{"kind": "a"}, {"kind": "b"}]

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        path = tmp_path / "log.ledger"
        append_record(path, {"kind": "a"})
        with open(path, "ab") as handle:
            handle.write(b"\nnot json at all\n")
        append_record(path, {"kind": "b"})
        assert scan_records(path) == [{"kind": "a"}, {"kind": "b"}]

    def test_duplicate_claims_rejected_first_wins(self, tmp_path):
        # A crashed-and-rerun shard may re-append a budget-claimed
        # record; every reader must resolve the duplicate the same way
        # (first occurrence in file order wins).
        path = tmp_path / "log.ledger"
        claim = {
            "kind": "budget-claimed", "shard": 0, "round": 0,
            "index": 2, "trials": 500, "chunks": 1,
        }
        append_record(path, claim)
        append_record(path, {**claim, "trials": 9_999})
        for _scan in range(2):
            state = LedgerState.scan(path, 2)
            assert state.claims[(0, 0, 2)] == 500
            assert state.duplicates == 1

    def test_malformed_record_fields_are_skipped(self, tmp_path):
        path = tmp_path / "log.ledger"
        append_record(path, {"kind": "budget-freed", "shard": 0})  # no round
        append_record(
            path,
            {"kind": "budget-freed", "shard": 0, "round": 0, "trials": 7},
        )
        state = LedgerState.scan(path, 1)
        assert state.rounds[(0, 0)].freed == 7


class TestAllocateGrants:
    def test_round_robin_worst_deficit_first(self):
        grants = allocate_grants(
            2_500, [(1.2, 4), (3.0, 1), (1.2, 2)], 1_000
        )
        # Ranked 1 (3.0), 2 (1.2, lower index), 4; pool spent exactly,
        # final grant partial.
        assert grants == {1: [1_000], 2: [1_000], 4: [500]}

    def test_empty_pool_or_demands(self):
        assert allocate_grants(0, [(1.0, 0)], 100) == {}
        assert allocate_grants(100, [], 100) == {}

    def test_rejects_bad_unit(self):
        with pytest.raises(EstimationError, match="unit"):
            allocate_grants(100, [(1.0, 0)], 0)

    def test_extension_chunk_configs_matches_singular(self):
        config = MonteCarloConfig(trials=8_000, seed=3, chunks=4)
        plural = extension_chunk_configs(config, 4, [2_000, 500])
        assert plural == [
            extension_chunk_config(config, 4, 2_000),
            extension_chunk_config(config, 5, 500),
        ]


class TestLedgerValidation:
    def test_run_id_validation(self, tmp_path):
        assert ledger_path(tmp_path, "run-1.a").name == (
            "xshard-run-1.a.ledger"
        )
        with pytest.raises(ConfigurationError, match="run id"):
            ledger_path(tmp_path, "bad/run")

    def test_requires_matching_shard(self, cluster_space, tmp_path):
        ledger = BudgetLedger(tmp_path / "a.ledger", shard=(0, 2))
        with pytest.raises(ConfigurationError, match="shard"):
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=STRAGGLER_MC,
                shard=(1, 2),
                reallocate_budget=True,
                budget_ledger=ledger,
            )

    def test_requires_reallocate_and_adaptive_reference(
        self, cluster_space, tmp_path
    ):
        ledger = BudgetLedger(tmp_path / "a.ledger", shard=(0, 1))
        with pytest.raises(ConfigurationError, match="reallocate"):
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=STRAGGLER_MC,
                shard=(0, 1),
                budget_ledger=ledger,
            )
        with pytest.raises(ConfigurationError, match="adaptive"):
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=MonteCarloConfig(trials=1_000, chunks=4),
                shard=(0, 1),
                reallocate_budget=True,
                budget_ledger=ledger,
            )

    def test_live_rerun_on_used_ledger_is_rejected(
        self, cluster_space, tmp_path
    ):
        path = tmp_path / "fleet.ledger"
        run_fleet(cluster_space, path, shards=1)
        with pytest.raises(ConfigurationError, match="fresh run id"):
            run_fleet(cluster_space, path, shards=1)

    def test_mismatched_sibling_config_is_rejected(
        self, cluster_space, tmp_path
    ):
        path = tmp_path / "fleet.ledger"
        run_fleet(cluster_space, path, shards=1)
        # A second shard joining with a different method set must fail
        # loudly instead of coordinating garbage.
        with pytest.raises(ConfigurationError, match="configuration"):
            evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=STRAGGLER_MC,
                shard=(0, 1),
                reallocate_budget=True,
                budget_ledger=BudgetLedger(
                    path, shard=(0, 1), replay=True
                ),
            )

    def test_rendezvous_times_out_without_siblings(
        self, cluster_space, tmp_path
    ):
        # A fleet needs its shards co-running: a lone shard of a
        # 2-shard fleet must fail loudly, never hang or silently
        # degrade into an uncoordinated run.
        ledger = BudgetLedger(
            tmp_path / "lonely.ledger",
            shard=(0, 2),
            poll_interval=0.01,
            timeout=0.3,
        )
        with pytest.raises(EstimationError, match="co-running"):
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=STRAGGLER_MC,
                shard=(0, 2),
                reallocate_budget=True,
                budget_ledger=ledger,
            )

    def test_torn_tail_in_live_ledger_is_tolerated(
        self, cluster_space, tmp_path
    ):
        # A torn record left by a previous writer's crash must not
        # break a live shard scanning the file.
        path = tmp_path / "fleet.ledger"
        with open(path, "wb") as handle:
            handle.write(b'{"kind": "shard-hel')
        (result,) = run_fleet(cluster_space, path, shards=1)
        assert len(result) == len(cluster_space)


class TestFleetCoordination:
    def test_budget_crosses_shards(self, cluster_space, tmp_path):
        # Shard 0 owns the sole straggler (C=2, global index 0); the
        # budget freed by shard 1's early stoppers must reach it, so
        # the fleet gives it strictly more trials than shard-local
        # re-allocation could.
        local = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(0, 2),
            reallocate_budget=True,
        )
        events: list[ProgressEvent] = []
        shard0, shard1 = run_fleet(
            cluster_space, tmp_path / "fleet.ledger", progress=events.append
        )
        assert shard0.reference_trials()["C=2"] > (
            local.reference_trials()["C=2"]
        )
        claims = [e for e in events if e.kind == BUDGET_CLAIMED]
        assert claims and {e.label for e in claims} == {"C=2"}

    def test_fleet_conserves_and_audits_budget(
        self, cluster_space, tmp_path
    ):
        path = tmp_path / "fleet.ledger"
        shard0, shard1 = run_fleet(cluster_space, path)
        merged = merge_result_sets([shard0, shard1])
        assert sum(merged.reference_trials().values()) <= (
            STRAGGLER_MC.trials * len(cluster_space)
        )
        totals = BudgetLedger(path, shard=(0, 2), replay=True).audit()
        assert 0 < totals["claimed_trials"] <= totals["freed_trials"]
        state = LedgerState.scan(path, 2)
        assert state.duplicates == 0
        assert set(state.hellos) == {0, 1}

    def test_merged_fleet_bit_identical_across_workers_executors(
        self, cluster_space, tmp_path
    ):
        first = merge_result_sets(
            run_fleet(cluster_space, tmp_path / "a.ledger")
        )
        second = merge_result_sets(
            run_fleet(
                cluster_space,
                tmp_path / "b.ledger",
                workers=(3, 2),
                executors=("thread", "process"),
            )
        )
        assert second == first
        assert first.mc_token.endswith("+xshard")

    def test_replay_reproduces_the_live_fleet(
        self, cluster_space, tmp_path
    ):
        path = tmp_path / "fleet.ledger"
        live = merge_result_sets(run_fleet(cluster_space, path))
        replayed = merge_result_sets(
            run_fleet(cluster_space, path, replay=True)
        )
        assert replayed == live

    def test_replay_of_divergent_config_fails_loudly(
        self, cluster_space, tmp_path
    ):
        path = tmp_path / "fleet.ledger"
        run_fleet(cluster_space, path)
        with pytest.raises(
            (ConfigurationError, EstimationError), match="replay"
        ):
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                mc_config=dataclasses.replace(STRAGGLER_MC, seed=99),
                shard=(0, 2),
                reallocate_budget=True,
                budget_ledger=BudgetLedger(
                    path, shard=(0, 2), replay=True
                ),
            )

    def test_single_shard_fleet_matches_local_reallocation(
        self, cluster_space, tmp_path
    ):
        # With n=1 the global pool and demand set equal the local ones,
        # so the ledger schedule degenerates to PR-4 re-allocation
        # exactly; only the mc_token tag differs.
        local = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(0, 1),
            reallocate_budget=True,
        )
        (fleet,) = run_fleet(
            cluster_space, tmp_path / "solo.ledger", shards=1
        )
        assert fleet.comparisons == local.comparisons
        assert local.mc_token.endswith("+realloc")
        assert fleet.mc_token.endswith("+xshard")

    def test_merge_refuses_mixing_xshard_with_realloc_or_plain(
        self, cluster_space, tmp_path
    ):
        (xshard0, _xshard1) = run_fleet(
            cluster_space, tmp_path / "fleet.ledger"
        )
        realloc1 = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(1, 2),
            reallocate_budget=True,
        )
        plain1 = evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=STRAGGLER_MC,
            shard=(1, 2),
        )
        for other in (realloc1, plain1):
            with pytest.raises(ConfigurationError, match="different runs"):
                merge_result_sets([xshard0, other])

    def test_ledger_records_are_auditable_json(
        self, cluster_space, tmp_path
    ):
        path = tmp_path / "fleet.ledger"
        run_fleet(cluster_space, path)
        records = scan_records(path)
        kinds = {record["kind"] for record in records}
        assert {
            "shard-hello", "point-open", "point-converged",
            "budget-freed", "budget-claimed", "shard-barrier",
            "shard-done",
        } <= kinds
        # Every record is one self-describing JSON object per line.
        claimed = sum(
            r["trials"] for r in records if r["kind"] == "budget-claimed"
        )
        freed = sum(
            r["trials"] for r in records if r["kind"] == "budget-freed"
        )
        assert 0 < claimed <= freed
        # point-converged audit covers every point in the fleet.
        converged = {
            r["index"] for r in records if r["kind"] == "point-converged"
        }
        assert converged == set(range(len(cluster_space)))
