"""A two-machine sweep as one work-conserving fleet.

The sweep below is the classic awkward shape for a sharded run: one
grid point (a tiny two-node cluster with a huge MTTF) needs far more
Monte-Carlo trials than its siblings to reach the precision target,
while the big clusters converge after a single chunk. Split round-robin
across two machines, the straggler lands on shard 0 — and without
coordination, the budget shard 1's easy points free is stranded on
shard 1.

The cross-shard budget ledger fixes that: both shards point at one
ledger file inside the shared cache directory, publish the budget
their early stoppers free, and claim it for the fleet's least-converged
point at deterministic fleet barriers. This script plays both machines
(two threads standing in for two hosts), merges the shard artifacts,
audits the ledger, and then *replays* shard 0 from the completed ledger
to show the whole schedule is deterministic given the ledger contents.

The CLI equivalent is the EXPERIMENTS.md "sharded fleet" recipe::

    repro-experiments fig5 --shard 0/2 --cache-dir /shared/cache \\
        --target-stderr 0.02 --reallocate-budget \\
        --budget-ledger run1 --json shard0.json &
    repro-experiments fig5 --shard 1/2 ... --budget-ledger run1 ...

Run:  python examples/sharded_fleet.py
"""

import tempfile
import threading

from repro import (
    BudgetLedger,
    Component,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
    evaluate_design_space,
    ledger_path,
    merge_result_sets,
)
from repro.methods import LedgerState
from repro.units import SECONDS_PER_DAY
from repro.workloads import day_workload

#: ~2 raw errors/day/node on the diurnal workload.
RATE_PER_SECOND = 2.0 / SECONDS_PER_DAY

#: The C=2 point (global index 0 -> shard 0) is the straggler: its MTTF
#: is ~500x the big clusters', so the absolute half-width target takes
#: far more trials there.
CLUSTER_SIZES = (2, 8, 100, 300, 1000)

MC = MonteCarloConfig(
    trials=8_000,
    seed=3,
    chunks=8,
    stopping=StoppingRule(target_ci_halfwidth=250.0),
)


def build_space(profile):
    return [
        (
            f"C={size}",
            SystemModel(
                [
                    Component(
                        "node", RATE_PER_SECOND, profile,
                        multiplicity=size,
                    )
                ]
            ),
        )
        for size in CLUSTER_SIZES
    ]


def run_shard(space, index, count, ledger_file, out, replay=False):
    """One machine's share of the sweep, coordinated via the ledger."""
    out[index] = evaluate_design_space(
        space,
        methods=["first_principles"],
        mc_config=MC,
        shard=(index, count),
        reallocate_budget=True,
        budget_ledger=BudgetLedger(
            ledger_file, shard=(index, count), replay=replay,
            poll_interval=0.01, timeout=60.0,
        ),
    )
    return out[index]


def main() -> None:
    space = build_space(day_workload())
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as cache_dir:
        ledger_file = ledger_path(cache_dir, "demo")

        # A shard-local baseline: what shard 0 achieves when the budget
        # freed on the *other* machine never reaches it.
        local = evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=MC,
            shard=(0, 2),
            reallocate_budget=True,
        )

        # "Machine A" and "machine B", co-running against one ledger.
        shards: list = [None, None]
        threads = [
            threading.Thread(
                target=run_shard,
                args=(space, index, 2, ledger_file, shards),
            )
            for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = merge_result_sets(shards)

        print("sharded fleet: 2 co-running shards, one budget ledger")
        print(f"  precision target: CI half-width <= "
              f"{MC.stopping.target_ci_halfwidth:g} s")
        trials = merged.reference_trials()
        local_trials = local.reference_trials()
        for label in merged.labels:
            note = ""
            if label in local_trials and trials[label] > (
                local_trials[label]
            ):
                note = (
                    f"  <- straggler: {local_trials[label]} trials "
                    "shard-local, cross-shard budget bought "
                    f"{trials[label] - local_trials[label]} more"
                )
            print(f"  {label:8s} {trials[label]:7d} trials{note}")

        totals = LedgerState.scan(ledger_file, 2).totals()
        print(
            f"  ledger audit: {totals['freed_trials']} trials freed, "
            f"{totals['claimed_trials']} claimed over "
            f"{totals['rounds']} rounds (claimed <= freed: budget "
            "conserved)"
        )

        # Determinism: replay shard 0 from the completed ledger — no
        # waiting, no co-runner — and reproduce its live result
        # bit-for-bit.
        replayed: list = [None]
        run_shard(space, 0, 2, ledger_file, replayed, replay=True)
        assert replayed[0] == shards[0], "replay must be bit-identical"
        print(
            "  replay of shard 0 from the ledger is bit-identical to "
            "the live run"
        )
        print(f"  artifacts merge to {len(merged)} points "
              f"(mc_token ...{merged.mc_token[-8:]})")


if __name__ == "__main__":
    main()
