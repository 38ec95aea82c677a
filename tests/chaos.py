"""Chaos harness for elastic ledger fleets (PR-10 satellite).

Two halves, one file:

* **Library** (imported by ``test_elastic_fleet.py``): launch real
  member *processes* against one shared ledger file, inject faults at
  controlled protocol points, collect the survivors' ResultSet
  artifacts, and compute the oracle runs (sequential ledger replay,
  unsharded re-allocating run) the chaos assertions compare against.
* **Entry point** (``python tests/chaos.py --ledger ... --slot I``):
  one fleet member. Runs the canonical chaos sweep (the PR-5 straggler
  configuration: one slow-converging point, several early stoppers, so
  budget genuinely crosses shards) through a :class:`ChaoticLedger`
  that can kill its own process mid-round, die right after sealing a
  round, or freeze past the lease — *deterministically*, at the
  requested round, instead of racing parent-sent signals against the
  protocol.

Fault vocabulary (member flags):

``--torn-round K``
    SIGKILL itself *mid-publication* of round K: the round's converged
    and open records hit the file but the sealing ``shard-barrier``
    never does — the torn-round case an adopter must complete.
``--die-after K``
    SIGKILL itself immediately after *sealing* round K — the clean
    crash boundary.
``--pause-at K --pause-for S``
    Freeze for S seconds (heartbeat stopped, exactly like a SIGSTOPped
    process) *before* publishing round K, then resume. With S past the
    fleet lease the member is departed and adopted while frozen, and
    its zombie resumption must produce byte-identical records and
    results (first-occurrence-wins dedup makes the duplicates
    harmless).
``--leave-after K`` / ``--join``
    The cooperative membership moves, passed straight to the ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The canonical chaos sweep: a variant of the PR-5 straggler
#: configuration with *three* slow-converging stragglers (C=2, C=3,
#: C=4 at global points 0, 1, 2) so every slot of a 2- or 3-member
#: fleet owns one and stays active across several rounds — the
#: precondition for mid-protocol leaves, lease expiry, and adoption.
#: The large clusters stop after one chunk and free the budget pool.
CLUSTER_COUNTS = (2, 3, 4, 300, 1000)
TRIALS = 8_000
CHUNKS = 8
SEED = 3
TARGET_CI_HALFWIDTH = 250.0
METHODS = ["first_principles"]

#: Member exit code: a ``--join`` was loudly refused because the run
#: had already finished (the joiner lost the race to an adopter).
JOIN_REFUSED = 3


def build_space():
    """The deterministic design space every member (and oracle) runs."""
    from repro.core import Component, SystemModel
    from repro.masking import busy_idle_profile
    from repro.units import SECONDS_PER_DAY

    profile = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    rate = 2.0 / SECONDS_PER_DAY
    return [
        (
            f"C={c}",
            SystemModel(
                [Component("node", rate, profile, multiplicity=c)]
            ),
        )
        for c in CLUSTER_COUNTS
    ]


def build_mc():
    from repro.core import MonteCarloConfig, StoppingRule

    return MonteCarloConfig(
        trials=TRIALS,
        seed=SEED,
        chunks=CHUNKS,
        stopping=StoppingRule(target_ci_halfwidth=TARGET_CI_HALFWIDTH),
    )


def make_chaotic_ledger(
    path,
    slot: int,
    count: int,
    *,
    replay: bool = False,
    join: bool = False,
    lease: float | None = None,
    leave_after: int | None = None,
    timeout: float = 120.0,
    torn_round: int | None = None,
    die_after: int | None = None,
    pause_at: int | None = None,
    pause_for: float = 0.0,
):
    """A BudgetLedger whose publication path injects the requested fault."""
    from repro.methods.cache import append_record
    from repro.methods.ledger import (
        BudgetLedger,
        POINT_CONVERGED,
        POINT_OPEN,
    )

    class ChaoticLedger(BudgetLedger):
        def publish_round(self, number, freed, opens, converged):
            if pause_at is not None and number == pause_at:
                # A frozen process beats no heartbeats; stopping ours
                # before the sleep reproduces SIGSTOP exactly, and
                # deterministically.
                self.stop_heartbeat()
                time.sleep(pause_for)
                self._start_heartbeat()
            if torn_round is not None and number == torn_round:
                for index, trials in converged:
                    append_record(
                        self.path,
                        self._record(
                            POINT_CONVERGED,
                            round=number,
                            index=index,
                            trials=trials,
                        ),
                    )
                for index, deficit, trials in opens:
                    append_record(
                        self.path,
                        self._record(
                            POINT_OPEN,
                            round=number,
                            index=index,
                            deficit=deficit,
                            trials=trials,
                        ),
                    )
                os.kill(os.getpid(), signal.SIGKILL)
            super().publish_round(number, freed, opens, converged)
            if die_after is not None and number == die_after:
                os.kill(os.getpid(), signal.SIGKILL)

    return ChaoticLedger(
        path,
        shard=(slot, count),
        replay=replay,
        takeover=join,
        lease=lease,
        leave_after=leave_after,
        poll_interval=0.01,
        timeout=timeout,
    )


def run_member_inline(ledger_file, slot, count, **faults):
    """One fleet member, in-process (thread-fleet tests and oracles)."""
    from repro.methods import evaluate_design_space

    return evaluate_design_space(
        build_space(),
        methods=METHODS,
        mc_config=build_mc(),
        shard=(slot, count),
        workers=1,
        reallocate_budget=True,
        budget_ledger=make_chaotic_ledger(
            ledger_file, slot, count, **faults
        ),
    )


def sequential_replay(ledger_file, count):
    """Oracle: replay every slot of a completed ledger, in any order."""
    from repro.methods import merge_result_sets

    return merge_result_sets(
        [
            run_member_inline(ledger_file, slot, count, replay=True)
            for slot in range(count)
        ]
    )


def unsharded_run():
    """Oracle: the whole sweep on one machine, local re-allocation."""
    from repro.methods import evaluate_design_space

    return evaluate_design_space(
        build_space(),
        methods=METHODS,
        mc_config=build_mc(),
        workers=1,
        reallocate_budget=True,
    )


# -- subprocess fleet driver (library half) -------------------------------


class MemberProcess:
    """One launched fleet-member subprocess and its artifact path."""

    def __init__(self, process, out_path, slot):
        self.process = process
        self.out_path = Path(out_path)
        self.slot = slot

    def wait(self, timeout=180.0):
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        return self.process.returncode

    @property
    def result(self):
        """The member's ResultSet, or None if it died artifact-less."""
        from repro.methods import ResultSet

        if not self.out_path.exists():
            return None
        return ResultSet.from_json(self.out_path)


def launch_member(ledger_file, slot, count, out_dir, *, extra=()):
    """Spawn ``python tests/chaos.py`` as fleet member ``slot``."""
    out_path = Path(out_dir) / f"member-{slot}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--ledger",
            str(ledger_file),
            "--slot",
            str(slot),
            "--count",
            str(count),
            "--out",
            str(out_path),
            *extra,
        ],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    return MemberProcess(process, out_path, slot)


def wait_for_round_seal(ledger_file, slot, number, count, timeout=60.0):
    """Block until ``slot`` seals round ``number`` (parent-side probe)."""
    from repro.methods import LedgerState

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if LedgerState.scan(ledger_file, count).sealed(slot, number):
            return
        time.sleep(0.05)
    raise TimeoutError(
        f"slot {slot} never sealed round {number} of {ledger_file}"
    )


def wait_for_depart(ledger_file, slot, count, timeout=60.0):
    """Block until a shard-depart record for ``slot`` is on the ledger.

    Probes :meth:`LedgerState.depart_event`, not ``departed()``: a
    survivor adopting the slot re-joins it, flipping ``departed()``
    back to False between polls.
    """
    from repro.methods import LedgerState

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if LedgerState.scan(ledger_file, count).depart_event(slot):
            return
        time.sleep(0.05)
    raise TimeoutError(f"slot {slot} never departed on {ledger_file}")


def collect_fleet(members, timeout=180.0):
    """Wait for every member; return (results, returncodes)."""
    codes = [member.wait(timeout=timeout) for member in members]
    results = [member.result for member in members]
    return results, codes


# -- subprocess entry (member half) ---------------------------------------


def _member_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="one chaos-fleet member process"
    )
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--lease", type=float, default=None)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--join", action="store_true")
    parser.add_argument("--leave-after", type=int, default=None)
    parser.add_argument("--torn-round", type=int, default=None)
    parser.add_argument("--die-after", type=int, default=None)
    parser.add_argument("--pause-at", type=int, default=None)
    parser.add_argument("--pause-for", type=float, default=0.0)
    args = parser.parse_args(argv)

    from repro.errors import ConfigurationError
    from repro.methods import ShardDeparted, evaluate_design_space

    try:
        result = evaluate_design_space(
            build_space(),
            methods=METHODS,
            mc_config=build_mc(),
            shard=(args.slot, args.count),
            workers=1,
            reallocate_budget=True,
            budget_ledger=make_chaotic_ledger(
                args.ledger,
                args.slot,
                args.count,
                join=args.join,
                lease=args.lease,
                leave_after=args.leave_after,
                timeout=args.timeout,
                torn_round=args.torn_round,
                die_after=args.die_after,
                pause_at=args.pause_at,
                pause_for=args.pause_for,
            ),
        )
    except ShardDeparted as departed:
        print(f"member {args.slot}: {departed}")
        return 0
    except ConfigurationError as refused:
        if args.join and "finished" in str(refused):
            # The joiner raced an in-process adopter that finished the
            # whole run first; the loud refusal is the documented
            # outcome and the adopter's results cover the slot.
            print(f"member {args.slot}: join refused: {refused}")
            return JOIN_REFUSED
        raise
    result.to_json(args.out)
    print(
        f"member {args.slot}/{args.count}: {len(result)} points, "
        f"adopted slots {[s.shard[0] for s in result.adopted]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(_member_main())
