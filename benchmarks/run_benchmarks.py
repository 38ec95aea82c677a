"""Timing benchmark runner: the repository's performance trajectory.

Times a representative slice of the estimation engine — serial vs
fanned-out sweeps, fixed-count vs adaptive Monte Carlo, cold vs warm
cache — plus trace production (synthesis and simulation, in
instructions/s), the analytical estimators on the paper's sweeps and
the Monte-Carlo sampler (ns/trial), and writes the measurements to
``BENCH_<rev>.json`` so the perf impact of engine changes is a
diffable artifact, not an anecdote::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
    PYTHONPATH=src python benchmarks/run_benchmarks.py \\
        --output-dir benchmarks --trials 100000 --repeat 3

Each case records best-of-``--repeat`` wall time plus enough metadata
(trials, chunking, workers, executor, point count, reference trial
counts for adaptive runs) to interpret a regression. Defaults are sized
to finish in well under a minute; raise ``--trials`` for paper-scale
numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core import Component, MonteCarloConfig, StoppingRule, SystemModel
from repro.errors import ConfigurationError
from repro.masking import busy_idle_profile
from repro.methods import (
    BudgetLedger,
    ComponentCache,
    DiskCache,
    LedgerState,
    ShardDeparted,
    evaluate_design_space,
    merge_result_sets,
)
from repro.units import SECONDS_PER_DAY


def repo_revision() -> str:
    """Short git revision, or 'worktree' outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
    except OSError:
        return "worktree"
    return out.stdout.strip() if out.returncode == 0 else "worktree"


def _cluster_space(points: int):
    profile = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    rate = 2.0 / SECONDS_PER_DAY
    counts = [2, 8, 100, 5000, 50000]
    return [
        (
            f"day/C={counts[i % len(counts)]}/v={i}",
            SystemModel(
                [
                    Component(
                        "node",
                        rate * (1.0 + 0.01 * i),
                        profile,
                        multiplicity=counts[i % len(counts)],
                    )
                ]
            ),
        )
        for i in range(points)
    ]


def _timed(fn, repeat: int) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def benchmark_cases(trials: int, points: int, workers: int):
    """(name, metadata, thunk) for every timed case."""
    space = _cluster_space(points)
    fixed = MonteCarloConfig(trials=trials, seed=7, chunks=8)
    adaptive = MonteCarloConfig(
        trials=trials,
        seed=7,
        chunks=8,
        stopping=StoppingRule(target_rel_stderr=0.02),
    )
    run = lambda **kw: evaluate_design_space(
        space, methods=["sofr_only", "first_principles"], **kw
    )
    cases = [
        (
            "sweep_serial_fixed",
            {"trials": trials, "chunks": 8, "workers": 1,
             "executor": "thread"},
            lambda: run(mc_config=fixed, cache=False),
        ),
        (
            "sweep_threads_fixed",
            {"trials": trials, "chunks": 8, "workers": workers,
             "executor": "thread"},
            lambda: run(mc_config=fixed, workers=workers, cache=False),
        ),
        (
            "sweep_process_streaming_fixed",
            {"trials": trials, "chunks": 8, "workers": workers,
             "executor": "process"},
            lambda: run(
                mc_config=fixed, workers=workers, executor="process",
                cache=False,
            ),
        ),
        (
            "sweep_serial_adaptive_2pct",
            {"trials": trials, "chunks": 8, "workers": 1,
             "executor": "thread", "target_rel_stderr": 0.02},
            lambda: run(mc_config=adaptive, cache=False),
        ),
        (
            "sweep_process_streaming_adaptive_2pct",
            {"trials": trials, "chunks": 8, "workers": workers,
             "executor": "process", "target_rel_stderr": 0.02},
            lambda: run(
                mc_config=adaptive, workers=workers, executor="process",
                cache=False,
            ),
        ),
        (
            "sweep_threads_adaptive_2pct",
            {"trials": trials, "chunks": 8, "workers": workers,
             "executor": "thread", "target_rel_stderr": 0.02},
            lambda: run(mc_config=adaptive, workers=workers, cache=False),
        ),
        # Budget re-allocation spends freed early-stop budget on the
        # stragglers (its reference_trials metadata shows where the
        # budget went).
        (
            "sweep_threads_realloc_adaptive_2pct",
            {"trials": trials, "chunks": 8, "workers": workers,
             "executor": "thread", "target_rel_stderr": 0.02,
             "reallocate_budget": True},
            lambda: run(
                mc_config=adaptive, workers=workers, cache=False,
                reallocate_budget=True,
            ),
        ),
    ]
    return cases


def fleet_cases(trials: int, points: int, shards: int = 2):
    """Ledger-coordinated vs independent co-running shards (PR 5).

    Both variants run the same adaptive sweep as ``shards`` co-running
    reallocating shards (threads standing in for machines); only the
    cross-shard ledger differs. The grid is deliberately *asymmetric*:
    exactly one hard point (C=2, the largest MTTF) at global index 0,
    so it lands on shard 0 while every other shard's early stoppers
    free budget that shard-local re-allocation can only strand. The
    tight absolute half-width target keeps the straggler hungry past
    its own shard's freed budget — the regime where coordination
    matters. Each case records total trials spent, wall-clock, and the
    worst point's achieved precision, so the artifact shows what the
    fleet bought: the coordinated run converts stranded budget into
    precision at the fleet's worst point.
    """
    import threading

    profile = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    rate = 2.0 / SECONDS_PER_DAY
    easy_counts = (100, 5000, 50000, 8, 1000)
    counts = [2] + [
        easy_counts[i % len(easy_counts)] for i in range(points - 1)
    ]
    space = [
        (
            f"day/C={count}/v={i}",
            SystemModel(
                [
                    Component(
                        "node",
                        rate * (1.0 + 0.01 * i),
                        profile,
                        multiplicity=count,
                    )
                ]
            ),
        )
        for i, count in enumerate(counts)
    ]
    mc = MonteCarloConfig(
        trials=trials,
        seed=7,
        chunks=8,
        stopping=StoppingRule(target_ci_halfwidth=100.0),
    )

    def run_shards(ledger_dir: str | None):
        results = [None] * shards

        def one(index):
            ledger = None
            if ledger_dir is not None:
                ledger = BudgetLedger(
                    Path(ledger_dir) / "bench.ledger",
                    shard=(index, shards),
                    poll_interval=0.01,
                    timeout=300.0,
                )
            results[index] = evaluate_design_space(
                space,
                methods=["first_principles"],
                mc_config=mc,
                shard=(index, shards),
                workers=2,
                reallocate_budget=True,
                cache=False,
                budget_ledger=ledger,
            )

        threads = [
            threading.Thread(target=one, args=(index,))
            for index in range(shards)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        return seconds, merge_result_sets(results)

    cases = []
    for name, ledgered in (
        ("xshard_fleet_independent", False),
        ("xshard_fleet_ledger", True),
    ):
        if ledgered:
            with tempfile.TemporaryDirectory(
                prefix="bench-ledger-"
            ) as ledger_dir:
                seconds, merged = run_shards(ledger_dir)
                totals = LedgerState.scan(
                    Path(ledger_dir) / "bench.ledger", shards
                ).totals()
        else:
            seconds, merged = run_shards(None)
            totals = None
        halfwidths = [
            mc.stopping.z * c.reference.std_error_seconds
            for c in merged
        ]
        record = {
            "name": name,
            "seconds": round(seconds, 4),
            "trials": trials,
            "chunks": 8,
            "shards": shards,
            "workers": 2,
            "executor": "thread",
            "target_ci_halfwidth": mc.stopping.target_ci_halfwidth,
            "total_reference_trials": sum(
                merged.reference_trials().values()
            ),
            "worst_ci_halfwidth_seconds": round(max(halfwidths), 2),
        }
        if totals is not None:
            record["ledger"] = {
                "freed_trials": totals["freed_trials"],
                "claimed_trials": totals["claimed_trials"],
                "rounds": totals["rounds"],
            }
        cases.append(record)
    return cases


def elastic_cases(trials: int, points: int, shards: int = 3):
    """Fixed membership vs kill+rejoin on one ledger fleet (PR 10).

    Three fleets over the same asymmetric grid — one straggler per
    slot, so every member stays active across grant rounds:

    * ``elastic_fleet_fixed`` — plain PR-5 fleet, no lease: the
      baseline the membership machinery must not tax.
    * ``elastic_fleet_leased`` — same fixed fleet with heartbeats and
      lease checks on: the record's ``membership_overhead`` ratio is
      the standing cost of failure detection.
    * ``elastic_fleet_kill_adopt`` — one member departs before its
      first grant round (the cooperative stand-in for a kill: the
      ledger trail and the recovery path are identical) and a survivor
      adopts its points; the record carries the epoch trail and the
      trials the adoption recomputed, the real price of elasticity.
    * ``elastic_fleet_kill_rejoin`` — same kill, but a replacement
      takes the slot over mid-run (the ``--join`` path) as soon as the
      depart record lands.

    All three merges are asserted byte-identical — elasticity may cost
    wall-clock, never bits.
    """
    import threading

    profile = busy_idle_profile(0.5 * SECONDS_PER_DAY, SECONDS_PER_DAY)
    rate = 2.0 / SECONDS_PER_DAY
    easy_counts = (100, 5000, 50000, 1000)
    counts = [2, 3, 4] + [
        easy_counts[i % len(easy_counts)] for i in range(max(points, 4) - 3)
    ]
    space = [
        (
            f"day/C={count}/v={i}",
            SystemModel(
                [
                    Component(
                        "node",
                        rate * (1.0 + 0.01 * i),
                        profile,
                        multiplicity=count,
                    )
                ]
            ),
        )
        for i, count in enumerate(counts)
    ]
    mc = MonteCarloConfig(
        trials=trials,
        seed=7,
        chunks=8,
        stopping=StoppingRule(target_ci_halfwidth=100.0),
    )

    def member(ledger_path, slot, results, *, lease, leave_after=None,
               takeover=False):
        ledger = BudgetLedger(
            ledger_path,
            shard=(slot, shards),
            poll_interval=0.01,
            timeout=300.0,
            lease=lease,
            leave_after=leave_after,
            takeover=takeover,
        )
        try:
            results[slot] = evaluate_design_space(
                space,
                methods=["first_principles"],
                mc_config=mc,
                shard=(slot, shards),
                workers=2,
                reallocate_budget=True,
                cache=False,
                budget_ledger=ledger,
            )
        except ShardDeparted:
            pass
        except ConfigurationError:
            if not takeover:
                raise
            # The joiner raced an adopter that already finished the
            # slot (and the run): a refused join of a finished run is
            # the documented loud behaviour, and the survivors'
            # adopted sets cover the slot in the merge.

    def run_fleet(ledger_dir, *, lease, mode=None):
        ledger_path = Path(ledger_dir) / "bench.ledger"
        results = [None] * shards
        threads = [
            threading.Thread(
                target=member,
                args=(ledger_path, slot, results),
                kwargs={
                    "lease": lease,
                    "leave_after": (
                        0 if mode and slot == shards - 1 else None
                    ),
                },
            )
            for slot in range(shards)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        if mode == "rejoin":
            # A replacement joins the running fleet once the departed
            # slot is on the ledger (the --join path).
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline:
                # depart_event, not departed(): an adopter's takeover
                # handle re-joins the slot, flipping departed() back.
                if LedgerState.scan(ledger_path, shards).depart_event(
                    shards - 1
                ):
                    break
                time.sleep(0.02)
            joiner_results = [None] * shards
            joiner = threading.Thread(
                target=member,
                args=(ledger_path, shards - 1, joiner_results),
                kwargs={"lease": lease, "takeover": True},
            )
            joiner.start()
            joiner.join()
            results[shards - 1] = joiner_results[shards - 1]
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        merged = merge_result_sets([r for r in results if r is not None])
        state = LedgerState.scan(ledger_path, shards)
        return seconds, merged, results, state

    cases = []
    merges = {}
    for name, lease, mode in (
        ("elastic_fleet_fixed", None, None),
        ("elastic_fleet_leased", 5.0, None),
        ("elastic_fleet_kill_adopt", 2.0, "adopt"),
        ("elastic_fleet_kill_rejoin", 2.0, "rejoin"),
    ):
        with tempfile.TemporaryDirectory(
            prefix="bench-elastic-"
        ) as ledger_dir:
            seconds, merged, results, state = run_fleet(
                ledger_dir, lease=lease, mode=mode
            )
        merges[name] = merged
        record = {
            "name": name,
            "seconds": round(seconds, 4),
            "trials": trials,
            "chunks": 8,
            "shards": shards,
            "workers": 2,
            "executor": "thread",
            "lease_seconds": lease,
            "target_ci_halfwidth": mc.stopping.target_ci_halfwidth,
            "total_reference_trials": sum(
                merged.reference_trials().values()
            ),
            "epoch": state.epoch(),
            "heartbeat_beats": sum(state.heartbeats.values()),
        }
        if mode:
            record["trials_recomputed_by_adoption"] = sum(
                sum(adopted.reference_trials().values())
                for result in results
                if result is not None
                for adopted in result.adopted
            )
            record["epoch_history"] = [
                list(event) for event in state.epoch_history()
            ]
        cases.append(record)
    fixed = merges["elastic_fleet_fixed"]
    for name, merged in merges.items():
        assert merged.comparisons == fixed.comparisons, (
            f"{name} changed the merged bits"
        )
    baseline = cases[0]["seconds"]
    for record in cases[1:]:
        record["overhead_vs_fixed"] = round(
            record["seconds"] / baseline, 3
        )
    return cases


def _result_hash(result_set) -> str:
    """Short content hash of a ResultSet's canonical JSON bytes."""
    canonical = json.dumps(result_set.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def executor_cases(trials: int, points: int, workers: int, repeat: int):
    """Backend shoot-out on one fixed sweep (the PR-8 executor layer).

    The same fixed-count sweep runs through every registered backend —
    one-worker thread pool, thread pool, process pool, and a two-worker
    loopback ``repro-worker`` fleet — and each record carries the canonical
    content hash of its ResultSet next to ``identical_to_serial``, so
    the artifact *proves* the determinism invariant on the hardware
    that produced the timings instead of asserting it. ``cpu_count``
    rides along in every record: on a 1-CPU host the fan-out rows
    document what parallelism costs there (the honest number), not a
    hoped-for speedup. The remote row measures loopback TCP framing +
    JSON codec overhead, i.e. the protocol tax in isolation from any
    real network.
    """
    from repro.methods import RemoteExecutor
    from repro.methods.worker import BackgroundWorker

    space = _cluster_space(points)
    mc = MonteCarloConfig(trials=trials, seed=7, chunks=8)
    cpus = os.cpu_count() or 1

    def run(n_workers, executor):
        return evaluate_design_space(
            space,
            methods=["sofr_only", "first_principles"],
            mc_config=mc,
            workers=n_workers,
            executor=executor,
            cache=False,
        )

    records = []
    serial_hash = None
    for name, n_workers, executor, label in (
        ("executors_serial", 1, "thread", "thread"),
        ("executors_thread", workers, "thread", "thread"),
        ("executors_process", workers, "process", "process"),
        ("executors_remote_2loopback", 2, None, "remote"),
    ):
        if label == "remote":
            with BackgroundWorker() as w1, BackgroundWorker() as w2:
                backend = RemoteExecutor([w1.address, w2.address])
                seconds, result_set = _timed(
                    lambda: run("auto", backend), repeat
                )
        else:
            seconds, result_set = _timed(
                lambda: run(n_workers, executor), repeat
            )
        digest = _result_hash(result_set)
        if serial_hash is None:
            serial_hash = digest
        records.append(
            {
                "name": name,
                "seconds": round(seconds, 4),
                "trials": trials,
                "chunks": 8,
                "workers": n_workers,
                "executor": label,
                "cpu_count": cpus,
                "result_hash": digest,
                "identical_to_serial": digest == serial_hash,
            }
        )
    return records


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list."""
    rank = max(
        0, min(len(sorted_values) - 1,
               round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[rank]


def service_load_cases(
    trials: int, jobs: int = 12, distinct: int = 4, workers: int = 2
):
    """Concurrent load against a live analysis server (the PR-6 layer).

    ``jobs`` clients submit simultaneously, but only ``distinct``
    fingerprints exist among them — the rest are duplicates the server
    must coalesce, which is the serving layer's whole value
    proposition: under bursty duplicate-heavy load (dashboards,
    retried CI jobs) the engine runs each unique spec once. The record
    carries submission throughput, the observed dedup hit rate, and
    p50/p95 submit-to-done latency so serving-layer changes carry
    numbers just like engine changes do.
    """
    import threading

    from repro.service import BackgroundServer, JobSpec, ServiceClient

    space = _cluster_space(2)
    specs = [
        JobSpec(
            space=tuple(space),
            methods=("sofr_only",),
            mc=MonteCarloConfig(
                trials=trials, seed=100 + (i % distinct), chunks=4
            ),
        )
        for i in range(jobs)
    ]
    latencies: list[float] = []
    coalesced_flags: list[bool] = []
    lock = threading.Lock()

    with BackgroundServer(workers=workers) as server:
        def one(spec):
            client = ServiceClient(server.address)
            started = time.perf_counter()
            submitted = client.submit(spec)
            client.wait(submitted["job"]["id"], timeout=600)
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                coalesced_flags.append(submitted["coalesced"])

        threads = [
            threading.Thread(target=one, args=(spec,)) for spec in specs
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_started
        fleet = ServiceClient(server.address).fleet()

    latencies.sort()
    return [
        {
            "name": "service_load",
            "seconds": round(wall, 4),
            "trials": trials,
            "jobs": jobs,
            "distinct_specs": distinct,
            "service_workers": workers,
            "engine_workers": 1,
            "engine_executor": "thread",
            "submissions": fleet["submissions"],
            "coalesced": sum(coalesced_flags),
            "dedup_hit_rate": round(sum(coalesced_flags) / jobs, 4),
            "throughput_jobs_per_s": round(jobs / wall, 2),
            "p50_latency_s": round(_percentile(latencies, 0.50), 4),
            "p95_latency_s": round(_percentile(latencies, 0.95), 4),
        }
    ]


def lint_cases(repeat: int):
    """Wall time of the repro-lint gate over the real src/ tree.

    The lint-gate CI job pays this cost on every push; recording it
    here keeps "the linter is slow" a diffable number. The record also
    carries the scan size (files, rules, audited suppressions) so a
    timing shift can be attributed to tree growth vs rule cost, and
    asserts the tree is actually clean — a benchmark of a failing gate
    would time the wrong thing.
    """
    from repro.lint import available_rules, run_lint

    src = Path(__file__).resolve().parent.parent / "src"
    seconds, report = _timed(lambda: run_lint([src]), repeat)
    return [
        {
            "name": "lint_full_src_tree",
            "seconds": round(seconds, 4),
            "files_scanned": report.files_scanned,
            "rules_run": len(available_rules()),
            "findings": len(report.findings),
            "audited_suppressions": len(report.suppressed),
        }
    ]


def trace_cases(repeat: int, n_instructions: int = 40_000):
    """Trace production throughput: synthesis and simulation, instr/s.

    One row per SPEC benchmark that ``repro-experiments --all``
    simulates (gzip, mcf, swim) at the default 40k-instruction window.
    Each row carries a SHA-256 over the masking trace, so rows taken on
    two trees show byte-identity as well as speed. Only the public
    ``synthesize_trace``/``simulate`` API is used, so the scenario runs
    unchanged against older trees.
    """
    from repro.microarch import MachineConfig, simulate
    from repro.workloads import spec_benchmark, synthesize_trace

    config = MachineConfig.power4_like()
    records = []
    for name in ("gzip", "mcf", "swim"):
        profile = spec_benchmark(name)
        synth_s, trace = _timed(
            lambda: synthesize_trace(profile, n_instructions, seed=0), repeat
        )
        sim_s, result = _timed(
            lambda: simulate(trace, config, workload=name), repeat
        )
        digest = hashlib.sha256()
        masking = result.masking_trace
        for component in masking.component_names:
            digest.update(masking.mask(component).tobytes())
        records.append(
            {
                "name": f"trace_{name}",
                "seconds": round(synth_s + sim_s, 4),
                "instructions": n_instructions,
                "synthesize_s": round(synth_s, 4),
                "simulate_s": round(sim_s, 4),
                "synthesize_instr_per_s": round(n_instructions / synth_s),
                "simulate_instr_per_s": round(n_instructions / sim_s),
                "masks_sha256": digest.hexdigest(),
            }
        )
    return records


def _mttf_sha256(values) -> str:
    import numpy as np

    digest = hashlib.sha256(np.asarray(values, dtype=float).tobytes())
    return digest.hexdigest()


def estimator_cases(repeat: int, n_instructions: int = 40_000):
    """The analytical estimators on the paper's sweeps, in seconds.

    * SoftArch and the first-principles closed form over the 72 systems
      of ``repro-experiments sec5.4``, built as ``run_sec54`` builds
      them (the ``combined`` workload from undilated gzip and swim
      profiles, SPEC workloads dilated to the paper's window);
    * the SOFR fold over fig6a's 36 systems (gzip/mcf/swim x three
      N x S x C in 2/8/5000/50000), with each component's exact MTTF.

    Each row carries a SHA-256 over the MTTFs' float64 bytes, so rows
    taken on two trees show bit-identity as well as speed. Only the
    public API is used, so the scenario runs unchanged on older trees.
    """
    from repro.core import (
        exact_component_mttf,
        first_principles_mttf,
        softarch_mttf,
        sofr_mttf_from_components,
        timeline_from_intensity,
    )
    from repro.harness import processor_profile
    from repro.ser import component_rate_per_second
    from repro.workloads import (
        combined_workload,
        day_workload,
        week_workload,
    )

    def spec(bench, dilate):
        return processor_profile(
            bench, n_instructions, dilate_to_paper_window=dilate
        )

    sec54_workloads = {
        "day": day_workload(),
        "week": week_workload(),
        "combined": combined_workload(
            spec("gzip", False), spec("swim", False)
        ),
        **{b: spec(b, True) for b in ("gzip", "mcf", "swim")},
    }
    sec54 = [
        SystemModel(
            [
                Component(
                    name,
                    component_rate_per_second(n_times_s, 1.0),
                    profile,
                    multiplicity=count,
                )
            ]
        )
        for name, profile in sec54_workloads.items()
        for n_times_s in (1e8, 1e10, 1e12)
        for count in (1, 8, 5000, 50000)
    ]
    events = sum(
        timeline_from_intensity(s.combined_intensity()).event_count
        for s in sec54
    )
    records = []
    for name, estimate in (
        ("softarch", softarch_mttf),
        ("first_principles", first_principles_mttf),
    ):
        seconds, mttfs = _timed(
            lambda: [estimate(s).mttf_seconds for s in sec54], repeat
        )
        record = {
            "name": f"estimators_{name}_sec54",
            "seconds": round(seconds, 4),
            "systems": len(sec54),
            "mttf_sha256": _mttf_sha256(mttfs),
        }
        if name == "softarch":
            record["events"] = events
        records.append(record)

    fig6a = []
    for bench in ("gzip", "mcf", "swim"):
        profile = spec(bench, True)
        for n_times_s in (1e9, 2e12, 5e12):
            rate = component_rate_per_second(n_times_s, 1.0)
            value = exact_component_mttf(rate, profile)
            for count in (2, 8, 5000, 50000):
                system = SystemModel(
                    [Component(bench, rate, profile, multiplicity=count)]
                )
                fig6a.append((system, value))
    seconds, mttfs = _timed(
        lambda: [
            sofr_mttf_from_components(s, lambda _c, v=v: v).mttf_seconds
            for s, v in fig6a
        ],
        repeat,
    )
    records.append(
        {
            "name": "estimators_sofr_fig6a",
            "seconds": round(seconds, 4),
            "systems": len(fig6a),
            "instances": sum(s.component_count for s, _ in fig6a),
            "mttf_sha256": _mttf_sha256(mttfs),
        }
    )
    return records


def sampler_cases(
    repeat: int, trials: int = 1_000_000, n_instructions: int = 40_000
):
    """The Monte-Carlo inverse sampler, in ms and ns per trial.

    One row per system and start phase, ``trials`` draws each, through
    ``sample_system_ttf`` (one chunk):

    * ``day`` — the busy/idle day workload (2 segments);
    * ``gzip_fig6a`` — fig6a's gzip profile dilated to the paper's
      window (13,681 segments);
    * ``combined_sec54`` — sec5.4's nested ``combined`` workload (inner
      tables of 13,681 and 13,045 segments);

    all at eight components. The plan is built by an untimed warm-up
    draw. Each row carries a SHA-256 over the samples' float64 bytes,
    so rows taken on two trees show bit-identity as well as speed. Only
    the public API is used, so the scenario runs unchanged on older
    trees.
    """
    from repro.core import sample_system_ttf
    from repro.harness import processor_profile
    from repro.ser import component_rate_per_second
    from repro.workloads import combined_workload, day_workload

    def spec(bench, dilate):
        return processor_profile(
            bench, n_instructions, dilate_to_paper_window=dilate
        )

    workloads = {
        "day": ("day", 1e10, day_workload()),
        "gzip_fig6a": ("gzip", 2e12, spec("gzip", True)),
        "combined_sec54": (
            "combined",
            1e10,
            combined_workload(spec("gzip", False), spec("swim", False)),
        ),
    }
    records = []
    for name, (label, n_times_s, profile) in workloads.items():
        rate = component_rate_per_second(n_times_s, 1.0)
        system = SystemModel(
            [Component(label, rate, profile, multiplicity=8)]
        )
        for phase in ("zero", "random"):
            config = MonteCarloConfig(
                trials=trials, seed=11, chunks=1, start_phase=phase
            )
            sample_system_ttf(system, config)
            seconds, samples = _timed(
                lambda: sample_system_ttf(system, config), repeat
            )
            records.append(
                {
                    "name": f"sampler_{name}_{phase}",
                    "seconds": round(seconds, 4),
                    "ms": round(seconds * 1e3, 2),
                    "ns_per_trial": round(seconds * 1e9 / trials, 1),
                    "trials": trials,
                    "samples_sha256": hashlib.sha256(
                        samples.tobytes()
                    ).hexdigest(),
                }
            )
    return records


#: Benchmark sections selectable via --scenario.
SCENARIOS = (
    "all", "engine", "cache", "executors", "fleet",
    "elastic", "service_load", "lint", "trace", "estimators", "sampler",
)


def run_benchmarks(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(
        description="Time the estimation engine; write BENCH_<rev>.json"
    )
    parser.add_argument("--trials", type=int, default=40_000)
    parser.add_argument("--points", type=int, default=6)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument(
        "--scenario", choices=SCENARIOS, default="all",
        help="run one benchmark section instead of the full suite",
    )
    parser.add_argument(
        "--output-dir", default=".", help="where BENCH_<rev>.json lands"
    )
    parser.add_argument(
        "--rev",
        default=None,
        help="revision label for the artifact (default: git short rev; "
        "pass an explicit label when measuring an uncommitted tree)",
    )
    args = parser.parse_args(argv)

    def wants(section: str) -> bool:
        return args.scenario in ("all", section)

    rev = args.rev or repo_revision()
    results = []
    if wants("engine"):
        for name, metadata, thunk in benchmark_cases(
            args.trials, args.points, args.workers
        ):
            seconds, result_set = _timed(thunk, args.repeat)
            record = {
                "name": name, "seconds": round(seconds, 4), **metadata
            }
            if "adaptive" in name:
                trials_used = list(result_set.reference_trials().values())
                record["reference_trials"] = {
                    "min": min(trials_used),
                    "max": max(trials_used),
                    "total": sum(trials_used),
                }
            results.append(record)
            print(f"{name:44s} {seconds:8.3f}s")

    # Cold vs warm disk cache on the same sweep (one repeat each; the
    # warm number is the content-addressed lookup overhead).
    if wants("cache"):
        space = _cluster_space(args.points)
        mc = MonteCarloConfig(trials=args.trials, seed=7, chunks=8)
        with tempfile.TemporaryDirectory(
            prefix="bench-cache-"
        ) as cache_dir:
            for phase in ("cold", "warm"):
                cache = ComponentCache(disk=DiskCache(cache_dir))
                seconds, _ = _timed(
                    lambda: evaluate_design_space(
                        space, methods=["sofr_only"], mc_config=mc,
                        cache=cache,
                    ),
                    1,
                )
                results.append(
                    {
                        "name": f"sweep_disk_cache_{phase}",
                        "seconds": round(seconds, 4),
                        "trials": args.trials,
                        "chunks": 8,
                        "workers": 1,
                        "executor": "thread",
                        "entries": len(cache),
                    }
                )
                print(f"sweep_disk_cache_{phase:39s} {seconds:8.3f}s")

    # Backend shoot-out: every executor on one sweep, hashes attached.
    if wants("executors"):
        for record in executor_cases(
            args.trials, args.points, args.workers, args.repeat
        ):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"identical_to_serial={record['identical_to_serial']}"
            )

    # Cross-shard fleet: ledger-coordinated vs independent shards.
    if wants("fleet"):
        for record in fleet_cases(args.trials, args.points):
            results.append(record)
            extra = ""
            if "ledger" in record:
                extra = (
                    f"  (claimed {record['ledger']['claimed_trials']} of "
                    f"{record['ledger']['freed_trials']} freed trials)"
                )
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"trials={record['total_reference_trials']} "
                f"worst_hw={record['worst_ci_halfwidth_seconds']}s{extra}"
            )

    # Elastic membership: fixed fleet vs leased fleet vs kill+rejoin.
    if wants("elastic"):
        for record in elastic_cases(args.trials, args.points):
            results.append(record)
            extra = ""
            if "overhead_vs_fixed" in record:
                extra = f"  ({record['overhead_vs_fixed']}x vs fixed)"
            if "trials_recomputed_by_adoption" in record:
                extra += (
                    f"  readopted="
                    f"{record['trials_recomputed_by_adoption']} trials"
                )
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"epoch={record['epoch']}{extra}"
            )

    # Serving layer: concurrent duplicate-heavy load over HTTP.
    if wants("service_load"):
        for record in service_load_cases(args.trials):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"{record['throughput_jobs_per_s']} jobs/s  "
                f"dedup={record['coalesced']}/{record['jobs']}  "
                f"p50={record['p50_latency_s']}s "
                f"p95={record['p95_latency_s']}s"
            )

    # Static-analysis gate: repro-lint wall time over src/.
    if wants("lint"):
        for record in lint_cases(args.repeat):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"files={record['files_scanned']} "
                f"findings={record['findings']} "
                f"suppressions={record['audited_suppressions']}"
            )

    # Trace production: synthesis and simulation throughput.
    if wants("trace"):
        for record in trace_cases(args.repeat):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"synthesize={record['synthesize_instr_per_s']}/s "
                f"simulate={record['simulate_instr_per_s']}/s"
            )

    # Analytical estimators: SoftArch, first principles, SOFR fold.
    if wants("estimators"):
        for record in estimator_cases(args.repeat):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"systems={record['systems']} "
                f"sha256={record['mttf_sha256'][:16]}"
            )

    # Monte-Carlo inverse sampler: ms and ns/trial at 1e6 trials.
    if wants("sampler"):
        for record in sampler_cases(args.repeat):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"{record['ns_per_trial']} ns/trial "
                f"sha256={record['samples_sha256'][:16]}"
            )

    payload = {
        "schema": "repro.bench/v1",
        "revision": rev,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": {
            "trials": args.trials,
            "points": args.points,
            "workers": args.workers,
            "repeat": args.repeat,
            "cpu_count": os.cpu_count() or 1,
        },
        "results": results,
    }
    output = Path(args.output_dir) / f"BENCH_{rev}.json"
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return output


if __name__ == "__main__":
    sys.exit(0 if run_benchmarks() else 1)
