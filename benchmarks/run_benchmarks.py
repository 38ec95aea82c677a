"""Timing benchmark runner: the repository's performance trajectory.

Times a representative slice of the estimation engine — serial vs
fanned-out sweeps, cold vs warm cache — plus trace production
(synthesis and simulation, in instructions/s), the analytical
estimators on the paper's sweeps and the Monte-Carlo sampler
(ns/trial), and writes the measurements to
``BENCH_<rev>.json`` so the perf impact of engine changes is a
diffable artifact, not an anecdote::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
    PYTHONPATH=src python benchmarks/run_benchmarks.py \\
        --output-dir benchmarks --trials 100000 --repeat 3

Each case records best-of-``--repeat`` wall time plus enough metadata
(trials, workers, point count) to interpret a regression. Defaults are sized
to finish in well under a minute; raise ``--trials`` for paper-scale
numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.core.kernel import clear_plan_cache
from repro.masking import busy_idle_profile
from repro.methods import (
    ComponentCache,
    DiskCache,
    evaluate_design_space,
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


def _result_hash(result_set) -> str:
    """Short content hash of a ResultSet's canonical JSON bytes."""
    canonical = json.dumps(result_set.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def engine_cases(trials: int, points: int, workers: int, repeat: int):
    """One fixed sweep on a one-worker and a ``workers``-wide pool.

    Each record carries the canonical content hash of its ResultSet
    next to ``identical_to_serial``, so the artifact *proves* the
    determinism invariant on the hardware that produced the timings
    instead of asserting it. ``cpu_count`` rides along in every record:
    on a 1-CPU host the fan-out row documents what parallelism costs
    there (the honest number), not a hoped-for speedup.
    """
    space = _cluster_space(points)
    mc = MonteCarloConfig(trials=trials, seed=7)
    cpus = os.cpu_count() or 1

    def run(n_workers):
        # Every row and repeat starts cold: it compiles its plans and
        # draws its stream itself, instead of reusing the previous one's.
        clear_plan_cache()
        return evaluate_design_space(
            space,
            methods=["sofr_only", "first_principles"],
            mc_config=mc,
            workers=n_workers,
        )

    records = []
    serial_hash = None
    for name, n_workers in (
        ("sweep_serial_fixed", 1),
        ("sweep_threads_fixed", workers),
    ):
        seconds, result_set = _timed(lambda: run(n_workers), repeat)
        digest = _result_hash(result_set)
        if serial_hash is None:
            serial_hash = digest
        records.append(
            {
                "name": name,
                "seconds": round(seconds, 4),
                "trials": trials,
                "workers": n_workers,
                "cpu_count": cpus,
                "result_hash": digest,
                "identical_to_serial": digest == serial_hash,
            }
        )
    return records


def _masks_update(digest, masking) -> None:
    """Feed every mask of a masking trace, in component order."""
    for component in masking.component_names:
        digest.update(masking.mask(component).tobytes())


def trace_cases(repeat: int, n_instructions: int = 40_000):
    """Trace production throughput: synthesis and simulation, instr/s.

    One row per SPEC benchmark that ``repro-experiments --all``
    simulates (gzip, mcf, swim) at the default 40k-instruction window,
    each built in this process, then ``trace_all_parallel``: the three
    built at once by ``spec_setup.masking_traces`` from a cleared cache,
    one worker process per trace on a multi-CPU Linux host (what the
    runner does before its check pass). Each row carries a SHA-256
    over its masks, so rows taken on two trees show byte-identity as
    well as speed; the batch row's must equal the serial rows' combined
    digest (``identical_to_serial``). On a tree without
    ``masking_traces`` the batch row builds the three one after another
    with ``masking_trace_for`` (``parallel: false``), as that tree's
    runner did.
    """
    from repro.harness import spec_setup
    from repro.microarch import MachineConfig, simulate
    from repro.workloads import spec_benchmark, synthesize_trace

    config = MachineConfig.power4_like()
    benchmarks = ("gzip", "mcf", "swim")
    records = []
    combined = hashlib.sha256()
    for name in benchmarks:
        profile = spec_benchmark(name)
        synth_s, trace = _timed(
            lambda: synthesize_trace(profile, n_instructions, seed=0), repeat
        )
        sim_s, result = _timed(
            lambda: simulate(trace, config, workload=name), repeat
        )
        digest = hashlib.sha256()
        _masks_update(digest, result.masking_trace)
        _masks_update(combined, result.masking_trace)
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

    batch = getattr(spec_setup, "masking_traces", None)
    parallel = batch is not None
    if batch is None:
        def batch(names, n):
            return [spec_setup.masking_trace_for(b, n) for b in names]

    def build():
        spec_setup.clear_trace_cache()
        return batch(benchmarks, n_instructions)

    seconds, traces = _timed(build, repeat)
    spec_setup.clear_trace_cache()
    digest = hashlib.sha256()
    for masking in traces:
        _masks_update(digest, masking)
    instructions = n_instructions * len(benchmarks)
    records.append(
        {
            "name": "trace_all_parallel",
            "seconds": round(seconds, 4),
            "instructions": instructions,
            "parallel": parallel,
            "cpu_count": os.cpu_count() or 1,
            "instr_per_s": round(instructions / seconds),
            "masks_sha256": digest.hexdigest(),
            "identical_to_serial": digest.hexdigest() == combined.hexdigest(),
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
    ``sample_system_ttf``:

    * ``day`` — the busy/idle day workload (2 segments);
    * ``week`` — the busy/idle week workload (2 segments);
    * ``day_idle_first`` — the day loop starting with its idle half, so
      the one segment that accrues hazard does not start at 0;
    * ``gzip_fig6a`` — fig6a's gzip profile dilated to the paper's
      window (13,681 segments);
    * ``combined_sec54`` — sec5.4's nested ``combined`` workload (inner
      tables of 13,681 and 13,045 segments);

    all at eight components. The plan is built by an untimed warm-up
    draw. Each row carries a SHA-256 over the samples' float64 bytes,
    so rows taken on two trees show bit-identity as well as speed. Only
    the public API is used, so the scenario runs unchanged on older
    trees.

    One ``sampler_<system>_plan_build`` row per system times what the
    warm-up leaves out: compiling the intensity and building every
    segment lookup that draws in either phase use (its queries reach
    every outer segment), so work moved from the draws into set-up
    shows.

    A process draws each ``(seed, trials)`` stream of uniforms once, so
    the warmed-up row times only what draws sharing a stream cost. Each
    ``sampler_<system>_<phase>_fresh`` row times draws at a seed no
    earlier draw used (a new one per repeat), which pays for the stream
    too; its digest is over its last draw.
    """
    import numpy as np

    fresh_seeds = itertools.count(1000)
    from repro.core import sample_system_ttf
    from repro.core.kernel import compile_intensity
    from repro.harness import processor_profile
    from repro.ser import component_rate_per_second
    from repro.masking import PiecewiseProfile
    from repro.workloads import combined_workload, day_workload, week_workload

    def spec(bench, dilate):
        return processor_profile(
            bench, n_instructions, dilate_to_paper_window=dilate
        )

    idle_first = PiecewiseProfile(
        [0.0, SECONDS_PER_DAY / 2, SECONDS_PER_DAY], [0.0, 1.0]
    )
    workloads = {
        "day": ("day", 1e10, day_workload()),
        "week": ("week", 1e10, week_workload()),
        "day_idle_first": ("day", 1e10, idle_first),
        "gzip_fig6a": ("gzip", 2e12, spec("gzip", True)),
        "combined_sec54": (
            "combined",
            1e10,
            combined_workload(spec("gzip", False), spec("swim", False)),
        ),
    }
    def plan_build(system):
        compiled = compile_intensity(system.combined_intensity())
        compiled.invert(np.linspace(0.0, compiled.mass, 1025)[1:])
        compiled.cumulative(np.linspace(0.0, compiled.period, 1025))

    records = []
    for name, (label, n_times_s, profile) in workloads.items():
        rate = component_rate_per_second(n_times_s, 1.0)
        system = SystemModel(
            [Component(label, rate, profile, multiplicity=8)]
        )
        seconds, _ = _timed(lambda: plan_build(system), repeat)
        records.append(
            {
                "name": f"sampler_{name}_plan_build",
                "seconds": round(seconds, 5),
                "ms": round(seconds * 1e3, 3),
            }
        )
        for phase in ("zero", "random"):
            config = MonteCarloConfig(
                trials=trials, seed=11, start_phase=phase
            )
            sample_system_ttf(system, config)
            shared = _timed(
                lambda: sample_system_ttf(system, config), repeat
            )
            fresh = _timed(
                lambda: sample_system_ttf(
                    system,
                    MonteCarloConfig(
                        trials=trials,
                        seed=next(fresh_seeds),
                        start_phase=phase,
                    ),
                ),
                repeat,
            )
            for suffix, (seconds, samples) in (
                ("", shared), ("_fresh", fresh)
            ):
                records.append(
                    {
                        "name": f"sampler_{name}_{phase}{suffix}",
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
SCENARIOS = ("all", "engine", "cache", "trace", "estimators", "sampler")


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
    rev = args.rev or repo_revision()
    output = Path(args.output_dir) / f"BENCH_{rev}.json"
    # Before any scenario runs: a missing directory would otherwise
    # fail the final write and lose every measurement.
    output.parent.mkdir(parents=True, exist_ok=True)

    def wants(section: str) -> bool:
        return args.scenario in ("all", section)

    results = []
    # One sweep at two pool widths, result hashes attached.
    if wants("engine"):
        for record in engine_cases(
            args.trials, args.points, args.workers, args.repeat
        ):
            results.append(record)
            print(
                f"{record['name']:44s} {record['seconds']:8.3f}s  "
                f"identical_to_serial={record['identical_to_serial']}"
            )

    # Cold vs warm disk cache on the same sweep (one repeat each; the
    # warm number is the content-addressed lookup overhead).
    if wants("cache"):
        space = _cluster_space(args.points)
        mc = MonteCarloConfig(trials=args.trials, seed=7)
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
                        "workers": 1,
                        "entries": len(cache),
                    }
                )
                print(f"sweep_disk_cache_{phase:39s} {seconds:8.3f}s")

    # Trace production: synthesis and simulation throughput.
    if wants("trace"):
        for record in trace_cases(args.repeat):
            results.append(record)
            if "identical_to_serial" in record:  # the batch row
                print(
                    f"{record['name']:44s} {record['seconds']:8.3f}s  "
                    f"{record['instr_per_s']}/s "
                    f"identical_to_serial={record['identical_to_serial']}"
                )
                continue
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
            if "ns_per_trial" not in record:  # a plan_build row
                print(f"{record['name']:44s} {record['ms']:8.3f}ms")
                continue
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
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return output


if __name__ == "__main__":
    sys.exit(0 if run_benchmarks() else 1)
