"""Command-line experiment runner (``repro-experiments``).

Usage::

    repro-experiments --list
    repro-experiments fig3 fig4
    repro-experiments --all --markdown experiments.md
    repro-experiments fig3 --json fig3.json
    repro-experiments compare --method avf_sofr --method hybrid \\
        --reference exact --json compare.json
    repro-experiments fig5 --executor process --workers 8 \\
        --mc-chunks 16 --cache-dir ~/.cache/repro
    repro-experiments fig5 --executor remote \\
        --workers hostA:8421,hostB:8421 --mc-chunks 16
    repro-experiments fig5 --trials 1000000 --mc-chunks 32 \\
        --target-stderr 0.01 --progress
    repro-experiments fig5 --shard 0/2 --cache-dir /shared/cache \\
        --json shard0.json   # machine A
    repro-experiments fig5 --shard 1/2 --cache-dir /shared/cache \\
        --json shard1.json   # machine B
    repro-experiments merge shard0.json shard1.json --json full.json

``--json`` writes the machine-readable
:class:`~repro.methods.results.ResultSet` behind the run (loadable with
``ResultSet.from_json``); ``--method``/``--reference`` select estimators
from the method registry for experiments that support pluggable method
sets (e.g. ``compare``). ``--workers``/``--executor`` fan the batch
engine out over threads, processes, or a remote ``repro-worker`` fleet
(``--workers auto``, the default, asks the backend — cpu count locally,
fleet size remotely), ``--mc-chunks`` splits each
Monte-Carlo estimate into seeded chunks (numbers depend on the chunking,
never the worker count), and ``--cache-dir`` persists every estimate in
a content-addressed on-disk cache so repeated invocations skip
re-estimation entirely.

The streaming engine adds three scaling controls: ``--target-stderr``
makes Monte-Carlo references adaptive (chunks are scheduled only until
the relative standard error meets the target, with ``--trials`` as the
budget), ``--shard i/N`` evaluates one machine's deterministic share of
a sweep (run every shard against one shared ``--cache-dir``, then
``merge`` the per-shard ``--json`` artifacts into the exact unsharded
result), and ``--progress`` streams per-point progress lines to stderr
as chunk moments merge.

Every sweep runs as one pipelined schedule: method estimates join the
worker pool the moment each point's reference finalizes. One more
control rides on it: ``--reallocate-budget`` re-grants the trial budget
freed by early-stopping points to the least-converged stragglers (pair
it with ``--target-stderr``; deterministic across workers and
executors, and a sharded run redistributes within its own shard only).

The cross-shard budget ledger removes that last restriction:
``--budget-ledger RUN_ID`` makes K co-running shards (same RUN_ID,
same shared ``--cache-dir``) coordinate their freed trial budget
through one append-only ledger file — budget freed on any machine
reaches the fleet's least-converged point, the merged result is
deterministic given the ledger, and ``--ledger-replay`` re-derives any
shard's run from a completed ledger bit-identically (see
docs/SCHEDULER.md and the sharded-fleet recipe in EXPERIMENTS.md)::

    repro-experiments fig5 --shard 0/2 --cache-dir /shared/cache \\
        --target-stderr 0.02 --reallocate-budget \\
        --budget-ledger run1 --json shard0.json &   # machine A
    repro-experiments fig5 --shard 1/2 --cache-dir /shared/cache \\
        --target-stderr 0.02 --reallocate-budget \\
        --budget-ledger run1 --json shard1.json     # machine B
    repro-experiments merge shard0.json shard1.json --json full.json
"""

from __future__ import annotations

import argparse
import sys
import time

from .registry import all_experiments, get_experiment


def parse_shard(text: str) -> tuple[int, int]:
    """Parse the CLI's ``i/N`` shard syntax into ``(i, N)``."""
    from ..errors import ConfigurationError
    from ..methods.results import validate_shard

    try:
        return validate_shard(text.split("/", 1))
    except ConfigurationError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/N' with 0 <= i < N (e.g. 0/4), "
            f"got {text!r}"
        ) from None


class ProgressReporter:
    """Prints the engine's per-point progress events to stderr.

    One line per event, prefixed so sweeps driven by schedulers/tmux
    stay greppable::

        [progress] day/NxS=1e+10 chunk 3/16 trials=30000 rel_se=1.42%
        [progress] day/NxS=1e+10 done trials=40000 rel_se=0.97% (early)
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.events = 0

    def __call__(self, event) -> None:
        self.events += 1
        parts = [f"[progress] {event.label}"]
        if event.kind == "point-start":
            parts.append("start")
            if event.total_chunks:
                parts.append(f"chunks={event.total_chunks}")
        elif event.kind == "chunk":
            parts.append(
                f"chunk {event.merged_chunks}/{event.total_chunks}"
            )
            parts.append(f"trials={event.trials}")
        elif event.kind == "method-start":
            parts.append(f"method {event.method} start")
        elif event.kind == "method-done":
            parts.append(f"method {event.method} done")
            parts.append(f"trials={event.trials}")
        elif event.kind == "budget-reallocated":
            parts.append(
                f"budget +{event.granted_trials} trials "
                f"({event.granted_chunks} chunks)"
            )
        elif event.kind == "budget-claimed":
            parts.append(
                f"budget +{event.granted_trials} trials "
                f"({event.granted_chunks} chunks) [cross-shard]"
            )
        elif event.kind == "prewarm":
            parts.append(f"prewarmed {event.warmed_entries} cache entries")
        elif event.kind == "shard-departed":
            parts.append(
                f"shard {event.shard} departed before round {event.round}"
            )
        elif event.kind == "shard-adopted":
            parts.append(f"adopting departed shard {event.shard}")
        else:
            parts.append("done")
            parts.append(f"trials={event.trials}")
        if event.rel_stderr is not None:
            parts.append(f"rel_se={event.rel_stderr:.2%}")
        if event.stopped_early:
            parts.append("(early)")
        if event.cached:
            parts.append("(cached)")
        print(" ".join(parts), file=self.stream)


def run_merge(args) -> int:
    """The ``merge`` command: reassemble per-shard ``--json`` artifacts."""
    from ..methods import ResultSet, merge_result_sets

    if not args.artifacts:
        print("merge needs at least one shard JSON file", file=sys.stderr)
        return 1
    if not args.json:
        print("merge needs --json OUT for the merged set", file=sys.stderr)
        return 1
    from ..errors import ConfigurationError

    try:
        shards = [ResultSet.from_json(path) for path in args.artifacts]
        merged = merge_result_sets(shards)
    except (OSError, ValueError, ConfigurationError) as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 1
    merged.to_json(args.json)
    count = shards[0].shard[1] if shards[0].shard else len(shards)
    print(
        f"merged {len(shards)} shard(s) (/{count}) -> {len(merged)} "
        f"points written to {args.json}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help="artifact ids to run (e.g. fig3 sec5.1); see --list. "
        "The special first argument 'merge' instead merges per-shard "
        "ResultSet JSON files: merge SHARD.json... --json OUT.json",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="Monte-Carlo trials per estimate (default: REPRO_MC_TRIALS "
        "or 100000; the paper used 1000000)",
    )
    parser.add_argument(
        "--method",
        action="append",
        dest="methods",
        metavar="NAME",
        default=None,
        help="method to run (repeatable); see repro.methods.available(). "
        "Honoured by experiments with pluggable method sets.",
    )
    parser.add_argument(
        "--reference",
        default=None,
        metavar="NAME",
        help="reference method errors are measured against "
        "('monte_carlo' or 'exact')",
    )
    from ..methods.executors import available_executors

    parser.add_argument(
        "--workers",
        default="auto",
        metavar="N|auto|HOST:PORT,...",
        help="fan-out width for the batch engine: an integer (1 is a "
        "one-worker pool of the executor), 'auto' (default; cpu count "
        "for local executors, or the fleet size for --executor "
        "remote), or a comma-separated list of repro-worker addresses "
        "(implies --executor remote)",
    )
    parser.add_argument(
        "--executor",
        choices=available_executors(),
        default=None,
        help="fan-out backend from the executor registry: 'thread' "
        "(default), 'process' (single-host true parallelism), or "
        "'remote' (TCP repro-worker fleet; pass the worker addresses "
        "via --workers — an address list alone implies remote). "
        "Numbers are identical across backends at fixed --mc-chunks",
    )
    # There is one sampler, so this flag selects nothing and its value
    # is never forwarded. It stays accepted because the pinned benchmark
    # load (perfbench/compare.py LOAD_ARGS) passes ``--kernel numpy``.
    parser.add_argument(
        "--kernel", choices=("numpy",), default="numpy",
        help="Monte-Carlo sampler: 'numpy' (compiled plans), the only one",
    )
    parser.add_argument(
        "--mc-chunks",
        type=int,
        default=None,
        metavar="K",
        help="split each Monte-Carlo estimate into K seeded chunks "
        "(the unit of both process fan-out and adaptive stopping; "
        "default: 1, or 16 when --target-stderr is set — the rule can "
        "only stop at chunk boundaries)",
    )
    parser.add_argument(
        "--target-stderr",
        type=float,
        default=None,
        metavar="REL",
        help="adaptive precision: schedule Monte-Carlo chunks only "
        "until the estimate's relative standard error is <= REL "
        "(e.g. 0.01 for 1%%); --trials is the budget and --mc-chunks "
        "the stopping granularity. Recorded trial counts and achieved "
        "stderr land in the --json artifact.",
    )
    parser.add_argument(
        "--shard",
        type=parse_shard,
        default=None,
        metavar="I/N",
        help="evaluate only this machine's deterministic share of each "
        "sweep (honoured by the sweep experiments: fig5, fig6a, fig6b, "
        "sec5.2, sec5.4); merge the per-shard --json artifacts with "
        "'repro-experiments merge'. fig6b splits its computation but "
        "its two-pass artifact is not merge-able (merge fails loudly).",
    )
    parser.add_argument(
        "--reallocate-budget",
        action="store_true",
        help="return the trial budget of chunks cancelled by early "
        "stops to a shared ledger and re-grant it to the "
        "least-converged points that exhausted theirs (needs "
        "--target-stderr to have any effect; deterministic across "
        "--workers/--executor)",
    )
    parser.add_argument(
        "--budget-ledger",
        metavar="RUN_ID",
        default=None,
        help="coordinate trial budget across co-running shards through "
        "an append-only ledger file in the shared --cache-dir: every "
        "shard of one fleet passes the same RUN_ID (plus --shard i/N, "
        "--target-stderr and --reallocate-budget) and budget freed by "
        "any shard's early-stopping points reaches the fleet's "
        "least-converged point. Honoured by the adaptive Monte-Carlo "
        "sweeps (fig5, fig6a, fig6b, sec5.4); merged results are "
        "deterministic given the ledger and tagged +xshard so merge "
        "only combines ledger-coordinated shards with each other.",
    )
    parser.add_argument(
        "--ledger-replay",
        action="store_true",
        help="replay a completed --budget-ledger run instead of "
        "coordinating live: recorded rounds drive the identical grant "
        "schedule with no waiting, reproducing each shard's live "
        "results bit-for-bit (fails loudly on any divergence)",
    )
    parser.add_argument(
        "--ledger-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="rendezvous patience for --budget-ledger fleets (default "
        "600): a shard's first fleet barrier waits out its slowest "
        "sibling's entire initial sweep, so paper-scale fleets need "
        "more",
    )
    parser.add_argument(
        "--join",
        action="store_true",
        help="join an already-running --budget-ledger fleet by taking "
        "over this --shard slot mid-run (after its member crashed or "
        "left): already-sealed rounds verify like a replay, then this "
        "member goes live at the first unsealed round. Joining a "
        "finished run is refused loudly.",
    )
    parser.add_argument(
        "--leave-after",
        type=int,
        default=None,
        metavar="N",
        help="voluntarily depart the --budget-ledger fleet before "
        "publishing round N (0 = before the first fleet barrier), "
        "recording a shard-depart so survivors adopt this slot's open "
        "points — the chaos-testing knob behind the elastic-fleet "
        "suite; exits with status 0 and no artifact",
    )
    parser.add_argument(
        "--ledger-lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="declare a blocked --budget-ledger sibling departed after "
        "this many seconds without any new ledger record from it, and "
        "adopt its slot (heartbeat records keep healthy-but-slow "
        "members alive); without a lease a lost member times out the "
        "whole fleet",
    )
    parser.add_argument(
        "--ledger-heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="liveness heartbeat period for --budget-ledger members "
        "(default: lease/4 when --ledger-lease is set); beats are "
        "monotone counters, never clock values",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-point progress lines to stderr as trial "
        "chunks merge",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="content-addressed on-disk estimate cache; warm reruns "
        "skip re-estimation (entries invalidate automatically when a "
        "profile, rate, or MC configuration changes). Defaults to "
        "$REPRO_CACHE_DIR when set — the same resolution rule "
        "repro-serve uses",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the run's machine-readable ResultSet as JSON "
        "(loadable with repro.methods.ResultSet.from_json)",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also write results as a markdown report",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.artifacts and args.artifacts[0] == "merge":
        args.artifacts = args.artifacts[1:]
        return run_merge(args)

    experiments = all_experiments()

    if args.list or (not args.artifacts and not args.all):
        print("available experiments:")
        for artifact, experiment in sorted(experiments.items()):
            print(f"  {artifact:24s} {experiment.title}")
        return 0

    # Adaptive stopping happens at chunk boundaries, so --target-stderr
    # with a single monolithic chunk could never stop early; give it a
    # useful default granularity unless the user chose one.
    if args.mc_chunks is None:
        args.mc_chunks = 16 if args.target_stderr is not None else 1
        if args.target_stderr is not None:
            print(
                "note: --target-stderr without --mc-chunks; using 16 "
                "chunks as the stopping granularity",
                file=sys.stderr,
            )

    if args.reallocate_budget and args.target_stderr is None:
        print(
            "note: --reallocate-budget without --target-stderr is a "
            "no-op (no stopping rule ever frees budget)",
            file=sys.stderr,
        )

    if args.ledger_replay and not args.budget_ledger:
        print(
            "--ledger-replay needs --budget-ledger RUN_ID (which "
            "recorded fleet should be replayed?)",
            file=sys.stderr,
        )
        return 2
    if args.budget_ledger:
        missing = [
            flag
            for flag, value in (
                ("--shard i/N", args.shard),
                ("--cache-dir", args.cache_dir),
                ("--target-stderr", args.target_stderr),
            )
            if value is None
        ]
        if missing:
            print(
                f"--budget-ledger needs {', '.join(missing)}: the "
                "ledger coordinates adaptive co-running shards through "
                "the shared cache directory",
                file=sys.stderr,
            )
            return 2
        if not args.reallocate_budget:
            print(
                "note: --budget-ledger implies --reallocate-budget",
                file=sys.stderr,
            )
            args.reallocate_budget = True
    for flag, value in (
        ("--join", args.join or None),
        ("--leave-after", args.leave_after),
        ("--ledger-lease", args.ledger_lease),
        ("--ledger-heartbeat", args.ledger_heartbeat),
    ):
        if value is not None and not args.budget_ledger:
            print(
                f"{flag} needs --budget-ledger RUN_ID: elastic "
                "membership is a property of a ledger fleet",
                file=sys.stderr,
            )
            return 2
    if args.join and args.ledger_replay:
        print(
            "--join and --ledger-replay are mutually exclusive: one "
            "joins a live fleet, the other reproduces a finished one",
            file=sys.stderr,
        )
        return 2

    from ..errors import ConfigurationError
    from ..methods.executors import executor_from_cli, parse_workers

    try:
        executor, workers = executor_from_cli(
            args.executor, parse_workers(args.workers)
        )
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2

    run_kwargs: dict = {
        "trials": args.trials,
        "workers": workers,
        "executor": executor,
        "cache_dir": args.cache_dir,
        "mc_chunks": args.mc_chunks,
        "target_stderr": args.target_stderr,
        "shard": args.shard,
        "reallocate_budget": args.reallocate_budget,
        "budget_ledger": args.budget_ledger,
        "ledger_replay": args.ledger_replay,
        "ledger_timeout": args.ledger_timeout,
        "ledger_opts": {
            "join": args.join,
            "lease": args.ledger_lease,
            "heartbeat": args.ledger_heartbeat,
            "leave_after": args.leave_after,
        },
    }
    if args.progress:
        run_kwargs["progress"] = ProgressReporter()
    if args.methods:
        run_kwargs["methods"] = tuple(args.methods)
    if args.reference:
        run_kwargs["reference"] = args.reference

    selected = (
        sorted(experiments) if args.all else args.artifacts
    )
    sections = []
    merged_set = None
    for artifact in selected:
        experiment = get_experiment(artifact)
        # repro: allow[D101] console elapsed-time display only; the
        # experiment's numbers come from experiment.run alone
        started = time.perf_counter()
        from ..methods import ShardDeparted

        try:
            result = experiment.run(**run_kwargs)
        except ShardDeparted as departed:
            # A voluntary --leave-after departure is a clean exit: the
            # depart record is on the ledger and a survivor (or a
            # --join replacement) owns this slot's remaining rounds.
            print(
                f"[{artifact}] {departed} — departed cleanly, no "
                "artifact written",
                file=sys.stderr,
            )
            return 0
        # repro: allow[D101] second half of the same display timer
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"[{artifact}] completed in {elapsed:.1f}s")
        print()
        sections.append(result.render_markdown())
        if result.result_set is not None:
            merged_set = (
                result.result_set
                if merged_set is None
                else merged_set.merged(result.result_set)
            )

    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write("# Experiment results\n\n")
            handle.write("\n\n".join(sections))
            handle.write("\n")
        print(f"markdown report written to {args.markdown}")

    if args.json:
        if merged_set is None:
            print(
                f"no ResultSet produced by {' '.join(selected)}; "
                f"{args.json} not written"
            )
            return 1
        merged_set.to_json(args.json)
        print(f"result set written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    sys.exit(main())
