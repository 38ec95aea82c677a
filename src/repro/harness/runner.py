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
engine out over threads or processes (``--workers auto``, the default,
is the cpu count), ``--mc-chunks`` splits each
Monte-Carlo estimate into seeded chunks (numbers depend on the chunking,
never the worker count), and ``--cache-dir`` persists every estimate in
a content-addressed on-disk cache so repeated invocations skip
re-estimation entirely. The flags become one
:class:`~repro.harness.experiment.EngineOptions`, built before any
work (a refused flag or ``$REPRO_MC_TRIALS`` value exits 2 with one
line), and its one estimate cache serves every artifact of the
invocation.

The streaming engine adds three scaling controls: ``--target-stderr``
makes Monte-Carlo references adaptive (chunks are scheduled only until
the relative standard error meets the target, with ``--trials`` as the
budget), ``--shard i/N`` evaluates one machine's deterministic share of
a sweep (run every shard against one shared ``--cache-dir``, then
``merge`` the per-shard ``--json`` artifacts into the exact unsharded
result), and ``--progress`` streams per-point progress lines to stderr
as chunk moments merge.

Every sweep runs as one pipelined schedule: method estimates join the
worker pool the moment each point's reference finalizes.
"""

from __future__ import annotations

import argparse
import sys
import time

from .registry import all_experiments, get_experiment


def parse_workers(text: str) -> int | str:
    """Parse a CLI ``--workers`` value: an integer or ``"auto"``."""
    from ..errors import ConfigurationError

    value = str(text).strip()
    if value.lower() == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"bad --workers value {text!r}: expected an integer or 'auto'"
        ) from None


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
        elif event.kind == "prewarm":
            parts.append(f"prewarmed {event.warmed_entries} cache entries")
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
    from ..methods.batch import EXECUTORS

    parser.add_argument(
        "--workers",
        default="auto",
        metavar="N|auto",
        help="fan-out width for the batch engine: an integer (1 is a "
        "one-worker pool of the executor) or 'auto' (default; the cpu "
        "count)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="thread",
        help="fan-out pool: 'thread' (default) or 'process' "
        "(single-host true parallelism). Numbers are identical across "
        "executors at fixed --mc-chunks",
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
        "$REPRO_CACHE_DIR when set",
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

    from ..errors import ConfigurationError
    from .experiment import EngineOptions

    selected = sorted(experiments) if args.all else args.artifacts
    try:
        engine = EngineOptions(
            trials=args.trials,
            mc_chunks=args.mc_chunks,
            target_stderr=args.target_stderr,
            workers=parse_workers(args.workers),
            executor=args.executor,
            cache_dir=args.cache_dir,
            shard=args.shard,
            progress=ProgressReporter() if args.progress else None,
            methods=tuple(args.methods) if args.methods else None,
            reference=args.reference,
        )
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.mc_chunks is None and args.target_stderr is not None:
        print(
            "note: --target-stderr without --mc-chunks; using 16 "
            "chunks as the stopping granularity",
            file=sys.stderr,
        )

    sections = []
    merged_set = None
    for artifact in selected:
        experiment = get_experiment(artifact)
        # repro: allow[D101] console elapsed-time display only; the
        # experiment's numbers come from experiment.run alone
        started = time.perf_counter()
        result = experiment.run(engine)
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
    if engine.cache_path is not None:
        # One cache serves the whole invocation, so its counts do too.
        # CI's warm-cache smoke job greps this line for ``misses=0``.
        print(
            f"note: estimate cache [{engine.cache_path}]: "
            f"{engine.cache.stats_line()}"
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
