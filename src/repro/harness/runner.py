"""Command-line experiment runner (``repro-experiments``).

Usage::

    repro-experiments --list
    repro-experiments fig3 fig4
    repro-experiments --all --markdown experiments.md
    repro-experiments fig3 --json fig3.json
    repro-experiments compare --method avf_sofr --method hybrid \\
        --reference exact --json compare.json
    repro-experiments fig5 --workers 8 --cache-dir ~/.cache/repro

``--json`` writes the machine-readable
:class:`~repro.methods.results.ResultSet` behind the run (loadable with
``ResultSet.from_json``); ``--method``/``--reference`` select estimators
from the method registry for experiments that support pluggable method
sets (e.g. ``compare``). ``--workers`` sets the batch engine's thread
pool width (``--workers auto``, the default, is the cpu count; numbers
never depend on it), and ``--cache-dir`` persists every estimate in a
content-addressed on-disk cache so repeated invocations skip
re-estimation entirely. The flags, artifact names and output
directories are checked before any work: the flags become one
:class:`~repro.harness.experiment.EngineOptions` (a refused flag,
``$REPRO_MC_TRIALS`` value or output path exits 2 with one line), and
its one estimate cache serves every artifact of the invocation.

Then every selected artifact is checked
(:meth:`~repro.harness.experiment.Experiment.check`): its sweeps are
built and every point's reference and methods asked whether they
support it, and nothing is estimated. A refusal (``--all --method
avf``: ``avf`` cannot run ``compare``'s four-unit systems) exits 2 with
one line before any artifact runs or prints. Only then do the
artifacts run, in order, each through ``Experiment.run``; every sweep
is one ordered map on the worker pool, one task per point and distinct
estimator.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..methods import registry as method_registry
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help="artifact ids to run (e.g. fig3 sec5.1); see --list",
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
        help="reference method errors are measured against, for "
        "experiments with pluggable method sets: one of "
        f"{', '.join(method_registry.REFERENCE_NAMES)}",
    )
    parser.add_argument(
        "--workers",
        default="auto",
        metavar="N|auto",
        help="thread-pool width for the batch engine: an integer (1 is "
        "a one-worker pool) or 'auto' (default; the cpu count)",
    )
    # There is one pool and one sampler, so these flags select nothing
    # and their values are never forwarded. They stay accepted because
    # the pinned benchmark load (perfbench/compare.py LOAD_ARGS) passes
    # ``--executor thread --kernel numpy``.
    parser.add_argument(
        "--executor", choices=("thread",), default="thread",
        help="fan-out pool: 'thread', the only one",
    )
    parser.add_argument(
        "--kernel", choices=("numpy",), default="numpy",
        help="Monte-Carlo sampler: 'numpy' (compiled plans), the only one",
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
        # Every name resolves before any experiment runs.
        chosen = [get_experiment(artifact) for artifact in selected]
        # Output files are written last; a path they cannot be written
        # to (a directory, or one in a missing directory) fails now.
        for flag in ("json", "markdown"):
            path = getattr(args, flag)
            if path and os.path.isdir(path):
                raise ConfigurationError(f"--{flag} {path}: is a directory")
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigurationError(f"--{flag} {path}: no such directory")
        engine = EngineOptions(
            trials=args.trials,
            workers=parse_workers(args.workers),
            cache_dir=args.cache_dir,
            methods=tuple(args.methods) if args.methods else None,
            reference=args.reference,
        )
        # Every artifact's sweeps are built and checked before any runs.
        for experiment in chosen:
            experiment.check(engine)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2

    sections = []
    merged_set = None
    for artifact, experiment in zip(selected, chosen):
        # A console display timer (tests/test_source_invariants.py
        # allows it): the experiment's numbers come from experiment.run
        # alone.
        started = time.perf_counter()
        try:
            result = experiment.run(engine)
        except ConfigurationError as error:
            print(str(error), file=sys.stderr)
            return 2
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
