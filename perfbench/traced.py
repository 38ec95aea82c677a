"""Traced run: the ``repro-experiments`` CLI in-process, wrapped in spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py --spans OUT.json -- <repro-experiments args>

The wrappers live here, not in ``src/``: each layer's public entry point
is replaced, in its defining module and in every loaded module that
imported it by name, with a shim that records a span (name, start, end,
parent span, thread) and a few counts. Frozen dataclasses (estimators,
experiments) are wrapped at class level. The wrappers only observe —
the CLI's stdout and ``--json`` bytes are those of an untraced run.

Spans stay in memory until the CLI returns; then the span list and the
per-layer metrics derived from it (:func:`layer_metrics`) are written to
``--spans``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time

#: The estimators the per-layer table reports, by registry name.
METHODS = (
    "monte_carlo",
    "softarch",
    "first_principles",
    "avf",
    "avf_sofr",
    "sofr_only",
    "hybrid",
)


class Tracer:
    """Collects spans in memory; one per-thread stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.origin = time.perf_counter()

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped in a span called ``name`` (or ``name(args)``).

        ``attrs(args, kwargs, result)`` returns extra span fields.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "parent": stack[-1] if stack else None,
                "name": name(args) if callable(name) else name,
                "thread": threading.get_ident(),
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter() - self.origin
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.origin
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced


def _patch_function(module_name: str, attr: str, wrapper) -> None:
    """Rebind a module-level function everywhere it was imported."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper(original)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(cls, attr: str, wrapper) -> None:
    setattr(cls, attr, wrapper(getattr(cls, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer table names."""
    import repro.harness.runner  # noqa: F401  (loads the CLI's imports)
    import repro.harness.registry  # noqa: F401  (experiments + ablations)
    import repro.harness.spec_setup  # noqa: F401
    import repro.methods  # noqa: F401  (registers the estimators)
    from repro.harness.experiment import Experiment
    from repro.masking.profile import PiecewiseProfile
    from repro.masking.trace import MaskingTrace
    from repro.methods import registry
    from repro.methods.cache import DiskCache

    _patch_method(
        Experiment,
        "run",
        lambda fn: tracer.wrap(
            "harness.artifact", fn,
            lambda a, k, r: {"artifact": a[0].artifact},
        ),
    )

    def synth_attrs(args, kwargs, result):
        profile, n = args[0], args[1]
        seed = kwargs.get("seed", args[2] if len(args) > 2 else 0)
        return {"key": [profile.name, n, seed], "instructions": len(result)}

    _patch_function(
        "repro.workloads.synthesis",
        "synthesize_trace",
        lambda fn: tracer.wrap("workloads.synthesize", fn, synth_attrs),
    )
    _patch_function(
        "repro.microarch.simulator",
        "simulate",
        lambda fn: tracer.wrap(
            "microarch.simulate", fn,
            lambda a, k, r: {"instructions": len(a[0])},
        ),
    )
    _patch_method(
        MaskingTrace, "profile",
        lambda fn: tracer.wrap("masking.profile", fn),
    )
    _patch_method(
        PiecewiseProfile, "dilated",
        lambda fn: tracer.wrap("masking.profile", fn),
    )
    _patch_function(
        "repro.masking.compose",
        "weighted_average_profile",
        lambda fn: tracer.wrap("masking.profile", fn),
    )
    for cls in {type(e) for e in registry.all_methods().values()}:
        _patch_method(
            cls,
            "estimate",
            lambda fn: tracer.wrap(
                lambda a: f"core.{a[0].name}", fn,
                lambda a, k, r: {"trials": r.trials},
            ),
        )
    _patch_function(
        "repro.methods.batch",
        "evaluate_design_space",
        lambda fn: tracer.wrap("methods.engine", fn),
    )
    _patch_method(
        DiskCache, "get",
        lambda fn: tracer.wrap(
            "methods.cache.get", fn, lambda a, k, r: {"hit": r is not None}
        ),
    )
    _patch_method(
        DiskCache, "put", lambda fn: tracer.wrap("methods.cache.put", fn)
    )


# -- aggregation --------------------------------------------------------------


def _covered(window: tuple[float, float], intervals) -> float:
    """Length of the part of ``window`` that ``intervals`` cover."""
    lo, hi = window
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total, reach = 0.0, lo
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer busy time, counts and rates from one traced run.

    A layer's time is the summed duration of its spans, leaving out
    spans nested (same thread) inside another span of the same name, so
    recursion is not counted twice. Spans in worker threads overlap, so
    busy time may exceed wall time.
    """
    by_id = {s["id"]: s for s in spans}

    def outermost(name):
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != name:
                parent = by_id.get(parent["parent"])
            if parent is None:
                out.append(s)
        return out

    def busy(selected):
        return sum(s["end"] - s["start"] for s in selected)

    def interval(s):
        return (s["start"], s["end"])

    synth = outermost("workloads.synthesize")
    sim = outermost("microarch.simulate")
    engine = outermost("methods.engine")
    gets = [s for s in spans if s["name"] == "methods.cache.get"]
    puts = [s for s in spans if s["name"] == "methods.cache.put"]
    artifacts = [s for s in spans if s["name"] == "harness.artifact"]
    estimator_spans = [s for s in spans if s["name"].startswith("core.")]
    layer_spans = [
        interval(s) for s in spans if s["name"] != "harness.artifact"
    ]

    metrics: dict[str, float] = {}
    for layer, selected in (("workloads", synth), ("microarch", sim)):
        seconds = busy(selected)
        instructions = sum(s["instructions"] for s in selected)
        name = "synthesize" if layer == "workloads" else "simulate"
        metrics[f"{layer}.{name}_s"] = seconds
        metrics[f"{layer}.{name}_calls"] = len(selected)
        metrics[f"{layer}.instr_per_s"] = (
            instructions / seconds if seconds > 0 else 0.0
        )
    distinct = {tuple(s["key"]) for s in synth}
    metrics["harness.trace_reuse"] = (
        len(distinct) / len(sim) if sim else 1.0
    )
    metrics["harness.self_s"] = sum(
        (s["end"] - s["start"]) - _covered(interval(s), layer_spans)
        for s in artifacts
    )
    metrics["masking.profile_s"] = busy(outermost("masking.profile"))
    for method in METHODS:
        selected = outermost(f"core.{method}")
        metrics[f"core.{method}.s"] = busy(selected)
        metrics[f"core.{method}.calls"] = len(selected)
    trials = sum(s["trials"] for s in outermost("core.monte_carlo"))
    mc_seconds = metrics["core.monte_carlo.s"]
    metrics["core.mc.trials"] = trials
    metrics["core.mc.trials_per_s"] = (
        trials / mc_seconds if mc_seconds > 0 else 0.0
    )
    estimator_intervals = [interval(s) for s in estimator_spans]
    metrics["methods.engine_s"] = busy(engine)
    metrics["methods.engine_calls"] = len(engine)
    metrics["methods.dispatch_s"] = sum(
        (s["end"] - s["start"]) - _covered(interval(s), estimator_intervals)
        for s in engine
    )
    metrics["methods.cache.hits"] = sum(1 for s in gets if s["hit"])
    metrics["methods.cache.misses"] = sum(1 for s in gets if not s["hit"])
    metrics["methods.cache.get_s"] = busy(gets)
    metrics["methods.cache.put_s"] = busy(puts)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON path")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    install(tracer)
    from repro.harness.runner import main as cli_main

    try:
        status = cli_main(cli)
    finally:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "metrics": layer_metrics(tracer.spans),
                },
                handle,
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
