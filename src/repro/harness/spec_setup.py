"""Shared SPEC experiment setup.

Builds and caches the masking traces the Section-5 experiments consume,
and assembles the paper's systems from them:

* the **uniprocessor** system of Section 4.1/5.1 — four components
  (integer unit, FP unit, decode unit, register file) with the paper's
  absolute raw error rates;
* the **processor-level profile** of Section 4.2 — the three unit
  traces applied simultaneously, used as the per-component masking of a
  cluster node (strikes land uniformly across the units' elements).

Trace windows default to :data:`DEFAULT_INSTRUCTIONS` dynamic
instructions (override with the ``REPRO_SPEC_INSTRUCTIONS`` environment
variable). The paper simulates 1e8 instructions; shorter windows are
*conservative* for every reproduced claim — they shrink the loop length
L, which only makes the AVF+SOFR assumptions easier to satisfy, and the
Section-5 SPEC claims are "errors are negligible", which we confirm.

Each trace is built once per process, keyed on ``(benchmark,
n_instructions, seed)``; :func:`masking_traces` builds a batch of
missing traces at once, one forked worker process each, because trace
production is pure Python and holds the GIL. The unit and processor
profiles derived from a trace are memoized beside it.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Iterable

from ..core.system import Component, SystemModel
from ..masking.compose import weighted_average_profile
from ..masking.profile import PiecewiseProfile
from ..masking.trace import MaskingTrace
from ..microarch.config import MachineConfig
from ..microarch.simulator import simulate
from ..ser.rates import paper_unit_rate_per_second
from ..workloads.spec import spec_benchmark
from ..workloads.synthesis import synthesize_trace

#: Default dynamic-instruction window per benchmark.
DEFAULT_INSTRUCTIONS = int(
    os.environ.get("REPRO_SPEC_INSTRUCTIONS", "40000")
)

#: The paper's simulated window (Section 4.1): 1e8 dynamic instructions.
PAPER_INSTRUCTIONS = 100_000_000


def paper_dilation(n_instructions: int | None = None) -> float:
    """Time-dilation factor mapping our window to the paper's window.

    The AVF/SOFR validity question is controlled by the hazard mass per
    workload iteration, ``λ·V(L)``, which is linear in the loop length
    L. Our simulated windows are shorter than the paper's 1e8
    instructions (pure-Python simulation speed); dilating the masking
    profile by this factor reproduces the paper's L exactly while
    keeping the simulated utilisation statistics. Experiments state when
    they apply it.
    """
    n_instructions = n_instructions or DEFAULT_INSTRUCTIONS
    return PAPER_INSTRUCTIONS / float(n_instructions)

#: The four studied components (Section 4.1) and their trace mask names.
PAPER_COMPONENTS: tuple[str, ...] = (
    "int_unit",
    "fp_unit",
    "decode_unit",
    "register_file",
)


#: A trace's key: ``(benchmark, n_instructions, seed)``.
TraceKey = tuple[str, int, int]

#: Built traces, and the profiles derived from them, by trace key (plus
#: the unit name, or whether the processor profile is dilated).
_TRACES: dict[TraceKey, MaskingTrace] = {}
_UNIT_PROFILES: dict[tuple[str, int, int, str], PiecewiseProfile] = {}
_PROCESSOR_PROFILES: dict[tuple[str, int, int, bool], PiecewiseProfile] = {}


def _key(benchmark: str, n_instructions: int | None, seed: int) -> TraceKey:
    """The normalised key: ``None`` is :data:`DEFAULT_INSTRUCTIONS`."""
    return (benchmark, n_instructions or DEFAULT_INSTRUCTIONS, seed)


def _build_trace(
    benchmark: str, n_instructions: int, seed: int
) -> MaskingTrace:
    profile = spec_benchmark(benchmark)
    trace = synthesize_trace(profile, n_instructions, seed=seed)
    result = simulate(
        trace, MachineConfig.power4_like(), workload=benchmark
    )
    return result.masking_trace


def masking_traces(
    benchmarks: Iterable[str],
    n_instructions: int | None = None,
    seed: int = 0,
) -> list[MaskingTrace]:
    """The masking traces of ``benchmarks``, in order (cached).

    Every missing trace is built here. When more than one is missing,
    on Linux with more than one CPU, each is built in its own forked
    worker process, all at once: synthesis and simulation are pure
    Python and hold the GIL, so threads could not overlap them. A
    worker returns the same trace as an in-process build, and an error
    raised in a worker is raised here. The pool, its worker processes
    and its thread are gone when this returns. While another Python
    thread runs, every trace is built in-process instead: a forked
    child holds only the calling thread, and a lock another thread
    held at the fork would never be released in it.
    """
    keys = [_key(bench, n_instructions, seed) for bench in benchmarks]
    missing = [key for key in dict.fromkeys(keys) if key not in _TRACES]
    if (
        len(missing) > 1
        and sys.platform.startswith("linux")
        and (os.cpu_count() or 1) > 1
        and threading.active_count() == 1
    ):
        # Deferred: only a batch needs multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(
            len(missing), mp_context=get_context("fork")
        ) as pool:
            built = list(pool.map(_build_trace, *zip(*missing)))
        _TRACES.update(zip(missing, built))
    else:
        for key in missing:
            _TRACES[key] = _build_trace(*key)
    return [_TRACES[key] for key in keys]


def masking_trace_for(
    benchmark: str,
    n_instructions: int | None = None,
    seed: int = 0,
) -> MaskingTrace:
    """Simulate ``benchmark`` and return its masking trace (cached).

    The one-benchmark case of :func:`masking_traces`, built in-process.
    The cache key is normalised first, so ``masking_trace_for("gzip")``
    and ``masking_trace_for("gzip", DEFAULT_INSTRUCTIONS, 0)`` share one
    simulation.
    """
    (trace,) = masking_traces((benchmark,), n_instructions, seed)
    return trace


def _unit_profile(key: TraceKey, unit: str) -> PiecewiseProfile:
    """``unit``'s profile from the trace at ``key`` (memoized)."""
    memo_key = (*key, unit)
    if memo_key not in _UNIT_PROFILES:
        _UNIT_PROFILES[memo_key] = masking_trace_for(*key).profile(unit)
    return _UNIT_PROFILES[memo_key]


def spec_uniprocessor_system(
    benchmark: str,
    n_instructions: int | None = None,
    seed: int = 0,
) -> SystemModel:
    """The Section-4.1 uniprocessor: four components, paper raw rates."""
    key = _key(benchmark, n_instructions, seed)
    components = [
        Component(
            name,
            paper_unit_rate_per_second(name),
            _unit_profile(key, name),
        )
        for name in PAPER_COMPONENTS
    ]
    return SystemModel(components)


def processor_profile(
    benchmark: str,
    n_instructions: int | None = None,
    seed: int = 0,
    dilate_to_paper_window: bool = False,
) -> PiecewiseProfile:
    """Processor-level vulnerability for cluster experiments (Section 4.2).

    The paper applies the integer, FP, and decode unit traces
    "simultaneously to determine whether there is a processor-level
    failure". With a single N x S raw-error budget for the whole
    processor and no element attribution per unit, a strike lands on
    each unit's share of elements with equal probability — the
    processor's vulnerability is the equal-weight average of the three
    unit vulnerabilities.

    With ``dilate_to_paper_window`` the profile's period is stretched to
    the paper's 1e8-instruction loop (see :func:`paper_dilation`).
    """
    key = _key(benchmark, n_instructions, seed)
    memo_key = (*key, dilate_to_paper_window)
    if memo_key not in _PROCESSOR_PROFILES:
        units = ["int_unit", "fp_unit", "decode_unit"]
        profile = weighted_average_profile(
            [_unit_profile(key, u) for u in units], [1.0, 1.0, 1.0]
        )
        if dilate_to_paper_window:
            profile = profile.dilated(paper_dilation(key[1]))
        _PROCESSOR_PROFILES[memo_key] = profile
    return _PROCESSOR_PROFILES[memo_key]


def clear_trace_cache() -> None:
    """Drop cached masking traces and the profiles derived from them
    (tests use this to vary windows)."""
    _TRACES.clear()
    _UNIT_PROFILES.clear()
    _PROCESSOR_PROFILES.clear()
