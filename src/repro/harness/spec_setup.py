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
"""

from __future__ import annotations

import os
from functools import lru_cache

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


def masking_trace_for(
    benchmark: str,
    n_instructions: int | None = None,
    seed: int = 0,
) -> MaskingTrace:
    """Simulate ``benchmark`` and return its masking trace (cached).

    The cache key is normalised first, so ``masking_trace_for("gzip")``
    and ``masking_trace_for("gzip", DEFAULT_INSTRUCTIONS, 0)`` share one
    simulation.
    """
    return _masking_trace(
        benchmark, n_instructions or DEFAULT_INSTRUCTIONS, seed
    )


@lru_cache(maxsize=64)
def _masking_trace(
    benchmark: str, n_instructions: int, seed: int
) -> MaskingTrace:
    profile = spec_benchmark(benchmark)
    trace = synthesize_trace(profile, n_instructions, seed=seed)
    result = simulate(
        trace, MachineConfig.power4_like(), workload=benchmark
    )
    return result.masking_trace


def spec_uniprocessor_system(
    benchmark: str,
    n_instructions: int | None = None,
    seed: int = 0,
) -> SystemModel:
    """The Section-4.1 uniprocessor: four components, paper raw rates."""
    trace = masking_trace_for(benchmark, n_instructions, seed)
    components = [
        Component(
            name,
            paper_unit_rate_per_second(name),
            trace.profile(name),
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
    trace = masking_trace_for(benchmark, n_instructions, seed)
    units = ["int_unit", "fp_unit", "decode_unit"]
    profile = weighted_average_profile(
        [trace.profile(u) for u in units], [1.0, 1.0, 1.0]
    )
    if dilate_to_paper_window:
        profile = profile.dilated(paper_dilation(n_instructions))
    return profile


def clear_trace_cache() -> None:
    """Drop cached masking traces (tests use this to vary windows)."""
    _masking_trace.cache_clear()
