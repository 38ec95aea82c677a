"""Simulation driver: trace in, masking trace + statistics out.

This is the substitute for the paper's Turandot step (Section 4.1): run
an instruction trace through the timing model and emit, for each studied
component, a per-cycle vulnerability mask:

* ``int_unit`` / ``fp_unit`` / ``ls_unit`` / ``br_unit`` — fraction of
  the pool's instances processing an instruction that cycle (the paper's
  masking rule: a raw error is masked iff the unit is not busy; with a
  multi-instance pool and uniform strike position the unmasked
  probability is the busy fraction);
* ``decode_unit`` — 1 in cycles where a dispatch group is being decoded
  and dispatched, else 0;
* ``register_file`` — fraction of the 256 entries holding a value that
  will still be read (the paper's rule: an error in a register whose
  value is never read again is masked). Integer and FP architectural
  values occupy their Table-1 partitions; the control-register portion
  is conservatively treated as never-live (not modelled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..masking.liveness import live_counts_from_intervals
from ..masking.trace import MaskingTrace
from .config import MachineConfig
from .isa import FP_REG_BASE, InstructionTrace, validate_trace
from .pipeline import PipelineModel, ScheduleResult
from .stats import PipelineStats


@dataclass
class SimulationResult:
    """Everything one simulation run produces."""

    masking_trace: MaskingTrace
    stats: PipelineStats
    schedule: ScheduleResult

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def _pool_busy_fraction(
    intervals: list[tuple[int, int]], n_cycles: int, pool_size: int
) -> np.ndarray:
    """Per-cycle fraction of pool instances that are busy."""
    counts = live_counts_from_intervals(intervals, n_cycles)
    # More ops than instances cannot be in flight simultaneously except
    # through the finish-width completion shift; clip defensively.
    return np.minimum(counts / float(pool_size), 1.0)


def _register_file_vulnerability(
    schedule: ScheduleResult, config: MachineConfig, n_cycles: int
) -> np.ndarray:
    live = np.asarray(schedule.live_intervals, dtype=np.int64).reshape(-1, 3)
    is_int = live[:, 0] < FP_REG_BASE
    live_int = live_counts_from_intervals(live[is_int, 1:], n_cycles)
    live_fp = live_counts_from_intervals(live[~is_int, 1:], n_cycles)
    live_int = np.minimum(live_int, config.int_register_entries)
    live_fp = np.minimum(live_fp, config.fp_register_entries)
    return (live_int + live_fp) / float(config.register_file_entries)


def simulate(
    trace: InstructionTrace,
    config: MachineConfig | None = None,
    workload: str = "",
) -> SimulationResult:
    """Run ``trace`` on the configured machine and build its masking trace.

    Parameters
    ----------
    trace:
        Dynamic instruction stream (e.g. from
        :func:`repro.workloads.synthesize_trace`), or a list of
        :class:`~repro.microarch.isa.InstructionRecord`. Its columns
        are validated here, all at once.
    config:
        Machine description; defaults to the paper's Table-1
        configuration.
    workload:
        Label stored in the resulting masking trace.
    """
    config = config or MachineConfig.power4_like()
    trace = validate_trace(trace)
    model = PipelineModel(config)
    schedule = model.run(trace)
    n_cycles = schedule.total_cycles
    if n_cycles <= 0:
        raise SimulationError("schedule produced no cycles")

    masks: dict[str, np.ndarray] = {}
    for pool_name, spec in (
        ("int", config.int_units),
        ("fp", config.fp_units),
        ("ls", config.ls_units),
        ("br", config.br_units),
    ):
        masks[f"{pool_name}_unit"] = _pool_busy_fraction(
            schedule.unit_intervals[pool_name], n_cycles, spec.count
        )

    decode = np.zeros(n_cycles, dtype=float)
    cycles = np.asarray(schedule.dispatch_cycles, dtype=np.int64)
    decode[cycles[cycles < n_cycles]] = 1.0
    masks["decode_unit"] = decode

    masks["register_file"] = _register_file_vulnerability(
        schedule, config, n_cycles
    )

    masking_trace = MaskingTrace(
        masks, clock_hz=config.clock_hz, workload=workload
    )
    return SimulationResult(
        masking_trace=masking_trace, stats=schedule.stats, schedule=schedule
    )
