"""Cycle-level out-of-order processor model (the Turandot substitute).

The paper generates its masking traces with Turandot, IBM's trace-driven
timing simulator for a POWER4-like core [Moudgill et al. 1999]. This
package implements an equivalent trace-driven, cycle-level model of the
Table-1 machine:

* 2.0 GHz, 8-wide fetch, dispatch groups of up to 5 (POWER4 style),
  in-order dispatch/retire, out-of-order issue;
* 2 integer / 2 floating-point / 2 load-store / 1 branch unit with the
  paper's latencies (INT 1/4/35 add/mul/div; FP 5, 28 for divide);
* 150-entry reorder buffer, 256-entry register file, 32-entry memory
  queue;
* 64KB direct-mapped L1I, 32KB 2-way L1D, 1MB 4-way unified L2 (128-byte
  lines), 128-entry i/dTLBs, 1/10/77-cycle contention-less latencies;
* bimodal branch predictor with mispredict redirect at resolve.

Its output is exactly what the paper consumes: a per-cycle **masking
trace** for the integer, floating-point, and decode units (busy
fraction) and the register file (fraction of entries holding live
values), plus conventional pipeline statistics.
"""

from .isa import InstructionRecord, InstructionTrace, OpClass
from .config import MachineConfig, FunctionalUnitSpec, CacheSpec, TlbSpec
from .caches import Cache, Tlb
from .branch import BimodalPredictor
from .simulator import SimulationResult, simulate
from .stats import PipelineStats
from .trace_io import load_trace, save_trace

__all__ = [
    "InstructionRecord",
    "InstructionTrace",
    "OpClass",
    "MachineConfig",
    "FunctionalUnitSpec",
    "CacheSpec",
    "TlbSpec",
    "Cache",
    "Tlb",
    "BimodalPredictor",
    "SimulationResult",
    "simulate",
    "PipelineStats",
    "load_trace",
    "save_trace",
]
