"""SoftArch's instruction-level value-graph frontend (DSN 2005 model).

The profile-level entry points in :mod:`repro.core.softarch` operate on
vulnerability profiles. This module implements the tool SoftArch
actually was: coupled to the timing simulator, it walks the scheduled
instruction stream and

* **generates** error probability on each value while it resides in a
  structure — in the functional unit while being computed
  (``1 - e^{-λ_unit·occupancy}`` apportioned per instance) and in the
  register file while dependents still read it
  (``1 - e^{-λ_entry·residency}``);
* **propagates** along data dependences: a backward reachability pass
  marks the values that can affect program output (transitively feeding
  a store's data or a branch's condition — the value-graph analogue of
  ACE analysis). Errors on unreachable values are masked;
* records an **output event** per output-reaching value at the time its
  error first influences dependents, with the probability accumulated
  over the value's residency;
* folds the per-iteration event timeline into an MTTF with
  :class:`~repro.core.softarch.SoftArchTimeline`.

Attributing each value's generation hazard to exactly one output event
keeps the fold free of the reconvergent-fanout double counting a naive
independent-OR propagation suffers (the same bookkeeping the original
tool performs when it tracks which error events contribute to a value).

Relative to the paper's Section-4.1 masking rules this model masks
*more*: a strike on a live register whose consumers never reach a store
or branch dies in the value graph, whereas the Section-4.1 rule counts
any strike on a live register as a failure. The value-graph MTTF
therefore upper-bounds the profile-based MTTF; tests assert exactly
that relationship.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import EstimationError
from ..microarch.config import MachineConfig
from ..microarch.isa import InstructionTrace, OpClass
from ..microarch.pipeline import ScheduleResult
from ..ser.rates import PAPER_UNIT_RATES_PER_YEAR
from ..units import per_year_to_per_second
from .softarch import SoftArchTimeline


@dataclass(frozen=True)
class SoftArchRates:
    """Raw error rates for the value-graph model (errors/second).

    Attributes
    ----------
    unit_rates:
        Rate per functional-unit pool, keyed by pool name
        ('int', 'fp', 'ls', 'br'). A strike on the pool lands on one of
        its instances uniformly.
    register_file_rate:
        Rate of the whole register file; a strike lands on one of
        ``register_file_entries`` entries uniformly.
    register_file_entries:
        Entry count (Table 1: 256).
    """

    unit_rates: dict = field(default_factory=dict)
    register_file_rate: float = 0.0
    register_file_entries: int = 256

    def __post_init__(self) -> None:
        for name, rate in self.unit_rates.items():
            if rate < 0:
                raise EstimationError(f"{name}: rate must be >= 0")
        if self.register_file_rate < 0:
            raise EstimationError("register file rate must be >= 0")
        if self.register_file_entries < 1:
            raise EstimationError("register file needs >= 1 entry")

    @classmethod
    def paper_rates(cls) -> "SoftArchRates":
        """The Section-4.1 component rates mapped onto this model."""
        return cls(
            unit_rates={
                "int": per_year_to_per_second(
                    PAPER_UNIT_RATES_PER_YEAR["int_unit"]
                ),
                "fp": per_year_to_per_second(
                    PAPER_UNIT_RATES_PER_YEAR["fp_unit"]
                ),
                # The paper does not separate LS/BR logic; the decode
                # rate stands in for the shared front-end/control logic
                # and is attributed via the branch pool.
                "ls": 0.0,
                "br": per_year_to_per_second(
                    PAPER_UNIT_RATES_PER_YEAR["decode_unit"]
                ),
            },
            register_file_rate=per_year_to_per_second(
                PAPER_UNIT_RATES_PER_YEAR["register_file"]
            ),
        )


def _def_use_edges(
    trace: InstructionTrace,
) -> tuple[list[list[int]], list[list[int]]]:
    """Producer indices per instruction and consumer lists per producer."""
    trace = InstructionTrace.coerce(trace)
    current_def: dict[int, int] = {}
    producers: list[list[int]] = []
    consumers: list[list[int]] = [[] for _ in range(len(trace))]
    for index, (srcs, dest) in enumerate(
        zip(trace.srcs.tolist(), trace.dest.tolist())
    ):
        sources = []
        for src in srcs:
            producer = current_def.get(src)
            if producer is not None:
                sources.append(producer)
                consumers[producer].append(index)
        producers.append(sources)
        if dest >= 0:
            current_def[dest] = index
    return producers, consumers


def _output_reachability(
    trace: InstructionTrace,
    consumers: list[list[int]],
) -> list[bool]:
    """Backward pass: can instruction i's result affect program output?

    Stores and branches are outputs themselves; a value-producing
    instruction is output-reaching if any consumer is an output or
    produces an output-reaching value.
    """
    ops = InstructionTrace.coerce(trace).op.tolist()
    outputs = (OpClass.STORE, OpClass.BRANCH)
    reach = [False] * len(ops)
    for index in range(len(ops) - 1, -1, -1):
        if ops[index] in outputs:
            reach[index] = True
            continue
        reach[index] = any(reach[c] for c in consumers[index])
    return reach


def softarch_from_value_graph(
    trace: InstructionTrace,
    schedule: ScheduleResult,
    config: MachineConfig,
    rates: SoftArchRates,
) -> SoftArchTimeline:
    """Build the SoftArch output-event timeline for one scheduled trace.

    The returned timeline treats the trace window as one iteration of an
    infinite loop (the paper's Section 3 convention), so its
    :meth:`~repro.core.softarch.SoftArchTimeline.mttf` is directly
    comparable with the profile-based methods.
    """
    trace = InstructionTrace.coerce(trace)
    if len(schedule.issue) != len(trace):
        raise EstimationError(
            "schedule and trace describe different instruction counts"
        )
    cycle_time = 1.0 / config.clock_hz
    rf_entry_rate = rates.register_file_rate / rates.register_file_entries
    unit_instance_rate = {
        pool: rates.unit_rates.get(pool, 0.0)
        / config.unit_pool(pool).count
        for pool in ("int", "fp", "ls", "br")
    }

    producers, consumers = _def_use_edges(trace)
    reach = _output_reachability(trace, consumers)

    op_rate = [unit_instance_rate[op.unit] for op in OpClass]
    times: list[float] = []
    probabilities: list[float] = []
    mean_times: list[float] = []
    for index, op in enumerate(trace.op.tolist()):
        if not reach[index]:
            continue  # masked: the value can never affect output
        issue_time = schedule.issue[index] * cycle_time
        complete_time = schedule.complete[index] * cycle_time

        # Error generation in the executing unit, charged to this value.
        occupancy = max(complete_time - issue_time, cycle_time)
        hazard = op_rate[op] * occupancy

        first_influence = None
        if op == OpClass.STORE:
            # Data reaches memory when the store drains after retirement.
            first_influence = schedule.retire[index] * cycle_time
        elif op == OpClass.BRANCH:
            first_influence = complete_time
        else:
            # Register-file residency: errors striking the value while
            # output-reaching consumers still read it are unmasked.
            reaching_reads = [
                schedule.issue[c] * cycle_time
                for c in consumers[index]
                if reach[c]
            ]
            if reaching_reads:
                last_read = max(reaching_reads)
                hazard += rf_entry_rate * max(
                    last_read - complete_time, 0.0
                )
                first_influence = min(reaching_reads)
        if first_influence is None or hazard <= 0.0:
            continue
        event_time = max(first_influence, complete_time)
        times.append(event_time)
        probabilities.append(-math.expm1(-hazard))
        # Strikes spread over [issue, event]; with the tiny per-value
        # hazards here the conditional mean is the midpoint.
        mean_times.append(0.5 * (issue_time + event_time))

    period = schedule.total_cycles * cycle_time
    return SoftArchTimeline.from_columns(
        times, probabilities, mean_times, period
    )
