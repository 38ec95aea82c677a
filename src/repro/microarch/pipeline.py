"""The out-of-order pipeline timing model.

A trace-driven scheduler in the Turandot tradition: it walks the dynamic
instruction stream once, in program order, computing for every
instruction the cycle of each pipeline event (fetch, dispatch, issue,
complete, retire) subject to the machine's structural and data
constraints:

* fetch bandwidth, I-cache/iTLB misses, branch-mispredict redirects;
* POWER4-style dispatch groups (up to 5 instructions, broken at
  branches), one group retired per cycle;
* reorder-buffer, issue-queue, and memory-queue occupancy;
* operand readiness through architectural register dependences;
* functional-unit pools (2 INT / 2 FP / 2 LS / 1 BR) with the paper's
  latencies; the integer divider is unpipelined;
* D-cache/dTLB hierarchy latencies for loads.

Two deliberate approximations versus an RTL-faithful core, both standard
for trace-driven timing models and both irrelevant to masking-trace
statistics: functional-unit slots are allocated in program order among
ready instructions (a younger instruction may still issue earlier if its
operands are ready earlier), and the issue-queue constraint uses FIFO
ordering. Wrong-path instructions after mispredicted branches are not
simulated; the redirect penalty models their cost (Turandot's own
default trace-driven mode does the same).

The scheduler's second product is the paper's masking trace: per-cycle
busy fractions for the unit pools, per-cycle dispatch (decode) activity,
and per-value register live intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from .branch import BimodalPredictor
from .caches import Cache, MemoryHierarchy, Tlb
from .config import MachineConfig
from .isa import NUM_ARCH_REGS, InstructionTrace, OpClass
from .stats import PipelineStats


@dataclass
class ScheduleResult:
    """Per-instruction event cycles plus activity records."""

    fetch: list[int]
    dispatch: list[int]
    issue: list[int]
    complete: list[int]
    retire: list[int]
    #: (start_cycle, end_cycle, pool) busy intervals per executed op.
    unit_intervals: dict = field(default_factory=dict)
    #: cycles in which at least one instruction was dispatched (decode busy).
    dispatch_cycles: list[int] = field(default_factory=list)
    #: per-value register live intervals: (reg, start_cycle, end_cycle).
    live_intervals: list[tuple[int, int, int]] = field(default_factory=list)
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def total_cycles(self) -> int:
        return self.retire[-1] + 1 if self.retire else 0


#: Functional-unit pools, in ``PipelineStats.unit_busy_cycles`` order.
_POOLS = ("int", "fp", "ls", "br")
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)


class PipelineModel:
    """One simulation run over one instruction trace."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.icache = Cache(config.l1i)
        self.dcache = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.itlb = Tlb(config.itlb)
        self.dtlb = Tlb(config.dtlb)
        self.imem = MemoryHierarchy(
            self.icache, self.l2, self.itlb, config.memory_latency
        )
        self.dmem = MemoryHierarchy(
            self.dcache, self.l2, self.dtlb, config.memory_latency
        )
        self.predictor = BimodalPredictor(config.branch_predictor_entries)

    def run(self, trace: InstructionTrace) -> ScheduleResult:
        """Schedule ``trace`` (columns, or a list of records)."""
        if not isinstance(trace, InstructionTrace):
            trace = InstructionTrace.from_records(trace)
        n = len(trace)
        if n == 0:
            raise SimulationError("cannot simulate an empty trace")
        cfg = self.config

        # Per-op-code lookup tables.
        classes = list(OpClass)
        unit_of = [_POOLS.index(op.unit) for op in classes]
        latency = [cfg.latency_of(op) for op in classes]
        unpipelined = [op in cfg.unpipelined_ops for op in classes]
        is_memory = [op.is_memory for op in classes]

        ops = trace.op.tolist()
        dests = trace.dest.tolist()
        srcs = trace.srcs.tolist()
        pcs = trace.pc.tolist()
        addrs = trace.mem_addr.tolist()
        takens = trace.taken.tolist()

        fetch = [0] * n
        dispatch = [0] * n
        issue = [0] * n
        complete = [0] * n
        retire = [0] * n

        # Per pool: next free cycle of each instance, busy cycles, and
        # the (start, end) busy interval of every executed op.
        available = [[0] * cfg.unit_pool(name).count for name in _POOLS]
        busy = [0] * len(_POOLS)
        intervals: tuple[list, ...] = tuple([] for _ in _POOLS)

        # Per architectural register: the cycle its value is usable, the
        # cycle its current value became available (liveness) and the
        # latest read of that value so far. The extra last slot is what
        # the -1 source padding indexes: never written, so it is always
        # ready and never live.
        reg_ready = [0] * (NUM_ARCH_REGS + 1)
        def_cycle = [-1] * (NUM_ARCH_REGS + 1)
        last_read = [-1] * (NUM_ARCH_REGS + 1)
        live_intervals: list[tuple[int, int, int]] = []

        # Memory-queue occupancy: release cycle of each memory op, FIFO.
        memop_release: list[int] = []
        # Finish-width limiting: completions per cycle.
        completions: dict[int, int] = {}
        dispatch_cycles: list[int] = []

        fetch_width = cfg.fetch_width
        finish_width = cfg.finish_width
        group_size = cfg.dispatch_group_size
        rob_entries = cfg.rob_entries
        iq_entries = cfg.issue_queue_entries
        mq_entries = cfg.memory_queue_entries
        redirect_penalty = cfg.mispredict_redirect_penalty
        l1i_latency = cfg.l1i.latency
        l1d_latency = self.dcache.spec.latency
        line_shift = (cfg.l1i.line_bytes - 1).bit_length()
        imem_access = self.imem.access
        dmem_access = self.dmem.access
        predict = self.predictor.predict_and_update

        fetch_line = None  # current I-cache line; refetch on change
        next_fetch_cycle = 0
        fetched_this_cycle = 0
        redirect_after = None  # front end blocked until here
        group_start = 0
        last_retire_cycle = -1
        groups = branches = mispredictions = loads = stores = 0

        for i in range(n):
            # ---------------- fetch ----------------
            if redirect_after is not None:
                if redirect_after > next_fetch_cycle:
                    next_fetch_cycle = redirect_after
                fetched_this_cycle = 0
                redirect_after = None
            pc = pcs[i]
            line = pc >> line_shift
            if line != fetch_line:
                fetch_line = line
                miss_latency = imem_access(pc)
                if miss_latency > l1i_latency:
                    next_fetch_cycle += miss_latency - l1i_latency
                    fetched_this_cycle = 0
            if fetched_this_cycle >= fetch_width:
                next_fetch_cycle += 1
                fetched_this_cycle = 0
            fetch[i] = next_fetch_cycle
            fetched_this_cycle += 1

            # ---------------- group formation ----------------
            # A group closes at a branch, when full, or at trace end.
            is_branch = ops[i] == _BRANCH
            end = i + 1
            size = end - group_start
            if not is_branch and size < group_size and end < n:
                continue

            # ---------------- dispatch ----------------
            # Decode pipe after fetch (fetch cycles never decrease, so
            # the newest member was fetched last), then ROB / issue-queue
            # / memory-queue occupancy. Groups are not limited to one
            # per dispatch cycle (see DESIGN.md, "Trace production").
            dispatch_cycle = next_fetch_cycle + 1
            rob_blocker = group_start - rob_entries + size
            if rob_blocker >= 0 and retire[rob_blocker] + 1 > dispatch_cycle:
                dispatch_cycle = retire[rob_blocker] + 1
            iq_blocker = group_start - iq_entries + size
            if iq_blocker >= 0 and issue[iq_blocker] + 1 > dispatch_cycle:
                dispatch_cycle = issue[iq_blocker] + 1
            # Memory queue (FIFO-slot approximation, as for the ROB): the
            # memop that is memory_queue_entries older than each memop in
            # this group must have released its slot.
            released = len(memop_release)
            ordinal = released
            for j in range(group_start, end):
                if is_memory[ops[j]]:
                    blocker = ordinal - mq_entries
                    if 0 <= blocker < released:
                        if memop_release[blocker] > dispatch_cycle:
                            dispatch_cycle = memop_release[blocker]
                    elif blocker >= 0 and released:
                        # The blocking memop is in this same group (the
                        # group alone overflows the queue); approximate
                        # by waiting for the newest known release.
                        if memop_release[-1] > dispatch_cycle:
                            dispatch_cycle = memop_release[-1]
                    ordinal += 1
            dispatch_cycles.append(dispatch_cycle)
            groups += 1

            # ---------------- issue / execute ----------------
            group_complete = 0
            for j in range(group_start, end):
                dispatch[j] = dispatch_cycle
                op = ops[j]
                a, b, c = srcs[j]
                ready = dispatch_cycle + 1
                if reg_ready[a] > ready:
                    ready = reg_ready[a]
                if reg_ready[b] > ready:
                    ready = reg_ready[b]
                if reg_ready[c] > ready:
                    ready = reg_ready[c]

                base_latency = latency[op]
                if op == _LOAD:
                    loads += 1
                    # The LS unit is occupied for address generation plus
                    # the L1 probe; a miss parks in the (modelled-
                    # unbounded) miss queue and only delays this load's
                    # completion, as in a non-blocking cache.
                    occupancy = base_latency + l1d_latency
                    total_latency = base_latency + dmem_access(addrs[j])
                elif op == _STORE:
                    stores += 1
                    # Stores translate/probe at execute; data is written
                    # at retirement through the memory queue.
                    dmem_access(addrs[j])
                    occupancy = total_latency = base_latency
                else:
                    occupancy = total_latency = base_latency

                # The first instance to free up takes the op; the
                # unpipelined ones stay blocked for the whole latency.
                unit = unit_of[op]
                pool = available[unit]
                free = min(pool)
                instance = pool.index(free)
                issue_cycle = ready if ready > free else free
                pool[instance] = issue_cycle + (
                    occupancy if unpipelined[op] else 1
                )
                busy[unit] += occupancy

                # Finish-width limit: at most finish_width completions
                # per cycle.
                complete_cycle = issue_cycle + total_latency
                finishing = completions.get(complete_cycle, 0)
                while finishing >= finish_width:
                    complete_cycle += 1
                    finishing = completions.get(complete_cycle, 0)
                completions[complete_cycle] = finishing + 1

                issue[j] = issue_cycle
                complete[j] = complete_cycle
                intervals[unit].append((issue_cycle, issue_cycle + occupancy))
                if complete_cycle > group_complete:
                    group_complete = complete_cycle

                # Liveness: reads extend the current value's interval.
                if def_cycle[a] >= 0 and last_read[a] < issue_cycle:
                    last_read[a] = issue_cycle
                if def_cycle[b] >= 0 and last_read[b] < issue_cycle:
                    last_read[b] = issue_cycle
                if def_cycle[c] >= 0 and last_read[c] < issue_cycle:
                    last_read[c] = issue_cycle
                # A write finalises the previous value's interval.
                reg = dests[j]
                if reg >= 0:
                    reg_ready[reg] = complete_cycle
                    defined = def_cycle[reg]
                    if defined >= 0 and last_read[reg] > defined:
                        live_intervals.append((reg, defined, last_read[reg]))
                    def_cycle[reg] = complete_cycle
                    last_read[reg] = -1

            # ---------------- retire ----------------
            retire_cycle = group_complete + 1
            if last_retire_cycle + 1 > retire_cycle:
                retire_cycle = last_retire_cycle + 1
            # Memory-queue release: loads free at completion, stores
            # drain after retirement.
            for j in range(group_start, end):
                retire[j] = retire_cycle
                op = ops[j]
                if op == _LOAD:
                    memop_release.append(complete[j] + 1)
                elif op == _STORE:
                    memop_release.append(retire_cycle + 1)
            last_retire_cycle = retire_cycle
            group_start = end

            # ---------------- branch outcome ----------------
            if is_branch:
                branches += 1
                taken = takens[i]
                if not predict(pc, taken):
                    mispredictions += 1
                    redirect_after = complete[i] + redirect_penalty
                elif taken:
                    # Taken branches end the fetch group (redirect bubble
                    # is hidden by the predictor; next line fetch below).
                    fetched_this_cycle = fetch_width

        # Finalise still-open liveness intervals at trace end.
        for reg in range(NUM_ARCH_REGS):
            if def_cycle[reg] >= 0 and last_read[reg] > def_cycle[reg]:
                live_intervals.append((reg, def_cycle[reg], last_read[reg]))

        stats = PipelineStats(
            instructions=n,
            cycles=retire[-1] + 1,
            dispatch_groups=groups,
            l1i_misses=self.icache.misses,
            l1d_misses=self.dcache.misses,
            l2_misses=self.l2.misses,
            itlb_misses=self.itlb.misses,
            dtlb_misses=self.dtlb.misses,
            branches=branches,
            mispredictions=mispredictions,
            loads=loads,
            stores=stores,
            unit_busy_cycles=dict(zip(_POOLS, busy)),
        )
        return ScheduleResult(
            fetch=fetch,
            dispatch=dispatch,
            issue=issue,
            complete=complete,
            retire=retire,
            unit_intervals=dict(zip(_POOLS, intervals)),
            dispatch_cycles=dispatch_cycles,
            live_intervals=live_intervals,
            stats=stats,
        )
