"""Simplified POWER-like instruction set for trace-driven simulation.

A trace-driven timing model needs only the scheduling-relevant facts
about each instruction: its operation class (which functional unit and
latency it needs), register operands (for dependences and liveness),
memory address (for the cache hierarchy), and branch outcome (for the
predictor). That is what :class:`InstructionRecord` carries for one
instruction and :class:`InstructionTrace` carries, column by column, for
a whole dynamic stream.

Registers are architectural: 0..31 integer, 32..63 floating point
(:data:`INT_REG_BASE`/:data:`FP_REG_BASE`). The machine's 256-entry
physical register file (Table 1: 80 integer + 72 FP + control) is
modelled in the pipeline's liveness accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np

from ..errors import TraceError

#: Architectural integer registers are 0..31.
INT_REG_BASE = 0
#: Architectural floating-point registers are 32..63.
FP_REG_BASE = 32
#: Total architectural registers carried in traces.
NUM_ARCH_REGS = 64


class OpClass(IntEnum):
    """Operation classes, each mapping to one functional-unit type."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ADD = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_branch(self) -> bool:
        return self is OpClass.BRANCH

    @property
    def is_fp(self) -> bool:
        return self in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV)

    @property
    def is_int(self) -> bool:
        return self in (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV)

    @property
    def unit(self) -> str:
        """The functional-unit pool this class issues to."""
        if self.is_int:
            return "int"
        if self.is_fp:
            return "fp"
        if self.is_memory:
            return "ls"
        return "br"


@dataclass(frozen=True)
class InstructionRecord:
    """One dynamic instruction of a trace.

    Attributes
    ----------
    op:
        Operation class.
    dest:
        Destination architectural register, or ``None`` (stores,
        branches).
    srcs:
        Source architectural registers (0-3 of them).
    pc:
        Instruction address (for the I-cache and branch predictor).
    mem_addr:
        Effective address for loads/stores, else ``None``.
    taken:
        Branch outcome for branches, else ``False``.
    """

    op: OpClass
    dest: int | None = None
    srcs: tuple[int, ...] = ()
    pc: int = 0
    mem_addr: int | None = None
    taken: bool = False

    def __post_init__(self) -> None:
        if self.dest is not None and not 0 <= self.dest < NUM_ARCH_REGS:
            raise TraceError(f"dest register {self.dest} out of range")
        for src in self.srcs:
            if not 0 <= src < NUM_ARCH_REGS:
                raise TraceError(f"src register {src} out of range")
        if self.op.is_memory and self.mem_addr is None:
            raise TraceError(f"{self.op.name} needs a memory address")
        if self.op is OpClass.STORE and self.dest is not None:
            raise TraceError("stores do not write registers")
        if len(self.srcs) > 3:
            raise TraceError("at most three source registers supported")


class InstructionTrace:
    """A dynamic instruction stream as parallel columns (struct of arrays).

    The columns are the :mod:`~repro.microarch.trace_io` file layout, so
    synthesis, the pipeline and trace files share one representation:

    * ``op``       — op-class codes (:class:`OpClass` values);
    * ``dest``     — destination register, -1 for none;
    * ``srcs``     — shape ``(n, 3)`` source registers, -1 padding;
    * ``pc``       — instruction addresses;
    * ``mem_addr`` — effective addresses, -1 for non-memory ops;
    * ``taken``    — branch outcomes.

    Indexing and iteration give an :class:`InstructionRecord` view, and
    :meth:`from_records` builds a trace from hand-written records.
    Columns are not checked on construction; :meth:`validate` checks
    them all at once where a trace enters the simulator.
    """

    __slots__ = ("op", "dest", "srcs", "pc", "mem_addr", "taken")

    def __init__(self, op, dest, srcs, pc, mem_addr, taken):
        self.op = np.asarray(op)
        self.dest = np.asarray(dest)
        self.srcs = np.asarray(srcs)
        self.pc = np.asarray(pc)
        self.mem_addr = np.asarray(mem_addr)
        self.taken = np.asarray(taken)

    @classmethod
    def from_records(
        cls, records: Iterable[InstructionRecord]
    ) -> "InstructionTrace":
        """Columns of a sequence of :class:`InstructionRecord` objects."""
        records = list(records)
        for record in records:
            if not isinstance(record, InstructionRecord):
                raise TraceError(
                    f"trace elements must be InstructionRecord, got "
                    f"{type(record).__name__}"
                )
        return cls(
            op=np.array([int(r.op) for r in records], dtype=np.int8),
            dest=np.array(
                [-1 if r.dest is None else r.dest for r in records],
                dtype=np.int16,
            ),
            srcs=np.array(
                [tuple(r.srcs) + (-1,) * (3 - len(r.srcs)) for r in records],
                dtype=np.int16,
            ).reshape(len(records), 3),
            pc=np.array([r.pc for r in records], dtype=np.int64),
            mem_addr=np.array(
                [-1 if r.mem_addr is None else r.mem_addr for r in records],
                dtype=np.int64,
            ),
            taken=np.array([r.taken for r in records], dtype=bool),
        )

    @classmethod
    def coerce(cls, trace) -> "InstructionTrace":
        """``trace`` itself if columnar, else the columns of its records."""
        if isinstance(trace, cls):
            return trace
        return cls.from_records(trace)

    def __len__(self) -> int:
        return self.op.shape[0]

    def __getitem__(self, index: int) -> InstructionRecord:
        dest = int(self.dest[index])
        mem_addr = int(self.mem_addr[index])
        return InstructionRecord(
            op=OpClass(int(self.op[index])),
            dest=dest if dest >= 0 else None,
            srcs=tuple(int(s) for s in self.srcs[index] if s >= 0),
            pc=int(self.pc[index]),
            mem_addr=mem_addr if mem_addr >= 0 else None,
            taken=bool(self.taken[index]),
        )

    def __iter__(self) -> Iterator[InstructionRecord]:
        return (self[i] for i in range(len(self)))

    def records(self) -> list[InstructionRecord]:
        """The record view of the whole trace."""
        return list(self)

    def columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):
            return self.records() == list(other)
        if not isinstance(other, InstructionTrace):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstructionTrace({len(self)} instructions)"

    def validate(self) -> None:
        """Check every column at once; raises :class:`TraceError`."""
        n = self.op.shape[0] if self.op.ndim == 1 else -1
        if n == 0:
            raise TraceError("empty instruction trace")
        shapes = {
            "op": (n,), "dest": (n,), "srcs": (n, 3), "pc": (n,),
            "mem_addr": (n,), "taken": (n,),
        }
        for name, shape in shapes.items():
            column = getattr(self, name)
            if column.shape != shape:
                raise TraceError(
                    f"column {name!r} has shape {column.shape}, "
                    f"expected {shape}"
                )
            if column.dtype.kind not in "iub":
                raise TraceError(
                    f"column {name!r} must be integer, got {column.dtype}"
                )
        op = self.op
        bad = (op < 0) | (op > max(OpClass))
        if bad.any():
            raise TraceError(
                f"op code {int(op[bad][0])} outside 0..{int(max(OpClass))}"
            )
        for name in ("dest", "srcs"):
            regs = getattr(self, name)
            bad = (regs < -1) | (regs >= NUM_ARCH_REGS)
            if bad.any():
                raise TraceError(
                    f"{name} register {int(regs[bad][0])} out of range"
                )
        memory = (op == OpClass.LOAD) | (op == OpClass.STORE)
        if (memory & (self.mem_addr < 0)).any():
            raise TraceError("memory op needs a memory address")
        if ((op == OpClass.STORE) & (self.dest >= 0)).any():
            raise TraceError("stores do not write registers")


def validate_trace(trace) -> InstructionTrace:
    """Validate a whole trace; returns it in columnar form."""
    trace = InstructionTrace.coerce(trace)
    trace.validate()
    return trace
