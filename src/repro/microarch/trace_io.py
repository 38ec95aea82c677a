"""Instruction-trace serialisation.

Lets users persist synthesized traces or bring their own (e.g. converted
from a binary-instrumentation tool) into the simulator. The format is a
compressed ``.npz`` of parallel arrays — compact and loadable without
any custom parsing:

* ``op``        — int8 op-class codes (:class:`~repro.microarch.isa.OpClass`);
* ``dest``      — int16 destination register, -1 for none;
* ``srcs``      — int16 array of shape ``(n, 3)``, -1 padding;
* ``pc``        — int64 instruction addresses;
* ``mem_addr``  — int64 effective addresses, -1 for non-memory ops;
* ``taken``     — bool branch outcomes.

These are the columns of :class:`~repro.microarch.isa.InstructionTrace`,
so saving and loading are column writes and reads. A loaded file is
validated column-wise (op codes, register ranges, memory addresses,
store destinations) and a malformed one fails with :class:`TraceError`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import TraceError
from .isa import InstructionTrace

_FORMAT_VERSION = 1

#: On-disk dtype of each column.
_DTYPES = {
    "op": np.int8,
    "dest": np.int16,
    "srcs": np.int16,
    "pc": np.int64,
    "mem_addr": np.int64,
    "taken": bool,
}


def save_trace(trace: InstructionTrace, path: "str | Path") -> None:
    """Serialise a trace (columns or a list of records) to ``.npz``."""
    trace = InstructionTrace.coerce(trace)
    if not len(trace):
        raise TraceError("refusing to save an empty trace")
    trace.validate()
    np.savez_compressed(
        Path(path),
        version=np.asarray(_FORMAT_VERSION),
        **{
            name: column.astype(_DTYPES[name])
            for name, column in trace.columns().items()
        },
    )


def load_trace(path: "str | Path") -> InstructionTrace:
    """Load and validate a trace saved by :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            columns = {name: data[name] for name in _DTYPES}
    except KeyError as exc:
        raise TraceError(f"{path}: missing field {exc}") from exc
    except (OSError, ValueError) as exc:
        raise TraceError(f"{path}: unreadable trace file: {exc}") from exc
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported trace format version {version}"
        )
    trace = InstructionTrace(**columns)
    try:
        trace.validate()
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from exc
    return trace
