"""Tests for instruction-trace serialisation and the simulator CLI."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.microarch import (
    InstructionRecord,
    OpClass,
    load_trace,
    save_trace,
)
from repro.microarch.cli import main as simulate_main
from repro.workloads import spec_benchmark, synthesize_trace


class TestTraceRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        trace = synthesize_trace(spec_benchmark("gzip"), 500, seed=3)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == trace

    def test_round_trip_all_op_kinds(self, tmp_path):
        trace = [
            InstructionRecord(OpClass.INT_ALU, dest=1, srcs=(2, 3), pc=0x10),
            InstructionRecord(
                OpClass.LOAD, dest=4, srcs=(1,), pc=0x14,
                mem_addr=0x4000_0000,
            ),
            InstructionRecord(
                OpClass.STORE, srcs=(4, 1), pc=0x18, mem_addr=0x4000_0008
            ),
            InstructionRecord(
                OpClass.BRANCH, srcs=(4,), pc=0x1C, taken=True
            ),
            InstructionRecord(OpClass.FP_DIV, dest=40, srcs=(41, 42), pc=0x20),
        ]
        path = tmp_path / "ops.npz"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            save_trace([], tmp_path / "empty.npz")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.npz")

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.asarray(99),
            op=np.zeros(1, dtype=np.int8),
            dest=np.full(1, -1, dtype=np.int16),
            srcs=np.full((1, 3), -1, dtype=np.int16),
            pc=np.zeros(1, dtype=np.int64),
            mem_addr=np.full(1, -1, dtype=np.int64),
            taken=np.zeros(1, dtype=bool),
        )
        with pytest.raises(TraceError):
            load_trace(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "fields.npz"
        np.savez_compressed(path, version=np.asarray(1))
        with pytest.raises(TraceError):
            load_trace(path)


def _write_trace(path, **overrides):
    """A valid one-load trace file with some columns replaced."""
    columns = {
        "version": np.asarray(1),
        "op": np.asarray([int(OpClass.LOAD)], dtype=np.int8),
        "dest": np.asarray([4], dtype=np.int16),
        "srcs": np.asarray([[1, -1, -1]], dtype=np.int16),
        "pc": np.asarray([0x10], dtype=np.int64),
        "mem_addr": np.asarray([0x4000_0000], dtype=np.int64),
        "taken": np.zeros(1, dtype=bool),
    }
    columns.update(overrides)
    np.savez_compressed(path, **columns)
    return path


class TestMalformedTraceFiles:
    def test_crafted_file_loads(self, tmp_path):
        trace = load_trace(_write_trace(tmp_path / "ok.npz"))
        assert list(trace) == [
            InstructionRecord(
                OpClass.LOAD, dest=4, srcs=(1,), pc=0x10, mem_addr=0x4000_0000
            )
        ]

    @pytest.mark.parametrize("code", [-1, 9, 127])
    def test_op_code_out_of_range(self, tmp_path, code):
        path = _write_trace(
            tmp_path / "op.npz", op=np.asarray([code], dtype=np.int8)
        )
        with pytest.raises(TraceError, match="op code"):
            load_trace(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("dest", [64]),
            ("dest", [-2]),
            ("srcs", [[1, 70, -1]]),
            ("srcs", [[-3, -1, -1]]),
        ],
    )
    def test_register_out_of_range(self, tmp_path, column, value):
        path = _write_trace(
            tmp_path / "reg.npz", **{column: np.asarray(value, dtype=np.int16)}
        )
        with pytest.raises(TraceError, match="register"):
            load_trace(path)

    def test_memory_op_without_address(self, tmp_path):
        path = _write_trace(
            tmp_path / "mem.npz", mem_addr=np.asarray([-1], dtype=np.int64)
        )
        with pytest.raises(TraceError, match="memory address"):
            load_trace(path)

    def test_store_with_destination(self, tmp_path):
        path = _write_trace(
            tmp_path / "store.npz",
            op=np.asarray([int(OpClass.STORE)], dtype=np.int8),
        )
        with pytest.raises(TraceError, match="stores"):
            load_trace(path)

    def test_ragged_columns(self, tmp_path):
        path = _write_trace(
            tmp_path / "ragged.npz",
            pc=np.asarray([0x10, 0x14], dtype=np.int64),
        )
        with pytest.raises(TraceError, match="shape"):
            load_trace(path)


class TestSimulateCli:
    def test_synthesize_run(self, capsys):
        code = simulate_main(["gzip", "--instructions", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "register_file" in out

    def test_save_and_reload_flow(self, tmp_path, capsys):
        trace_path = tmp_path / "t.npz"
        masking_path = tmp_path / "m.npz"
        code = simulate_main(
            [
                "mcf",
                "--instructions", "1500",
                "--save-trace", str(trace_path),
                "--save-masking", str(masking_path),
            ]
        )
        assert code == 0
        assert trace_path.exists() and masking_path.exists()
        capsys.readouterr()
        code = simulate_main(["--load-trace", str(trace_path)])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_no_input_errors(self, capsys):
        assert simulate_main([]) == 2
        assert "error" in capsys.readouterr().err
