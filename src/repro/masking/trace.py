"""Masking traces: the simulator's per-cycle vulnerability output.

A :class:`MaskingTrace` holds, for one workload window on one machine
configuration, a named per-cycle vulnerability array per component —
exactly the paper's "masking trace" artifact (Section 4): for each cycle
and each component, whether (or with what probability) a raw error in
that cycle would escape masking.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import TraceError
from ..units import BASE_CLOCK_HZ
from .profile import PiecewiseProfile, from_cycle_mask


class MaskingTrace:
    """Named per-cycle vulnerability masks over a common window.

    Parameters
    ----------
    masks:
        Mapping from component name to a 1-D array; boolean arrays model
        busy/idle units, float arrays in ``[0, 1]`` model fractional
        vulnerability (register liveness). All arrays must share one
        length.
    clock_hz:
        The simulated clock, to convert cycles to seconds.
    workload:
        Label of the generating workload (for reports).
    """

    def __init__(
        self,
        masks: Mapping[str, np.ndarray],
        clock_hz: float = BASE_CLOCK_HZ,
        workload: str = "",
    ):
        if not masks:
            raise TraceError("a masking trace needs at least one component")
        if clock_hz <= 0:
            raise TraceError(f"clock must be positive, got {clock_hz}")
        self._masks: dict[str, np.ndarray] = {}
        length = None
        for name, arr in masks.items():
            arr = np.asarray(arr)
            if arr.ndim != 1 or arr.size == 0:
                raise TraceError(
                    f"component {name!r}: mask must be a non-empty 1-D array"
                )
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise TraceError(
                    f"component {name!r}: length {arr.size} != {length}"
                )
            values = arr.astype(float)
            if np.any((values < 0) | (values > 1)):
                raise TraceError(
                    f"component {name!r}: values must lie in [0, 1]"
                )
            self._masks[name] = values
        self._clock_hz = float(clock_hz)
        self.workload = workload

    # -- accessors -------------------------------------------------------

    @property
    def component_names(self) -> list[str]:
        return list(self._masks.keys())

    @property
    def n_cycles(self) -> int:
        return next(iter(self._masks.values())).size

    @property
    def clock_hz(self) -> float:
        return self._clock_hz

    @property
    def cycle_time(self) -> float:
        return 1.0 / self._clock_hz

    @property
    def duration_seconds(self) -> float:
        return self.n_cycles / self._clock_hz

    def mask(self, name: str) -> np.ndarray:
        if name not in self._masks:
            raise TraceError(
                f"unknown component {name!r}; have {self.component_names}"
            )
        return self._masks[name]

    def profile(self, name: str) -> PiecewiseProfile:
        """Run-length-compressed vulnerability profile for a component."""
        return from_cycle_mask(self.mask(name), self.cycle_time)

    def avf(self, name: str) -> float:
        """The component's AVF: time-average vulnerability (Section 2.2)."""
        return float(self.mask(name).mean())

    def utilization_summary(self) -> dict[str, float]:
        """AVF per component — the headline numbers of a masking trace."""
        return {name: self.avf(name) for name in self._masks}

    # -- persistence (``repro-simulate --save-masking`` writes this) -------

    def save(self, path: "str | Path") -> None:
        """Serialise to a ``.npz`` file."""
        path = Path(path)
        payload = {f"mask_{k}": v for k, v in self._masks.items()}
        payload["_clock_hz"] = np.asarray(self._clock_hz)
        payload["_workload"] = np.asarray(self.workload)
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: "str | Path") -> "MaskingTrace":
        """Deserialise from :meth:`save` output."""
        with np.load(Path(path), allow_pickle=False) as data:
            masks = {
                key[len("mask_"):]: data[key]
                for key in data.files
                if key.startswith("mask_")
            }
            clock = float(data["_clock_hz"])
            workload = str(data["_workload"])
        return cls(masks, clock_hz=clock, workload=workload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        comps = ", ".join(
            f"{n}:{self.avf(n):.3f}" for n in self.component_names
        )
        return (
            f"MaskingTrace(workload={self.workload!r}, "
            f"cycles={self.n_cycles}, avf=[{comps}])"
        )
