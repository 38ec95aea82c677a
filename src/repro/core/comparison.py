"""Method comparison: the paper's discrepancy measurements.

Every results section of the paper reports the *relative error* of an
estimation method against the Monte-Carlo (or, equivalently, exact
first-principles) MTTF. A :class:`MethodComparison` holds one system's
method MTTFs and their errors, ready for the experiment tables; the
batch engine (``repro.evaluate_design_space``, and
``repro.analyze(system).run()`` through it) builds one per system.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..reliability.metrics import MTTFEstimate, signed_relative_error
from .avf import avf_mttf


@dataclass(frozen=True)
class MethodComparison:
    """MTTFs of every method on one system, with errors vs the reference.

    ``reference`` is the ground-truth estimate (Monte Carlo by default,
    matching the paper; exact first-principles optionally). Error fields
    are signed relative errors ``(method - reference)/reference`` —
    Section 5.2 notes the AVF step can err in either direction.
    """

    system_label: str
    reference: MTTFEstimate
    estimates: dict[str, MTTFEstimate] = field(default_factory=dict)

    def error(self, method: str) -> float:
        """Signed relative error of ``method`` against the reference."""
        est = self.estimates[method]
        return signed_relative_error(
            est.mttf_seconds, self.reference.mttf_seconds
        )

    def abs_error(self, method: str) -> float:
        return abs(self.error(method))

    @property
    def method_names(self) -> list[str]:
        return list(self.estimates.keys())

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization (lossless)."""
        return {
            "system_label": self.system_label,
            "reference": self.reference.to_dict(),
            "estimates": {
                name: est.to_dict() for name, est in self.estimates.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MethodComparison":
        """Inverse of :meth:`to_dict`."""
        return cls(
            system_label=str(data["system_label"]),
            reference=MTTFEstimate.from_dict(data["reference"]),
            estimates={
                name: MTTFEstimate.from_dict(est)
                for name, est in data["estimates"].items()
            },
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MethodComparison":
        return cls.from_dict(json.loads(text))


def avf_step_comparison(
    rate_per_second: float,
    profile,
    reference_mttf: float,
) -> tuple[float, float]:
    """AVF-step MTTF and its signed error against a reference (seconds).

    A light-weight helper for the single-component sweeps (Figures 3/5).
    """
    estimate = avf_mttf(rate_per_second, profile)
    if math.isinf(estimate) or math.isinf(reference_mttf):
        raise ValueError("AVF comparison needs finite MTTFs")
    return estimate, signed_relative_error(estimate, reference_mttf)
