"""Method comparison: the paper's discrepancy measurements.

Every results section of the paper reports the *relative error* of an
estimation method against the Monte-Carlo (or, equivalently, exact
first-principles) MTTF. A :class:`MethodComparison` holds one system's
method MTTFs and their errors, ready for the experiment tables; the
batch engine (``repro.evaluate_design_space``, and
``repro.analyze(system).run()`` through it) builds one per system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ConfigurationError
from ..reliability.metrics import MTTFEstimate, signed_relative_error


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
    def from_dict(cls, data: Mapping) -> "MethodComparison":
        """Inverse of :meth:`to_dict`; a malformed form raises
        :class:`ConfigurationError` naming the field."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a comparison must be a mapping, got {type(data).__name__}"
            )
        label, estimates = data.get("system_label"), data.get("estimates")
        if not isinstance(label, str):
            raise ConfigurationError(
                f"comparison system_label must be a string, got {label!r}"
            )
        if "reference" not in data:
            raise ConfigurationError(f"comparison {label!r} has no reference")
        if not isinstance(estimates, Mapping):
            raise ConfigurationError(
                f"comparison {label!r} estimates must be a mapping, got "
                f"{type(estimates).__name__}"
            )
        return cls(
            system_label=label,
            reference=MTTFEstimate.from_dict(data["reference"]),
            estimates={
                name: MTTFEstimate.from_dict(est)
                for name, est in estimates.items()
            },
        )
