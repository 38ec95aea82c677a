"""Estimate containers and error metrics shared across methods."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError, EstimationError
from ..units import SECONDS_PER_YEAR, mttf_seconds_to_fit


#: Each field of an estimate's dict form: what it must be, the types
#: that qualify (``bool`` never does) and its default.
_WIRE_FIELDS = {
    "mttf_seconds": ("a number", (int, float), None),
    "std_error_seconds": ("a number", (int, float), 0.0),
    "trials": ("an integer", int, 0),
    "method": ("a string", str, "exact"),
}


@dataclass(frozen=True)
class MTTFEstimate:
    """An MTTF value with (optional) Monte-Carlo uncertainty.

    Attributes
    ----------
    mttf_seconds:
        The point estimate (seconds). May be ``inf`` for a never-failing
        configuration.
    std_error_seconds:
        Standard error of the estimate; 0.0 for exact/analytical methods.
    trials:
        Number of Monte-Carlo trials behind the estimate; 0 for exact
        methods.
    method:
        Short label of the producing method ("avf", "sofr", "monte_carlo",
        "first_principles", "softarch", ...).
    """

    mttf_seconds: float
    std_error_seconds: float = 0.0
    trials: int = 0
    method: str = "exact"

    def __post_init__(self) -> None:
        # ``not x > 0`` also refuses NaN, which ``x <= 0`` passes.
        if not self.mttf_seconds > 0:
            raise EstimationError(
                f"MTTF must be positive, got {self.mttf_seconds}"
            )
        if not self.std_error_seconds >= 0:
            raise EstimationError("standard error must be non-negative")

    @property
    def mttf_years(self) -> float:
        return self.mttf_seconds / SECONDS_PER_YEAR

    @property
    def fit(self) -> float:
        """FIT under the constant-rate convention (reporting only)."""
        if math.isinf(self.mttf_seconds):
            return 0.0
        return mttf_seconds_to_fit(self.mttf_seconds)

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval (seconds)."""
        half = 1.96 * self.std_error_seconds
        return (self.mttf_seconds - half, self.mttf_seconds + half)

    @property
    def rel_stderr(self) -> float:
        """``stderr / mttf`` — the precision the estimate reached.

        A sweep audits its references through
        ``comparison.reference.rel_stderr``. Exact estimates and
        infinite MTTFs report 0.0 — "no sampling uncertainty" — rather
        than an undefined ratio.
        """
        if not math.isfinite(self.mttf_seconds):
            return 0.0
        return self.std_error_seconds / self.mttf_seconds

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization (lossless)."""
        return {
            "mttf_seconds": self.mttf_seconds,
            "std_error_seconds": self.std_error_seconds,
            "trials": self.trials,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MTTFEstimate":
        """Inverse of :meth:`to_dict`; a malformed form raises
        :class:`ConfigurationError` naming the field."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an estimate must be a mapping, got {type(data).__name__}"
            )
        values = {}
        for name, (what, types, default) in _WIRE_FIELDS.items():
            value = values[name] = data.get(name, default)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigurationError(
                    f"estimate {name} must be {what}, got {value!r}"
                )
        try:
            return cls(**values)
        except EstimationError as error:
            raise ConfigurationError(f"bad estimate: {error}") from None

    def __str__(self) -> str:
        if math.isinf(self.mttf_seconds):
            return f"MTTF=inf ({self.method})"
        if self.std_error_seconds > 0:
            return (
                f"MTTF={self.mttf_years:.4g}y "
                f"+/-{1.96 * self.std_error_seconds / SECONDS_PER_YEAR:.2g}y "
                f"({self.method}, n={self.trials})"
            )
        return f"MTTF={self.mttf_years:.4g}y ({self.method})"


def relative_error(estimate: float, reference: float) -> float:
    """``|estimate - reference| / reference`` — the paper's error metric."""
    if reference <= 0 or math.isinf(reference):
        raise EstimationError(
            f"reference MTTF must be positive and finite, got {reference}"
        )
    return abs(estimate - reference) / reference


def signed_relative_error(estimate: float, reference: float) -> float:
    """``(estimate - reference) / reference`` (sign shows over/under-estimation).

    Section 5.2 notes AVF can either over- or under-estimate the MTTF;
    keeping the sign lets the experiment tables show which.
    """
    if reference <= 0 or math.isinf(reference):
        raise EstimationError(
            f"reference MTTF must be positive and finite, got {reference}"
        )
    return (estimate - reference) / reference
