"""Estimate containers and error metrics shared across methods."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import EstimationError
from ..units import SECONDS_PER_YEAR, mttf_seconds_to_fit


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
        """Achieved relative standard error (see :func:`achieved_rel_stderr`)."""
        return achieved_rel_stderr(
            self.mttf_seconds, self.std_error_seconds
        )

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization (lossless)."""
        return {
            "mttf_seconds": self.mttf_seconds,
            "std_error_seconds": self.std_error_seconds,
            "trials": self.trials,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MTTFEstimate":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mttf_seconds=float(data["mttf_seconds"]),
            std_error_seconds=float(data.get("std_error_seconds", 0.0)),
            trials=int(data.get("trials", 0)),
            method=str(data.get("method", "exact")),
        )

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


def achieved_rel_stderr(
    mttf_seconds: float, std_error_seconds: float
) -> float:
    """``stderr / mttf`` — the precision an estimate actually reached.

    The single definition behind every audit surface
    (:attr:`MTTFEstimate.rel_stderr`,
    ``ResultSet.reference_rel_stderr``,
    ``SweepResult.monte_carlo_rel_stderr``): exact estimates and
    infinite/degenerate MTTFs report 0.0 — "no sampling uncertainty" —
    rather than an undefined ratio.
    """
    if not math.isfinite(mttf_seconds) or mttf_seconds <= 0:
        return 0.0
    return std_error_seconds / mttf_seconds


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
