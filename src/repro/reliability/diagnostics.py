"""Exponentiality diagnostics for time-to-failure samples.

The SOFR step's central assumption is that each component's time to
failure is exponential (Section 2.3). These diagnostics quantify how far
a sampled (or exact) masked TTF distribution is from exponential:

* coefficient of variation — exactly 1 for an exponential;
* Kolmogorov–Smirnov distance against the exponential fitted by the
  sample mean;
* a combined report used by the validity advisor and the ablation
  benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EstimationError


def coefficient_of_variation(samples: np.ndarray) -> float:
    """Sample CoV (std / mean). Requires a positive mean."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise EstimationError("need at least two samples for a CoV")
    mean = samples.mean()
    if mean <= 0:
        raise EstimationError("CoV requires a positive mean")
    return float(samples.std(ddof=1) / mean)


def ks_statistic_exponential(samples: np.ndarray) -> float:
    """KS distance between the empirical CDF and Exp(1/mean).

    The rate is fitted from the sample mean, matching how SOFR would
    summarise the component (a single failure rate = 1/MTTF).
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size < 2:
        raise EstimationError("need at least two samples for a KS statistic")
    if np.any(samples < 0):
        raise EstimationError("times to failure must be non-negative")
    mean = samples.mean()
    if mean <= 0:
        raise EstimationError("KS fit requires a positive mean")
    n = samples.size
    # ``-expm1(-samples / mean)`` and the gaps above and below each
    # ECDF step, in place: the same operations with four arrays of the
    # sample's size live at once instead of seven.
    cdf = np.negative(samples)
    cdf /= mean
    np.expm1(cdf, out=cdf)
    np.negative(cdf, out=cdf)
    above = np.arange(1.0, n + 1)  # exact integers, as float64
    above /= n
    np.subtract(above, cdf, out=above)
    below = np.arange(0.0, n)
    below /= n
    np.subtract(cdf, below, out=below)
    return float(
        np.maximum(
            np.max(np.abs(above, out=above)), np.max(np.abs(below, out=below))
        )
    )


@dataclass(frozen=True)
class ExponentialityReport:
    """Summary of how exponential a TTF sample looks."""

    sample_size: int
    mean: float
    coefficient_of_variation: float
    ks_distance: float

    @property
    def looks_exponential(self) -> bool:
        """A pragmatic screen, not a formal hypothesis test.

        CoV within 5% of 1 and KS distance below ~1.5/sqrt(n) (roughly the
        5% Lilliefors band for large n) together indicate the SOFR
        exponentiality assumption is safe for this component.
        """
        band = 1.5 / math.sqrt(self.sample_size)
        return abs(self.coefficient_of_variation - 1.0) < 0.05 and (
            self.ks_distance < band
        )


def exponentiality_report(samples: np.ndarray) -> ExponentialityReport:
    """Build an :class:`ExponentialityReport` from TTF samples."""
    samples = np.asarray(samples, dtype=float)
    finite = samples[np.isfinite(samples)]
    if finite.size < 2:
        raise EstimationError("need at least two finite samples")
    return ExponentialityReport(
        sample_size=int(finite.size),
        mean=float(finite.mean()),
        coefficient_of_variation=coefficient_of_variation(finite),
        ks_distance=ks_statistic_exponential(finite),
    )
