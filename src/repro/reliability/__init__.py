"""Reliability mathematics: distributions, hazards, and series systems.

This subpackage provides the probabilistic machinery that both the
AVF+SOFR method and the first-principles methods are built on:

* :mod:`repro.reliability.distributions` — the textbook distributions the
  paper reasons with (exponential, Erlang, geometric, and the
  half-normal-square density of Section 3.2.2).
* :mod:`repro.reliability.hazard` — cyclic inhomogeneous-Poisson hazard
  objects: piecewise-constant intensities, nested two-time-scale
  intensities, exact cumulative-hazard evaluation, inversion, and
  survival integrals.
* :mod:`repro.reliability.process` — :class:`FailureProcess`, the time to
  first failure of a cyclically masked Poisson error process (exact MTTF,
  moments, sampling).
* :mod:`repro.reliability.series` — the SOFR combination of a series
  (first-failure) system's component MTTFs.
* :mod:`repro.reliability.diagnostics` — exponentiality diagnostics used
  to show *why* SOFR breaks (the masked process is not exponential).
"""

from .distributions import (
    Erlang,
    Exponential,
    Geometric,
    HalfNormalSquare,
)
from .hazard import (
    CyclicIntensity,
    NestedHazard,
    PiecewiseHazard,
    constant_hazard,
)
from .process import FailureProcess
from .series import sofr_mttf
from .diagnostics import (
    coefficient_of_variation,
    exponentiality_report,
    ks_statistic_exponential,
)
from .metrics import MTTFEstimate

__all__ = [
    "Erlang",
    "Exponential",
    "Geometric",
    "HalfNormalSquare",
    "CyclicIntensity",
    "NestedHazard",
    "PiecewiseHazard",
    "constant_hazard",
    "FailureProcess",
    "sofr_mttf",
    "coefficient_of_variation",
    "exponentiality_report",
    "ks_statistic_exponential",
    "MTTFEstimate",
]
