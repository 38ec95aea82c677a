"""Series (first-failure) systems.

The SOFR step models a system as failing at the first failure of any
component (a series system without redundancy — Section 2.3 assumption 2,
which this library keeps, following the paper). This module provides:

* :func:`sofr_mttf` — the SOFR combination itself (sum of reciprocal
  component MTTFs), i.e. the step under examination;
* :class:`SeriesSystem` — the *exact* series system built by hazard
  superposition: for independent components the first-failure process is
  an inhomogeneous Poisson process whose intensity is the sum of the
  component intensities, so the exact machinery of
  :class:`~repro.reliability.process.FailureProcess` applies unchanged;
* :func:`min_of_iid_mttf` — numerical MTTF of the minimum of ``n`` i.i.d.
  variables given a survival function (used by the Section 3.2.2
  half-normal analysis, Figure 4).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from .hazard import CyclicIntensity, PiecewiseHazard, merge_piecewise
from .process import FailureProcess


def sofr_mttf(component_mttfs: Sequence[float]) -> float:
    """The SOFR step: ``MTTF_sys = 1 / sum_i (1 / MTTF_i)``.

    Infinite component MTTFs contribute zero failure rate. If every
    component is infinite the system MTTF is infinite; a NaN MTTF
    propagates. The rates are summed by ``np.cumsum``, a sequential
    left fold, so the result has the bits of a per-component loop.
    """
    if not len(component_mttfs):
        raise ConfigurationError("need at least one component MTTF")
    mttfs = np.asarray(component_mttfs, dtype=float)
    nonpositive = mttfs <= 0
    if nonpositive.any():
        first = component_mttfs[int(nonpositive.argmax())]
        raise ConfigurationError(f"MTTF must be positive, got {first}")
    rates = 1.0 / mttfs[~np.isinf(mttfs)]
    total_rate = float(np.cumsum(rates)[-1]) if rates.size else 0.0
    if total_rate == 0.0:
        return math.inf
    return 1.0 / total_rate


class SeriesSystem:
    """Exact series system of independent cyclically masked components.

    Each component contributes a failure intensity (raw rate x
    vulnerability profile). Independent Poisson processes superpose, so
    the system's first-failure process has the summed intensity.

    Components whose intensities are :class:`PiecewiseHazard` instances
    with one common period are merged into a single breakpoint-refined
    hazard; a ``multiplicity`` may be attached to each component to model
    ``C`` identical components (e.g. a homogeneous cluster) without
    enumerating them.
    """

    def __init__(
        self,
        components: Sequence[CyclicIntensity],
        multiplicities: Sequence[int] | None = None,
    ):
        if not components:
            raise ConfigurationError("need at least one component")
        if multiplicities is None:
            multiplicities = [1] * len(components)
        if len(multiplicities) != len(components):
            raise ConfigurationError(
                "multiplicities must match components in length"
            )
        for m in multiplicities:
            if m < 1:
                raise ConfigurationError(f"multiplicity must be >= 1, got {m}")
        self._components = list(components)
        self._multiplicities = list(multiplicities)
        self._combined = self._combine()

    def _combine(self) -> CyclicIntensity:
        scaled = [
            comp.scaled(float(mult)) if mult != 1 else comp
            for comp, mult in zip(self._components, self._multiplicities)
        ]
        if len(scaled) == 1:
            return scaled[0]
        if all(isinstance(c, PiecewiseHazard) for c in scaled):
            return merge_piecewise(scaled)  # type: ignore[arg-type]
        raise ConfigurationError(
            "heterogeneous composition of nested hazards requires a common "
            "piecewise representation; flatten nested hazards first"
        )

    @property
    def combined_intensity(self) -> CyclicIntensity:
        return self._combined

    @property
    def component_count(self) -> int:
        return sum(self._multiplicities)

    def process(self) -> FailureProcess:
        """The exact first-failure process of the whole system."""
        return FailureProcess(self._combined)

    def component_processes(self) -> list[FailureProcess]:
        """Per-component (single-instance) failure processes."""
        return [FailureProcess(c) for c in self._components]

    def mttf(self) -> float:
        """Exact system MTTF from first principles."""
        return self.process().mttf()


def min_of_iid_mttf(
    survival: Callable[[np.ndarray], np.ndarray],
    n: int,
    upper: float = np.inf,
) -> float:
    """MTTF of ``min(X_1..X_n)`` for i.i.d. ``X`` with the given survival.

    Uses ``E[min] = ∫_0^∞ S(t)^n dt`` (valid for non-negative variables),
    evaluated with adaptive quadrature. This is the "first principles"
    side of the paper's Figure 4 analysis.
    """
    from scipy import integrate  # deferred: scipy costs ~0.5 s to import

    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")

    def integrand(t: float) -> float:
        return float(survival(np.asarray(t))) ** n

    value, _abserr = integrate.quad(integrand, 0.0, upper, limit=200)
    return value
