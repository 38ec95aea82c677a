"""Section 3.2.2: the SOFR counter-example (Figure 4).

A component whose (architecturally masked) time to failure has density
``f(x) = (2/√π) e^{-x²}`` — close to exponential but not exponential.
Its MTTF is ``1/√π``. For a series system of ``N`` such components the
exact MTTF is ``E[min] = ∫_0^∞ erfc(y)^N dy`` (numerically integrated,
exactly as the paper does with "a software package"), while the SOFR
step — fed the *true* component MTTFs — predicts ``1/(N·√π)``.

Figure 4 plots the relative error, growing from ~15% at N=2 to ~32% at
N=32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


def halfnormal_component_mttf() -> float:
    """Component MTTF: ``E[X] = (2/√π)∫ x e^{-x²} dx = 1/√π``."""
    return 1.0 / math.sqrt(math.pi)


def halfnormal_system_mttf_exact(n_components: int) -> float:
    """Exact MTTF of the N-component series system: ``∫ erfc(y)^N dy``."""
    from scipy import integrate  # deferred: scipy costs ~0.5 s to import
    from scipy.special import erfc

    if n_components < 1:
        raise ConfigurationError(
            f"need at least one component, got {n_components}"
        )

    def integrand(y: float) -> float:
        return float(erfc(y)) ** n_components

    value, _abserr = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return value


def halfnormal_system_mttf_sofr(n_components: int) -> float:
    """SOFR prediction with true component MTTFs: ``1/(N·√π)``."""
    if n_components < 1:
        raise ConfigurationError(
            f"need at least one component, got {n_components}"
        )
    return 1.0 / (n_components * math.sqrt(math.pi))


def halfnormal_relative_error(n_components: int) -> float:
    """Figure-4 quantity: ``|MTTF_sofr - MTTF_exact| / MTTF_exact``."""
    exact = halfnormal_system_mttf_exact(n_components)
    sofr = halfnormal_system_mttf_sofr(n_components)
    return abs(sofr - exact) / exact


@dataclass(frozen=True)
class Figure4Point:
    """One point of the Figure-4 curve."""

    n_components: int
    exact_mttf: float
    sofr_mttf: float
    relative_error: float


def figure4_curve(
    component_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
) -> list[Figure4Point]:
    """Regenerate Figure 4 (error of SOFR for N = 2..32)."""
    points = []
    for n in component_counts:
        exact = halfnormal_system_mttf_exact(n)
        sofr = halfnormal_system_mttf_sofr(n)
        points.append(
            Figure4Point(
                n_components=n,
                exact_mttf=exact,
                sofr_mttf=sofr,
                relative_error=abs(sofr - exact) / exact,
            )
        )
    return points
