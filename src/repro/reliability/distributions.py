"""Distributions used by the paper's mathematical analysis.

These are deliberately small, explicit classes rather than wrappers around
``scipy.stats``: the tests exercise the exact formulas the paper derives
(Erlang sums of exponentials, the geometric count of masked errors, the
half-normal-square counter-example density of Section 3.2.2), and keeping
the algebra visible makes the correspondence with the paper auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

#: libm ``erf``/``erfc`` elementwise, as ``hazard._libm_exp`` is for
#: ``exp``: the runtime needs no special-function library.
_libm_erf = np.frompyfunc(math.erf, 1, 1)
_libm_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with rate ``lam`` (density ``lam*e^-lam*t``).

    The paper assumes raw soft-error inter-arrival times follow this
    distribution (Section 3, assumption 1).
    """

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.lam}")

    @property
    def mean(self) -> float:
        return 1.0 / self.lam

    @property
    def variance(self) -> float:
        return 1.0 / (self.lam * self.lam)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, self.lam * np.exp(-self.lam * t), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, -np.expm1(-self.lam * t), 0.0)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, np.exp(-self.lam * t), 1.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p < 0) | (p >= 1)):
            raise ConfigurationError("quantile requires p in [0, 1)")
        return -np.log1p(-p) / self.lam

    def sample(self, n: int, rng: np.random.Generator):
        return rng.exponential(scale=1.0 / self.lam, size=n)

    def memoryless_residual(self, elapsed: float) -> "Exponential":
        """The conditional distribution of remaining time given survival.

        For the exponential this is the same distribution — the memoryless
        property the paper's Section 3.1.2 footnote relies on.
        """
        if elapsed < 0:
            raise ConfigurationError("elapsed time must be non-negative")
        return Exponential(self.lam)


@dataclass(frozen=True)
class Erlang:
    """Erlang distribution: sum of ``k`` i.i.d. Exponential(``lam``) variables.

    Used in Section 3.2.1 where the time to failure is decomposed as the
    sum of a geometric number of exponential inter-arrival times.
    """

    k: int
    lam: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"shape must be >= 1, got {self.k}")
        if self.lam <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.lam}")

    @property
    def mean(self) -> float:
        return self.k / self.lam

    @property
    def variance(self) -> float:
        return self.k / (self.lam * self.lam)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        tp = t[pos] if t.ndim else (t if t > 0 else None)
        if t.ndim == 0:
            if t <= 0:
                return np.float64(0.0)
            logp = (
                math.log(self.lam)
                + (self.k - 1) * (math.log(self.lam) + math.log(float(t)))
                - self.lam * float(t)
                - math.lgamma(self.k)
            )
            return np.float64(math.exp(logp))
        logp = (
            np.log(self.lam)
            + (self.k - 1) * (np.log(self.lam) + np.log(tp))
            - self.lam * tp
            - math.lgamma(self.k)
        )
        out[pos] = np.exp(logp)
        return out

    def sample(self, n: int, rng: np.random.Generator):
        return rng.gamma(shape=self.k, scale=1.0 / self.lam, size=n)


@dataclass(frozen=True)
class Geometric:
    """Geometric distribution on {1, 2, ...} with success probability ``p``.

    In Section 3.1.1, ``K`` — the index of the first unmasked raw error —
    is geometric with success probability ``1 - M = AVF`` when the
    uniform-vulnerability limit holds, giving ``E[K] = 1/AVF``.
    """

    p: float

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ConfigurationError(f"p must be in (0, 1], got {self.p}")

    @property
    def mean(self) -> float:
        return 1.0 / self.p

    @property
    def variance(self) -> float:
        return (1.0 - self.p) / (self.p * self.p)

    def pmf(self, k):
        k = np.asarray(k)
        out = np.where(k >= 1, (1.0 - self.p) ** (k - 1) * self.p, 0.0)
        return out

    def sample(self, n: int, rng: np.random.Generator):
        return rng.geometric(self.p, size=n)


@dataclass(frozen=True)
class HalfNormalSquare:
    """The Section 3.2.2 counter-example density ``f(x) = (2/sqrt(pi)) e^{-x^2}``.

    A "close to exponential" but non-exponential time-to-failure density
    the paper uses to quantify the SOFR step's error analytically. Its
    mean (component MTTF) is ``1/sqrt(pi)``; its survival function is
    ``erfc(x)``.
    """

    @property
    def mean(self) -> float:
        return 1.0 / math.sqrt(math.pi)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, (2.0 / math.sqrt(math.pi)) * np.exp(-x * x), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.asarray(_libm_erf(x), dtype=float), 0.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.asarray(_libm_erfc(x), dtype=float), 1.0)

    def sample(self, n: int, rng: np.random.Generator):
        # |Z|/sqrt(2) for Z standard normal has density 2/sqrt(pi) e^{-x^2}.
        return np.abs(rng.standard_normal(n)) / math.sqrt(2.0)
