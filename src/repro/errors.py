"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate normally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed with invalid or inconsistent parameters."""


class ProfileError(ReproError):
    """A vulnerability profile is malformed or used inconsistently."""


class TraceError(ReproError):
    """An instruction or masking trace is malformed."""


class SimulationError(ReproError):
    """The microarchitecture simulator reached an inconsistent state."""


class EstimationError(ReproError):
    """A reliability estimate could not be computed (e.g. no failures)."""
