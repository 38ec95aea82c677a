"""Experiment registry: artifact id -> runnable experiment.

Each artifact registers itself through its ``@artifact`` decorator
when its module (:mod:`.experiments`, :mod:`.ablations`) is imported.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from . import experiments, ablations  # noqa: F401  (register artifacts)
from .experiment import REGISTRY, Experiment


def all_experiments() -> dict[str, Experiment]:
    """All registered experiments keyed by artifact id."""
    return dict(REGISTRY)


def get_experiment(artifact: str) -> Experiment:
    """Look up one experiment by artifact id."""
    if artifact not in REGISTRY:
        raise ConfigurationError(
            f"unknown experiment {artifact!r}; have {sorted(REGISTRY)}"
        )
    return REGISTRY[artifact]
