"""Global method registry: name -> :class:`~repro.methods.base.Estimator`.

Mirrors the experiment registry in :mod:`repro.harness.registry`: a flat
name-keyed dict, duplicate registration is an error, unknown lookups
fail with the list of available names. New methods plug in with the
:func:`register_method` decorator and are immediately visible to
``repro.analyze``, ``evaluate_design_space`` and the CLI — no call
site edits.
"""

from __future__ import annotations

from typing import Callable

from ..core.system import SystemModel
from ..errors import ConfigurationError
from .base import Estimator, FunctionEstimator, MethodConfig

_REGISTRY: dict[str, Estimator] = {}

#: Aliases accepted wherever a method name is looked up.
_ALIASES = {"exact": "first_principles", "mc": "monte_carlo"}

#: Methods errors may be measured against: the paper's Monte Carlo and
#: the two noise-free system models.
REFERENCE_METHODS = ("monte_carlo", "first_principles", "softarch")

#: Every name accepted as a reference, aliases included.
REFERENCE_NAMES = sorted(
    name for name in [*REFERENCE_METHODS, *_ALIASES]
    if _ALIASES.get(name, name) in REFERENCE_METHODS
)


def canonical_name(name: str) -> str:
    """Resolve registry aliases ("exact" -> "first_principles", ...)."""
    return _ALIASES.get(name, name)


def check_reference(name: str) -> str:
    """The canonical name of ``name``, else :class:`ConfigurationError`
    unless it names one of :data:`REFERENCE_METHODS`."""
    if canonical_name(name) not in REFERENCE_METHODS:
        raise ConfigurationError(
            f"reference {name!r} is not one of {REFERENCE_NAMES}"
        )
    return canonical_name(name)


def register(estimator: Estimator) -> Estimator:
    """Register a ready-made estimator object."""
    if estimator.name in _REGISTRY:
        raise ConfigurationError(
            f"duplicate method registration {estimator.name!r}"
        )
    if estimator.name in _ALIASES:
        raise ConfigurationError(
            f"method name {estimator.name!r} collides with a registry alias"
        )
    _REGISTRY[estimator.name] = estimator
    return estimator


def register_method(
    name: str,
    *,
    is_stochastic: bool = False,
    supports: Callable[[SystemModel], bool] | None = None,
):
    """Decorator registering ``fn(system, config) -> MTTFEstimate``.

    Usage::

        @register_method("my_method", is_stochastic=True)
        def my_method(system, config):
            return MTTFEstimate(...)

    The decorated function is wrapped in a
    :class:`~repro.methods.base.FunctionEstimator` and returned, so the
    module attribute *is* the estimator.
    """

    def decorator(fn) -> FunctionEstimator:
        estimator = FunctionEstimator(
            name=name,
            fn=fn,
            is_stochastic=is_stochastic,
            supports_fn=supports,
            doc=(fn.__doc__ or "").strip().splitlines()[0]
            if fn.__doc__
            else "",
        )
        register(estimator)
        return estimator

    return decorator


def unregister(name: str) -> None:
    """Remove a method (primarily for tests of the registry itself)."""
    _REGISTRY.pop(canonical_name(name), None)


def get(name: str) -> Estimator:
    """Look up a method by (possibly aliased) name."""
    key = canonical_name(name)
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown method {name!r}; available: {available()}"
        )
    return _REGISTRY[key]


def available() -> list[str]:
    """Sorted names of every registered method."""
    return sorted(_REGISTRY)


def all_methods() -> dict[str, Estimator]:
    """All registered estimators keyed by name."""
    return dict(_REGISTRY)


def estimate(
    name: str,
    system: SystemModel,
    config: MethodConfig | None = None,
):
    """Convenience one-shot: look up and run a method."""
    return get(name).estimate(system, config)
