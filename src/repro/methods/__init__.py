"""Unified estimator API: one surface for every MTTF method.

The paper's contribution is *comparing* estimation methods; this package
makes the method set a first-class, pluggable axis:

* :class:`~repro.methods.base.Estimator` — the protocol every method
  implements (``name``, ``estimate(system, config)``, ``supports``,
  capability flags);
* :mod:`~repro.methods.registry` — the global name -> estimator registry
  with the :func:`register_method` decorator; :mod:`~repro.methods.adapters`
  registers the paper's five methods plus ``hybrid``;
* :func:`~repro.methods.facade.analyze` — the fluent entry point:
  ``analyze(system).using("avf_sofr").against("exact").run()``;
* :func:`~repro.methods.batch.evaluate_design_space` — the batch engine
  with memoized estimates, fanning out over a thread pool;
* :class:`~repro.methods.results.ResultSet` — serializable results
  (``to_json``/``from_json`` round-trip losslessly).
"""

from .base import ComponentCache, Estimator, FunctionEstimator, MethodConfig
from .cache import DiskCache, mc_token
from .registry import (
    all_methods,
    available,
    canonical_name,
    estimate,
    get,
    register,
    register_method,
    unregister,
)
from . import adapters as _adapters  # noqa: F401 - populates the registry
from . import uncore as _uncore  # noqa: F401 - registers uncore_ecc
from .batch import evaluate_design_space
from .facade import Analysis, analyze
from .results import ResultSet

__all__ = [
    "Analysis",
    "ComponentCache",
    "DiskCache",
    "Estimator",
    "FunctionEstimator",
    "MethodConfig",
    "ResultSet",
    "all_methods",
    "analyze",
    "available",
    "canonical_name",
    "estimate",
    "evaluate_design_space",
    "get",
    "register",
    "register_method",
    "unregister",
]
