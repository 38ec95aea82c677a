"""Experiment harness: regenerate every table and figure of the paper.

Each paper artifact (Table 1, Table 2, Figures 3-6, and the Sections
5.1/5.2/5.4 numeric claims) is one generator function registered by
``@artifact`` as an :class:`~repro.harness.experiment.Experiment`
under its artifact id, and runs with one
:class:`~repro.harness.experiment.EngineOptions`. The benchmark suite
(``benchmarks/bench_*.py``) runs them through pytest-benchmark; the CLI
(``repro-experiments``) runs them standalone and emits the
EXPERIMENTS.md comparison tables.
"""

from .tables import Table
from .figures import render_series
from .experiment import EngineOptions, Experiment, ExperimentResult
from .registry import all_experiments, get_experiment
from .spec_setup import (
    PAPER_COMPONENTS,
    masking_trace_for,
    processor_profile,
    spec_uniprocessor_system,
)

__all__ = [
    "Table",
    "render_series",
    "EngineOptions",
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "PAPER_COMPONENTS",
    "masking_trace_for",
    "processor_profile",
    "spec_uniprocessor_system",
]
