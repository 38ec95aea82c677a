"""Experiment framework: one record per paper artifact.

An artifact is a generator function registered by :func:`artifact`,
which states its id, title and paper claim once. It yields its
:class:`Sweep` records once, as a list, gets their ResultSets back in
the same order, and returns an :class:`ExperimentResult` with its
tables, figures, notes and headline. One with no sweep yields ``[]``
and sets its own ``result_set``. :meth:`Experiment.run` is the one
harness code that calls :func:`~repro.methods.evaluate_design_space`;
:meth:`Experiment.check` builds and checks the sweeps and runs none.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, Sequence

from ..core.montecarlo import MonteCarloConfig
from ..errors import ConfigurationError, EstimationError
from ..methods import ComponentCache, ResultSet, evaluate_design_space
from ..methods import registry as method_registry
from ..methods.batch import SpaceItem, check_support, resolve_workers
from ..methods.cache import resolve_cache_dir
from .tables import Table


def _env_trials() -> int:
    """``$REPRO_MC_TRIALS`` as an integer, else 100,000."""
    text = os.environ.get("REPRO_MC_TRIALS", "100000")
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_MC_TRIALS must be an integer, got {text!r}"
        ) from None


@dataclass(frozen=True)
class EngineOptions:
    """The engine settings of one invocation, built once by the runner.

    Every experiment takes this object as its only engine argument. Its
    fields are the runner's flags; building it checks them (raising
    :class:`ConfigurationError` before any work: the method names and
    reference, the worker count, the Monte-Carlo settings and the cache
    directory) and computes the two things every experiment of the
    invocation shares: the resolved cache directory (``cache_dir``, else
    ``$REPRO_CACHE_DIR``) and one :class:`ComponentCache` for it, so an
    estimate several artifacts need is computed once.

    ``trials`` defaults to ``$REPRO_MC_TRIALS`` (else 100,000) and must
    be at least 2: every artifact reports a standard error.
    """

    trials: int | None = None
    workers: int | str = 1
    cache_dir: str | os.PathLike | None = None
    methods: tuple[str, ...] | None = None
    reference: str | None = None
    cache_path: Path | None = field(init=False, repr=False)
    cache: ComponentCache = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in [*(self.methods or ()), self.reference]:
            if name is not None:
                method_registry.get(name)
        if self.reference is not None:
            method_registry.check_reference(self.reference)
        resolve_workers(self.workers)
        if self.trials is None:
            object.__setattr__(self, "trials", _env_trials())
        try:
            self.mc()
        except EstimationError as error:
            raise ConfigurationError(str(error)) from None
        if self.trials < 2:
            raise ConfigurationError(
                "trials must be >= 2 (a standard error needs two "
                f"draws), got {self.trials}"
            )
        cache_path = resolve_cache_dir(self.cache_dir)
        object.__setattr__(self, "cache_path", cache_path)
        object.__setattr__(self, "cache", ComponentCache.at(cache_path))

    def mc(self, seed: int = 0) -> MonteCarloConfig:
        """The invocation's Monte-Carlo settings for ``seed``."""
        return MonteCarloConfig(trials=self.trials, seed=seed)


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    ``result_set`` carries the machine-readable
    :class:`~repro.methods.results.ResultSet` behind the rendered
    tables, so the CLI's ``--json`` flag can emit an artifact that
    ``ResultSet.from_json`` loads back. The identity fields are not
    constructor arguments: :meth:`Experiment.run` copies them from the
    artifact's one :func:`artifact` registration.
    """

    artifact: str = field(init=False, default="")
    title: str = field(init=False, default="")
    paper_claim: str = field(init=False, default="")
    tables: list[Table] = field(default_factory=list)
    figures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    headline: str = ""
    result_set: object | None = None

    def render(self) -> str:
        """Human-readable console rendering."""
        parts = [
            f"[{self.artifact}] {self.title}",
            f"paper claim: {self.paper_claim}",
        ]
        if self.headline:
            parts.append(f"measured:    {self.headline}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        for figure in self.figures:
            parts.append("")
            parts.append(figure)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def render_markdown(self) -> str:
        """EXPERIMENTS.md section for this artifact."""
        parts = [
            f"### {self.artifact}: {self.title}",
            "",
            f"*Paper:* {self.paper_claim}",
            "",
            f"*Measured:* {self.headline}" if self.headline else "",
        ]
        for table in self.tables:
            parts.append("")
            parts.append(table.render_markdown())
        for note in self.notes:
            parts.append("")
            parts.append(f"> {note}")
        return "\n".join(p for p in parts if p is not None)


@dataclass(frozen=True)
class Sweep:
    """One batch-engine call: ``methods`` against ``reference`` on the
    ``(label, system)`` points of ``space``, under Monte-Carlo setting
    ``mc`` (``None``, the engine's default, for closed-form sweeps)."""

    space: list[SpaceItem]
    methods: Sequence[str]
    reference: str = "first_principles"
    mc: MonteCarloConfig | None = None


@dataclass(frozen=True)
class Experiment:
    """A runnable reproduction of one paper artifact.

    ``traces`` names the SPEC benchmarks whose masking traces the
    artifact reads at its defaults, so the runner can build every
    trace of an invocation in one batch before any artifact is checked.
    """

    artifact: str
    title: str
    paper_claim: str
    generate: Callable[..., Generator]
    traces: tuple[str, ...] = ()

    def _start(self, engine: EngineOptions, params: dict):
        """The artifact's generator and its sweeps, every one checked."""
        run = self.generate(engine, **params)
        sweeps = next(run)
        for sweep in sweeps:
            check_support(sweep.space, sweep.methods, sweep.reference)
        return run, sweeps

    def check(self, engine: EngineOptions) -> None:
        """Build every sweep and refuse an unsupported point
        (:class:`ConfigurationError`); run nothing. The sweeps are
        dropped, not held until the artifact runs."""
        self._start(engine, {})[0].close()

    def run(
        self, engine: EngineOptions | None = None, **params
    ) -> ExperimentResult:
        """Run with ``engine`` (default settings when omitted).

        ``params`` are the artifact's own parameters, such as
        ``benchmarks`` or ``n_times_s_values``. Every sweep is checked
        before the first runs; the result set defaults to their sets
        merged in order.
        """
        engine = engine if engine is not None else EngineOptions()
        run, sweeps = self._start(engine, params)
        sets = [
            evaluate_design_space(
                sweep.space, sweep.methods, sweep.reference, sweep.mc,
                workers=engine.workers, cache=engine.cache,
            )
            for sweep in sweeps
        ]
        try:
            run.send(sets)
        except StopIteration as done:
            result = done.value
        result.artifact = self.artifact
        result.title = self.title
        result.paper_claim = self.paper_claim
        if result.result_set is None and sets:
            result.result_set = functools.reduce(ResultSet.merged, sets)
        return result


#: Every registered artifact, by id.
REGISTRY: dict[str, Experiment] = {}


def artifact(
    artifact_id: str, title: str, claim: str, traces: Sequence[str] = ()
):
    """Register the decorated generator function as ``artifact_id``;
    ``traces`` are the SPEC benchmarks it reads (:class:`Experiment`)."""

    def register(generate: Callable[..., Generator]):
        if artifact_id in REGISTRY:
            raise ConfigurationError(f"duplicate experiment {artifact_id!r}")
        REGISTRY[artifact_id] = Experiment(
            artifact_id, title, claim, generate, tuple(traces)
        )
        return generate

    return register
