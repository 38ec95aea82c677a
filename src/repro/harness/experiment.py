"""Experiment framework: one object per paper artifact."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..core.montecarlo import MonteCarloConfig
from ..errors import ConfigurationError, EstimationError
from ..methods import ComponentCache
from ..methods import registry as method_registry
from ..methods.batch import resolve_workers
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
    :class:`ConfigurationError` before any work: the method names, the
    worker count and the Monte-Carlo settings) and computes the two
    things every experiment of the invocation shares: the resolved
    cache directory (``cache_dir``, else ``$REPRO_CACHE_DIR``) and one
    :class:`ComponentCache` for it, so an estimate several artifacts
    need is computed once.

    ``trials`` defaults to ``$REPRO_MC_TRIALS`` (else 100,000).
    """

    trials: int | None = None
    workers: int | str = 1
    cache_dir: str | os.PathLike | None = None
    progress: Callable | None = None
    methods: tuple[str, ...] | None = None
    reference: str | None = None
    cache_path: Path | None = field(init=False, repr=False)
    cache: ComponentCache = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in [*(self.methods or ()), self.reference]:
            if name is not None:
                method_registry.get(name)
        resolve_workers(self.workers)
        if self.trials is None:
            object.__setattr__(self, "trials", _env_trials())
        try:
            self.mc()
        except EstimationError as error:
            raise ConfigurationError(str(error)) from None
        cache_path = resolve_cache_dir(self.cache_dir)
        object.__setattr__(self, "cache_path", cache_path)
        object.__setattr__(self, "cache", ComponentCache.at(cache_path))

    def mc(self, seed: int = 0) -> MonteCarloConfig:
        """The invocation's Monte-Carlo settings for ``seed``."""
        return MonteCarloConfig(trials=self.trials, seed=seed)

    def kwargs(self) -> dict:
        """Engine keyword arguments for ``evaluate_design_space``."""
        return dict(
            workers=self.workers,
            cache=self.cache,
            progress=self.progress,
        )


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    ``result_set`` optionally carries the machine-readable
    :class:`~repro.methods.results.ResultSet` behind the rendered
    tables, so the CLI's ``--json`` flag can emit an artifact that
    ``ResultSet.from_json`` loads back.
    """

    artifact: str
    title: str
    paper_claim: str
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
class Experiment:
    """A runnable reproduction of one paper artifact."""

    artifact: str
    title: str
    paper_claim: str
    runner: Callable[..., ExperimentResult]

    def run(
        self, engine: EngineOptions | None = None, **params
    ) -> ExperimentResult:
        """Run with ``engine`` (default settings when omitted).

        ``params`` are the artifact's own parameters, such as
        ``benchmarks`` or ``n_times_s_values``.
        """
        result = self.runner(
            engine if engine is not None else EngineOptions(), **params
        )
        if result.artifact != self.artifact:
            raise ConfigurationError(
                f"runner produced artifact {result.artifact!r} for "
                f"experiment {self.artifact!r}"
            )
        return result
