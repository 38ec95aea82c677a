"""Design-space sweep engine (Table 2 and the Section 5 experiments).

The paper explores systems parameterised by

* ``N`` — elements per component (1e5 .. 1e9),
* ``S`` — raw-rate scaling (1 .. 5000),
* ``C`` — components per system (2 .. 500,000),
* workload — SPEC masking traces or the synthesized ``day``/``week``/
  ``combined`` loops,

and reports, for each point, the relative error of the AVF and/or SOFR
step against Monte Carlo. This module enumerates those points and runs
the methods through the batch engine
(:func:`repro.methods.batch.evaluate_design_space`), which memoizes
per-component MTTFs across grid points — the SOFR sweeps re-use one
Monte-Carlo component estimate for every value of C — and can fan out
over a thread pool (``workers=N``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import DesignSpaceError
from ..masking.profile import VulnerabilityProfile
from ..reliability.metrics import achieved_rel_stderr, signed_relative_error
from ..ser.rates import component_rate_per_second
from .montecarlo import MonteCarloConfig
from .system import Component, SystemModel


@dataclass(frozen=True)
class DesignPoint:
    """One configuration of the Table-2 space."""

    workload: str
    n_elements: float
    scaling: float
    components: int = 1

    def __post_init__(self) -> None:
        if self.n_elements <= 0:
            raise DesignSpaceError(
                f"N must be positive, got {self.n_elements}"
            )
        if self.scaling <= 0:
            raise DesignSpaceError(f"S must be positive, got {self.scaling}")
        if self.components < 1:
            raise DesignSpaceError(
                f"C must be >= 1, got {self.components}"
            )

    @property
    def n_times_s(self) -> float:
        return self.n_elements * self.scaling

    @property
    def rate_per_second(self) -> float:
        return component_rate_per_second(self.n_elements, self.scaling)

    @property
    def label(self) -> str:
        """Human-readable grid-point label for tables and ResultSets."""
        return (
            f"{self.workload}/NxS={self.n_times_s:g}/C={self.components}"
        )


@dataclass(frozen=True)
class SweepResult:
    """Method MTTFs and errors at one design point (times in seconds).

    ``monte_carlo_trials`` records how many trials actually produced the
    reference — under an adaptive stopping rule this varies per point,
    and together with ``monte_carlo_stderr`` it is the audit trail of
    what precision each grid point reached.
    """

    point: DesignPoint
    monte_carlo_mttf: float
    monte_carlo_stderr: float
    avf_mttf: float | None = None
    avf_sofr_mttf: float | None = None
    sofr_only_mttf: float | None = None
    first_principles_mttf: float | None = None
    softarch_mttf: float | None = None
    monte_carlo_trials: int = 0

    @property
    def monte_carlo_rel_stderr(self) -> float:
        """Achieved relative stderr of the reference at this point."""
        return achieved_rel_stderr(
            self.monte_carlo_mttf, self.monte_carlo_stderr
        )

    def _error(self, value: float | None) -> float | None:
        if value is None or not math.isfinite(self.monte_carlo_mttf):
            return None
        return signed_relative_error(value, self.monte_carlo_mttf)

    @property
    def avf_error(self) -> float | None:
        """Signed AVF-step error vs Monte Carlo (Figures 3 and 5)."""
        return self._error(self.avf_mttf)

    @property
    def sofr_error(self) -> float | None:
        """Signed SOFR-step-only error vs Monte Carlo (Figure 6)."""
        return self._error(self.sofr_only_mttf)

    @property
    def avf_sofr_error(self) -> float | None:
        return self._error(self.avf_sofr_mttf)

    @property
    def softarch_error(self) -> float | None:
        """SoftArch error vs Monte Carlo (Section 5.4)."""
        return self._error(self.softarch_mttf)


def _mttf_or_none(comparison, method: str) -> float | None:
    est = comparison.estimates.get(method)
    return None if est is None else est.mttf_seconds


class SweepOutcome(SequenceABC):
    """Sweep results plus the machine-readable set behind them.

    Behaves exactly like the list of :class:`SweepResult` the sweeps
    historically returned (indexing, iteration, ``len``), while also
    carrying the engine's serializable
    :class:`~repro.methods.results.ResultSet` so experiments can emit it
    (the CLI's ``--json`` artifact) without re-deriving anything.
    """

    def __init__(self, results: Sequence[SweepResult], result_set):
        self._results = tuple(results)
        self.result_set = result_set

    @property
    def results(self) -> tuple[SweepResult, ...]:
        return self._results

    def __getitem__(self, index):
        return self._results[index]

    def __len__(self) -> int:
        return len(self._results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepOutcome({len(self._results)} points)"


def component_sweep(
    workloads: Mapping[str, VulnerabilityProfile],
    n_times_s_values: Iterable[float],
    mc_config: MonteCarloConfig | None = None,
    include_softarch: bool = False,
    workers: int = 1,
    executor: str = "thread",
    cache=None,
    shard: tuple[int, int] | None = None,
    progress=None,
) -> SweepOutcome:
    """AVF-step sweep: single component (C = 1), as in Figure 5 / §5.2.

    Since only the product ``N x S`` matters for a single component
    (Section 5.2), points are parameterised by it directly.
    ``shard=(i, n)`` evaluates this machine's round-robin share of the
    grid (the outcome's ``result_set`` records the shard and merges
    back with :func:`repro.methods.merge_result_sets`).
    """
    from ..methods import evaluate_design_space, shard_select

    methods = ["avf", "first_principles"]
    if include_softarch:
        methods.append("softarch")
    points: list[DesignPoint] = []
    space: list[tuple[str, SystemModel]] = []
    for name, profile in workloads.items():
        for n_times_s in n_times_s_values:
            point = DesignPoint(
                workload=name, n_elements=n_times_s, scaling=1.0
            )
            points.append(point)
            space.append(
                (
                    point.label,
                    SystemModel(
                        [Component(name, point.rate_per_second, profile)]
                    ),
                )
            )
    result_set = evaluate_design_space(
        space,
        methods=methods,
        reference="monte_carlo",
        mc_config=mc_config or MonteCarloConfig(),
        workers=workers,
        executor=executor,
        cache=cache,
        shard=shard,
        progress=progress,
    )
    results = [
        SweepResult(
            point=point,
            monte_carlo_mttf=comparison.reference.mttf_seconds,
            monte_carlo_stderr=comparison.reference.std_error_seconds,
            avf_mttf=_mttf_or_none(comparison, "avf"),
            first_principles_mttf=_mttf_or_none(
                comparison, "first_principles"
            ),
            softarch_mttf=_mttf_or_none(comparison, "softarch"),
            monte_carlo_trials=comparison.reference.trials,
        )
        for point, comparison in zip(shard_select(points, shard), result_set)
    ]
    return SweepOutcome(results, result_set)


def system_sweep(
    workloads: Mapping[str, VulnerabilityProfile],
    n_times_s_values: Iterable[float],
    component_counts: Iterable[int],
    mc_config: MonteCarloConfig | None = None,
    include_softarch: bool = False,
    workers: int = 1,
    executor: str = "thread",
    cache=None,
    shard: tuple[int, int] | None = None,
    progress=None,
) -> SweepOutcome:
    """SOFR-step sweep over (workload, N x S, C), as in Figure 6.

    Following Section 4.2, the SOFR step is fed *Monte-Carlo* component
    MTTFs so the reported error isolates the SOFR combination; the batch
    engine's component cache computes each distinct (workload, N x S)
    component once and re-uses it for every C. Every system here is
    homogeneous (C identical components), matching the paper's cluster
    experiments. ``shard``/``progress`` behave as in
    :func:`component_sweep`.
    """
    from ..methods import evaluate_design_space, shard_select

    methods = ["sofr_only", "first_principles"]
    if include_softarch:
        methods.append("softarch")
    component_counts = list(component_counts)
    points: list[DesignPoint] = []
    space: list[tuple[str, SystemModel]] = []
    for name, profile in workloads.items():
        for n_times_s in n_times_s_values:
            rate = component_rate_per_second(n_times_s, 1.0)
            for c_count in component_counts:
                point = DesignPoint(
                    workload=name,
                    n_elements=n_times_s,
                    scaling=1.0,
                    components=c_count,
                )
                points.append(point)
                space.append(
                    (
                        point.label,
                        SystemModel(
                            [
                                Component(
                                    name,
                                    rate,
                                    profile,
                                    multiplicity=c_count,
                                )
                            ]
                        ),
                    )
                )
    result_set = evaluate_design_space(
        space,
        methods=methods,
        reference="monte_carlo",
        mc_config=mc_config or MonteCarloConfig(),
        workers=workers,
        executor=executor,
        cache=cache,
        shard=shard,
        progress=progress,
    )
    results = [
        SweepResult(
            point=point,
            monte_carlo_mttf=comparison.reference.mttf_seconds,
            monte_carlo_stderr=comparison.reference.std_error_seconds,
            sofr_only_mttf=_mttf_or_none(comparison, "sofr_only"),
            avf_sofr_mttf=None,
            first_principles_mttf=_mttf_or_none(
                comparison, "first_principles"
            ),
            softarch_mttf=_mttf_or_none(comparison, "softarch"),
            monte_carlo_trials=comparison.reference.trials,
        )
        for point, comparison in zip(shard_select(points, shard), result_set)
    ]
    return SweepOutcome(results, result_set)


def table2_points(
    workload_names: Sequence[str],
    n_values: Sequence[float] = (1e5, 1e6, 1e7, 1e8, 1e9),
    s_values: Sequence[float] = (1.0, 5.0, 100.0, 2000.0, 5000.0),
    c_values: Sequence[int] = (2, 8, 5000, 50000, 500000),
) -> list[DesignPoint]:
    """Enumerate the full Table-2 cross product."""
    points = []
    for workload in workload_names:
        for n in n_values:
            for s in s_values:
                for c in c_values:
                    points.append(
                        DesignPoint(
                            workload=workload,
                            n_elements=n,
                            scaling=s,
                            components=c,
                        )
                    )
    return points
