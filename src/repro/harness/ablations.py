"""Ablation experiments (ours, not the paper's).

These probe the reproduction's own design choices:

* sampler equivalence — the paper-literal arrival/resampling Monte
  Carlo versus the fast inverse-hazard sampler;
* trial-count convergence — 1/sqrt(n) scaling justifying the default
  trial counts;
* exponentiality diagnostics — *why* SOFR breaks: the masked TTF's
  coefficient of variation and KS distance from exponential grow with
  the hazard mass per iteration;
* dilation sensitivity — AVF/SOFR errors depend on the workload only
  through the dimensionless hazard mass ``λ·V(L)``, which justifies the
  time-dilation bridging of simulated window lengths.

Like the paper experiments, the ablations are ``@artifact`` functions
that take one :class:`~repro.harness.experiment.EngineOptions` and
emit a serializable ``result_set``; each sets its own seeds. The
convergence, hybrid and dilation ablations yield their sweeps to the
batch engine. The sampler and exponentiality ablations are
sample-level: their decile gaps and KS distances need the raw TTF
arrays, which the batch engine does not keep. They yield no sweep,
draw every ``(seed, sampler)`` stream directly, once, on the
invocation's thread pool (``engine.workers``), and reduce both their
diagnostics and their result set from those samples. They therefore
always draw: the estimate cache neither serves nor records them.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.comparison import MethodComparison
from ..core.firstprinciples import first_principles_mttf
from ..core.montecarlo import (
    MonteCarloConfig,
    _estimate_from_samples,
    sample_component_ttf,
    sample_system_ttf,
)
from ..core.system import Component, SystemModel
from ..methods import ResultSet
from ..methods.batch import run_ordered
from ..reliability.diagnostics import exponentiality_report
from ..reliability.metrics import MTTFEstimate, signed_relative_error
from ..reliability.process import FailureProcess
from ..units import SECONDS_PER_DAY
from ..workloads.longrun import day_workload
from .experiment import EngineOptions, ExperimentResult, Sweep, artifact
from .tables import Table, percent


def _day_component(rate: float) -> Component:
    return Component("proc", rate, day_workload())


def _day_system(rate: float) -> SystemModel:
    return SystemModel([_day_component(rate)])


@artifact(
    "ablation.samplers",
    "Arrival and inverse samplers agree",
    "(ours) the fast inverse-hazard sampler is distribution-identical "
    "to the paper's resampling procedure.",
)
def sampler_equivalence(engine: EngineOptions):
    yield []
    trials = engine.trials
    table = Table(
        "Ablation: arrival vs inverse sampler",
        ["lambda*L", "inverse mean (d)", "arrival mean (d)",
         "difference (sigma)", "max |decile gap|"],
    )
    lam_ls = (0.01, 0.1, 1.0, 5.0)
    systems = [_day_system(lam_l / SECONDS_PER_DAY) for lam_l in lam_ls]
    deciles = np.linspace(0.1, 0.9, 9)

    # Sample-level, like the exponentiality ablation: a mean match alone
    # would miss a sampler that distorts the TTF shape, so the samplers'
    # deciles are compared too, and the batch engine does not keep the
    # raw TTF arrays. Each (seed, sampler) stream is drawn once and
    # reduced both to the engine's estimate (its arithmetic, so its
    # bits) and to its deciles.
    def draw(item):
        system, config = item
        samples = sample_system_ttf(system, config)
        return (
            _estimate_from_samples(  # noqa: SLF001 - the engine's reduction
                samples, f"monte_carlo[{config.method}]"
            ),
            np.quantile(samples, deciles),
        )

    samplers = (
        MonteCarloConfig(trials=trials, seed=1),
        MonteCarloConfig(trials=trials, seed=2, method="arrival"),
    )
    drawn = run_ordered(
        draw,
        [(system, config) for config in samplers for system in systems],
        engine.workers,
    )
    inverse, arrival = drawn[: len(systems)], drawn[len(systems) :]

    worst_sigma = 0.0
    for lam_l, (inv, inv_deciles), (arr, arr_deciles) in zip(
        lam_ls, inverse, arrival
    ):
        pooled_se = math.sqrt(
            inv.std_error_seconds**2 + arr.std_error_seconds**2
        )
        sigma = abs(inv.mttf_seconds - arr.mttf_seconds) / pooled_se
        worst_sigma = max(worst_sigma, sigma)
        gap = float(np.max(np.abs(inv_deciles - arr_deciles) / inv_deciles))
        table.add_row(
            f"{lam_l:g}",
            inv.mttf_seconds / 86400.0,
            arr.mttf_seconds / 86400.0,
            f"{sigma:.2f}",
            percent(gap),
        )
    # The records the batch engine would build: the inverse points, then
    # the same systems labelled "/arrival", each against its own draw.
    exact = [first_principles_mttf(system) for system in systems]
    result_set = ResultSet(
        comparisons=tuple(
            MethodComparison(
                system_label=f"day/lambdaL={lam_l:g}{suffix}",
                reference=reference,
                estimates={"first_principles": fp},
            )
            for suffix, draws in (("", inverse), ("/arrival", arrival))
            for lam_l, fp, (reference, _deciles) in zip(lam_ls, exact, draws)
        ),
        methods=("first_principles",),
        reference_method="monte_carlo",
    )
    return ExperimentResult(
        tables=[table],
        headline=f"mean differences within {worst_sigma:.1f} standard "
        "errors across four hazard regimes",
        result_set=result_set,
    )


@artifact(
    "ablation.convergence",
    "Monte-Carlo error scales as 1/sqrt(trials)",
    "(ours) justifies default trial counts.",
)
def mc_convergence(engine: EngineOptions):
    system = _day_system(0.5 / SECONDS_PER_DAY)
    counts = [
        max(int(engine.trials * factor), 100) for factor in (0.01, 0.1, 1.0)
    ]
    sets = yield [
        Sweep([(f"day/trials={n}", system)], ["first_principles"],
              "monte_carlo", MonteCarloConfig(trials=n, seed=3))
        for n in counts
    ]
    table = Table(
        "Ablation: Monte-Carlo convergence",
        ["trials", "MC MTTF (d)", "rel. deviation", "stderr/mean"],
    )
    rows = []
    for n, (comparison,) in zip(counts, sets):
        mc = comparison.reference
        exact = comparison.estimates["first_principles"].mttf_seconds
        deviation = signed_relative_error(mc.mttf_seconds, exact)
        rel_se = mc.std_error_seconds / mc.mttf_seconds
        rows.append((n, rel_se))
        table.add_row(
            n, mc.mttf_seconds / 86400.0, percent(deviation),
            percent(rel_se),
        )
    # 1/sqrt(n): se ratio between smallest and largest trial counts.
    expected_ratio = math.sqrt(rows[-1][0] / rows[0][0])
    actual_ratio = rows[0][1] / rows[-1][1]
    return ExperimentResult(
        tables=[table],
        headline=f"stderr ratio {actual_ratio:.1f} vs sqrt-law "
        f"{expected_ratio:.1f} across a {rows[-1][0] // rows[0][0]}x "
        "trial range",
    )


def _sample_estimate(samples: np.ndarray) -> MTTFEstimate:
    """The mean and standard error of finite TTF ``samples``.

    The stderr is ``sqrt(M2 / (n - 1) / n)`` with ``M2`` the summed
    squared deviations, exactly the arithmetic this artifact has always
    used, so its bytes stay put.
    """
    n = samples.size
    mean = float(samples.mean())
    m2 = float(np.square(samples - mean).sum())
    return MTTFEstimate(
        mttf_seconds=mean,
        std_error_seconds=math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0,
        trials=int(n),
        method="monte_carlo[inverse]",
    )


@artifact(
    "ablation.exponentiality",
    "Masking drives the TTF away from exponential",
    "(ours) quantifies the SOFR-assumption violation the paper "
    "identifies analytically (Section 3.2).",
)
def exponentiality(engine: EngineOptions):
    yield []
    table = Table(
        "Ablation: masked TTF vs exponential (day workload)",
        ["lambda*L", "exact CoV", "sample CoV", "KS distance",
         "looks exponential"],
    )
    lam_ls = (1e-3, 0.1, 1.0, 10.0)

    # This ablation is sample-level (KS distance needs the raw TTF
    # array, which the batch engine deliberately does not keep), so the
    # samples are drawn once and *both* the diagnostics and the
    # result-set estimates are reduced from them — no second pass.
    def draw(lam_l: float):
        comp = _day_component(lam_l / SECONDS_PER_DAY)
        samples = sample_component_ttf(
            comp, MonteCarloConfig(trials=engine.trials, seed=4)
        )
        return (
            FailureProcess(comp.intensity),
            exponentiality_report(samples),
            _sample_estimate(samples),
        )

    comparisons = []
    for lam_l, (process, report, estimate) in zip(
        lam_ls, run_ordered(draw, lam_ls, engine.workers)
    ):
        table.add_row(
            f"{lam_l:g}",
            f"{process.coefficient_of_variation():.4f}",
            f"{report.coefficient_of_variation:.4f}",
            f"{report.ks_distance:.4f}",
            report.looks_exponential,
        )
        comparisons.append(
            MethodComparison(
                system_label=f"day/lambdaL={lam_l:g}",
                reference=estimate,
                estimates={
                    "first_principles": MTTFEstimate(
                        mttf_seconds=process.mttf(),
                        method="first_principles",
                    )
                },
            )
        )
    return ExperimentResult(
        tables=[table],
        headline="CoV and KS distance grow with hazard mass per "
        "iteration; the exponentiality screen fails exactly where "
        "Figure 6 shows SOFR failing",
        result_set=ResultSet(
            comparisons=tuple(comparisons),
            methods=("first_principles",),
            reference_method="monte_carlo",
        ),
    )


@artifact(
    "ablation.hybrid",
    "A validity-aware hybrid beats blind AVF+SOFR",
    "(ours, operationalising the paper's conclusion) a method selector "
    "keyed on the hazard mass stays accurate everywhere.",
)
def hybrid_method(engine: EngineOptions):
    from ..core.hybrid import hybrid_system_mttf

    severities = (
        (2, 1e-6), (100, 1e-4), (100, 3e-2), (5000, 3e-3), (50000, 0.1)
    )
    profile = day_workload()
    space = []
    for count, mass in severities:
        rate = mass / profile.vulnerable_time
        space.append(
            (
                f"day/C={count}/mass={mass:g}",
                SystemModel(
                    [Component("node", rate, profile, multiplicity=count)]
                ),
            )
        )
    (result_set,) = yield [Sweep(space, ["avf_sofr", "hybrid"])]
    table = Table(
        "Ablation: hybrid methodology vs AVF+SOFR vs exact",
        ["C", "mass/component", "regime", "method chosen",
         "AVF+SOFR error", "hybrid error"],
    )
    worst_hybrid = 0.0
    worst_plain = 0.0
    for (count, mass), (label, system), comparison in zip(
        severities, space, result_set
    ):
        regime = hybrid_system_mttf(system).regime
        plain_err = comparison.error("avf_sofr")
        hybrid_err = comparison.error("hybrid")
        worst_hybrid = max(worst_hybrid, abs(hybrid_err))
        worst_plain = max(worst_plain, abs(plain_err))
        table.add_row(
            count,
            f"{mass:g}",
            regime.value,
            comparison.estimates["hybrid"].method,
            percent(plain_err),
            percent(hybrid_err),
        )
    return ExperimentResult(
        tables=[table],
        headline=f"hybrid worst error {worst_hybrid:.3%} vs AVF+SOFR "
        f"worst {worst_plain:.0%} across the severity sweep",
    )


@artifact(
    "ablation.dilation",
    "AVF error tracks the dimensionless hazard mass",
    "(ours) validates bridging simulated-window lengths by time "
    "dilation: the AVF is dilation-invariant and the error is governed "
    "by lambda*V(L).",
    traces=("gzip",),
)
def dilation_sensitivity(engine: EngineOptions):
    from .spec_setup import processor_profile

    base = processor_profile("gzip")
    dilations = (1.0, 10.0, 100.0, 2500.0)
    # Choose the rate so the *undilated* mass would be 1e-4.
    rate = 1e-4 / base.vulnerable_time
    space = []
    profiles = []
    for dilation in dilations:
        profile = base.dilated(dilation)
        profiles.append(profile)
        space.append(
            (
                f"gzip/dilation={dilation:g}x",
                SystemModel([Component("gzip", rate, profile)]),
            )
        )
    (result_set,) = yield [Sweep(space, ["avf"])]
    table = Table(
        "Ablation: window dilation vs hazard mass",
        ["dilation", "period (s)", "AVF", "lambda*V(L)",
         "AVF-step error"],
    )
    for dilation, profile, comparison in zip(
        dilations, profiles, result_set
    ):
        error = comparison.error("avf")
        table.add_row(
            f"{dilation:g}x",
            profile.period,
            f"{profile.avf:.4f}",
            f"{rate * profile.vulnerable_time:.2e}",
            percent(error),
        )
    return ExperimentResult(
        tables=[table],
        headline="AVF constant under dilation; error grows exactly with "
        "the dilated hazard mass",
    )
