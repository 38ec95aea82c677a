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

Like the paper experiments, the ablations take one
:class:`~repro.harness.experiment.EngineOptions`, route their
estimation through :func:`repro.methods.evaluate_design_space` with
``engine.kwargs()``, and emit a serializable ``result_set``. The
sampler and convergence ablations set their own seeds. The
exponentiality ablation's KS diagnostic is sample-level by nature: it
draws its samples directly (once) and reduces both the diagnostics and
its result set from them.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.montecarlo import MonteCarloConfig, sample_component_ttf
from ..core.comparison import MethodComparison
from ..core.system import Component, SystemModel
from ..methods import ResultSet, evaluate_design_space
from ..reliability.diagnostics import exponentiality_report
from ..reliability.metrics import MTTFEstimate, signed_relative_error
from ..reliability.process import FailureProcess
from ..units import SECONDS_PER_DAY
from ..workloads.longrun import day_workload
from .experiment import EngineOptions, ExperimentResult
from .tables import Table, percent


def _day_component(rate: float) -> Component:
    return Component("proc", rate, day_workload())


def _day_system(rate: float) -> SystemModel:
    return SystemModel([_day_component(rate)])


def run_sampler_equivalence(engine: EngineOptions):
    trials = engine.trials
    table = Table(
        "Ablation: arrival vs inverse sampler",
        ["lambda*L", "inverse mean (d)", "arrival mean (d)",
         "difference (sigma)", "max |decile gap|"],
    )
    lam_ls = (0.01, 0.1, 1.0, 5.0)
    space = [
        (f"day/lambdaL={lam_l:g}", _day_system(lam_l / SECONDS_PER_DAY))
        for lam_l in lam_ls
    ]
    inverse_set = evaluate_design_space(
        space,
        methods=["first_principles"],
        reference="monte_carlo",
        mc_config=MonteCarloConfig(trials=trials, seed=1),
        **engine.kwargs(),
    )
    arrival_set = evaluate_design_space(
        [(f"{label}/arrival", system) for label, system in space],
        methods=["first_principles"],
        reference="monte_carlo",
        mc_config=MonteCarloConfig(trials=trials, seed=2, method="arrival"),
        **engine.kwargs(),
    )
    worst_sigma = 0.0
    deciles = np.linspace(0.1, 0.9, 9)
    for lam_l, inv_cmp, arr_cmp in zip(lam_ls, inverse_set, arrival_set):
        inv, arr = inv_cmp.reference, arr_cmp.reference
        pooled_se = math.sqrt(
            inv.std_error_seconds**2 + arr.std_error_seconds**2
        )
        sigma = abs(inv.mttf_seconds - arr.mttf_seconds) / pooled_se
        worst_sigma = max(worst_sigma, sigma)
        # Distributional check: a mean match alone would miss a sampler
        # that distorts the TTF shape, so compare the samplers'
        # quantiles on fresh same-seed draws (mean/stderr above come
        # from the cached engine estimates).
        comp = _day_component(lam_l / SECONDS_PER_DAY)
        inv_samples = sample_component_ttf(
            comp, MonteCarloConfig(trials=trials, seed=1)
        )
        arr_samples = sample_component_ttf(
            comp, MonteCarloConfig(trials=trials, seed=2, method="arrival")
        )
        gap = np.max(
            np.abs(
                np.quantile(inv_samples, deciles)
                - np.quantile(arr_samples, deciles)
            )
            / np.quantile(inv_samples, deciles)
        )
        table.add_row(
            f"{lam_l:g}",
            inv.mttf_seconds / 86400.0,
            arr.mttf_seconds / 86400.0,
            f"{sigma:.2f}",
            percent(float(gap)),
        )
    return ExperimentResult(
        artifact="ablation.samplers",
        title="Arrival and inverse samplers agree",
        paper_claim="(ours) the fast inverse-hazard sampler is "
        "distribution-identical to the paper's resampling procedure.",
        tables=[table],
        headline=f"mean differences within {worst_sigma:.1f} standard "
        "errors across four hazard regimes",
        result_set=inverse_set.merged(arrival_set),
    )


def run_mc_convergence(engine: EngineOptions):
    rate = 0.5 / SECONDS_PER_DAY
    system = _day_system(rate)
    table = Table(
        "Ablation: Monte-Carlo convergence",
        ["trials", "MC MTTF (d)", "rel. deviation", "stderr/mean"],
    )
    rows = []
    merged: ResultSet | None = None
    for factor in (0.01, 0.1, 1.0):
        n = max(int(engine.trials * factor), 100)
        trial_set = evaluate_design_space(
            [(f"day/trials={n}", system)],
            methods=["first_principles"],
            reference="monte_carlo",
            mc_config=MonteCarloConfig(trials=n, seed=3),
            **engine.kwargs(),
        )
        comparison = trial_set[0]
        mc = comparison.reference
        exact = comparison.estimates["first_principles"].mttf_seconds
        deviation = signed_relative_error(mc.mttf_seconds, exact)
        rel_se = mc.std_error_seconds / mc.mttf_seconds
        rows.append((n, rel_se))
        table.add_row(
            n, mc.mttf_seconds / 86400.0, percent(deviation),
            percent(rel_se),
        )
        merged = trial_set if merged is None else merged.merged(trial_set)
    # 1/sqrt(n): se ratio between smallest and largest trial counts.
    expected_ratio = math.sqrt(rows[-1][0] / rows[0][0])
    actual_ratio = rows[0][1] / rows[-1][1]
    return ExperimentResult(
        artifact="ablation.convergence",
        title="Monte-Carlo error scales as 1/sqrt(trials)",
        paper_claim="(ours) justifies default trial counts.",
        tables=[table],
        headline=f"stderr ratio {actual_ratio:.1f} vs sqrt-law "
        f"{expected_ratio:.1f} across a {rows[-1][0] // rows[0][0]}x "
        "trial range",
        result_set=merged,
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


def run_exponentiality(engine: EngineOptions):
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
    comparisons = []
    for lam_l in lam_ls:
        rate = lam_l / SECONDS_PER_DAY
        comp = _day_component(rate)
        process = FailureProcess(comp.intensity)
        samples = sample_component_ttf(
            comp, MonteCarloConfig(trials=engine.trials, seed=4)
        )
        report = exponentiality_report(samples)
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
                reference=_sample_estimate(samples),
                estimates={
                    "first_principles": MTTFEstimate(
                        mttf_seconds=process.mttf(),
                        method="first_principles",
                    )
                },
            )
        )
    return ExperimentResult(
        artifact="ablation.exponentiality",
        title="Masking drives the TTF away from exponential",
        paper_claim="(ours) quantifies the SOFR-assumption violation "
        "the paper identifies analytically (Section 3.2).",
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


def run_hybrid_method(engine: EngineOptions):
    from ..core.hybrid import hybrid_system_mttf

    table = Table(
        "Ablation: hybrid methodology vs AVF+SOFR vs exact",
        ["C", "mass/component", "regime", "method chosen",
         "AVF+SOFR error", "hybrid error"],
    )
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
    result_set = evaluate_design_space(
        space,
        methods=["avf_sofr", "hybrid"],
        reference="first_principles",
        **engine.kwargs(),
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
        artifact="ablation.hybrid",
        title="A validity-aware hybrid beats blind AVF+SOFR",
        paper_claim="(ours, operationalising the paper's conclusion) a "
        "method selector keyed on the hazard mass stays accurate "
        "everywhere.",
        tables=[table],
        headline=f"hybrid worst error {worst_hybrid:.3%} vs AVF+SOFR "
        f"worst {worst_plain:.0%} across the severity sweep",
        result_set=result_set,
    )


def run_dilation_sensitivity(engine: EngineOptions):
    from .spec_setup import processor_profile

    table = Table(
        "Ablation: window dilation vs hazard mass",
        ["dilation", "period (s)", "AVF", "lambda*V(L)",
         "AVF-step error"],
    )
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
    result_set = evaluate_design_space(
        space,
        methods=["avf"],
        reference="first_principles",
        **engine.kwargs(),
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
        artifact="ablation.dilation",
        title="AVF error tracks the dimensionless hazard mass",
        paper_claim="(ours) validates bridging simulated-window lengths "
        "by time dilation: the AVF is dilation-invariant and the error "
        "is governed by lambda*V(L).",
        tables=[table],
        headline="AVF constant under dilation; error grows exactly with "
        "the dilated hazard mass",
        result_set=result_set,
    )
