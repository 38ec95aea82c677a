"""End-to-end integration tests: synthesis → simulation → methods.

These exercise the full pipeline the paper's experiments run through,
asserting the cross-method relationships that make the reproduction
trustworthy.
"""

import math

import numpy as np
import pytest

from repro import analyze
from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    avf_mttf,
    avf_sofr_mttf,
    exact_component_mttf,
    first_principles_mttf,
    monte_carlo_mttf,
    softarch_mttf,
    validity_report,
)
from repro.core.validity import Regime
from repro.harness.spec_setup import processor_profile
from repro.masking import MaskingTrace
from repro.microarch import MachineConfig, simulate
from repro.ser import paper_unit_rate_per_second
from repro.units import SECONDS_PER_DAY
from repro.workloads import (
    combined_workload,
    day_workload,
    spec_benchmark,
    synthesize_trace,
)

BENCH = "crafty"
WINDOW = 6_000


@pytest.fixture(scope="module")
def sim_result():
    trace = synthesize_trace(spec_benchmark(BENCH), WINDOW, seed=5)
    return trace, simulate(
        trace, MachineConfig.power4_like(), workload=BENCH
    )


class TestFullPipeline:
    def test_uniprocessor_methods_agree(self, sim_result):
        _trace, result = sim_result
        components = [
            Component(
                name,
                paper_unit_rate_per_second(name),
                result.masking_trace.profile(name),
            )
            for name in (
                "int_unit", "fp_unit", "decode_unit", "register_file"
            )
        ]
        system = SystemModel(components)
        standard = avf_sofr_mttf(system).mttf_seconds
        exact = first_principles_mttf(system).mttf_seconds
        softarch = softarch_mttf(system).mttf_seconds
        monte = monte_carlo_mttf(
            system, MonteCarloConfig(trials=40_000, seed=3)
        )
        # Section 5.1: everything agrees in this regime.
        assert standard == pytest.approx(exact, rel=1e-6)
        assert softarch == pytest.approx(exact, rel=1e-6)
        assert abs(monte.mttf_seconds - exact) < (
            5 * monte.std_error_seconds
        )

    def test_validity_report_flags_safe(self, sim_result):
        _trace, result = sim_result
        system = SystemModel(
            [
                Component(
                    "int_unit",
                    paper_unit_rate_per_second("int_unit"),
                    result.masking_trace.profile("int_unit"),
                )
            ]
        )
        assert validity_report(system).overall_regime is Regime.SAFE

    def test_masking_trace_round_trips_through_disk(
        self, sim_result, tmp_path
    ):
        _trace, result = sim_result
        path = tmp_path / "trace.npz"
        result.masking_trace.save(path)
        loaded = MaskingTrace.load(path)
        profile_a = result.masking_trace.profile("int_unit")
        profile_b = loaded.profile("int_unit")
        rate = paper_unit_rate_per_second("int_unit")
        assert exact_component_mttf(rate, profile_a) == pytest.approx(
            exact_component_mttf(rate, profile_b), rel=1e-12
        )

    def test_method_comparison_report(self, sim_result):
        _trace, result = sim_result
        system = SystemModel(
            [
                Component(
                    "int_unit",
                    paper_unit_rate_per_second("int_unit"),
                    result.masking_trace.profile("int_unit"),
                )
            ]
        )
        comparison = (
            analyze(system, label=BENCH)
            .using("avf_sofr", "sofr_only", "first_principles", "softarch")
            .against("exact")
            .with_mc(MonteCarloConfig(trials=20_000, seed=1))
            .run()[0]
        )
        assert comparison.abs_error("avf_sofr") < 1e-4
        assert comparison.abs_error("softarch") < 1e-6
        assert "first_principles" in comparison.method_names


class TestLongRunPipeline:
    def test_combined_workload_from_real_traces(self):
        first = processor_profile("gzip", 4_000)
        second = processor_profile("swim", 4_000)
        workload = combined_workload(first, second)
        rate = 1e11 * 1e-8 / (8760 * 3600)
        approx = avf_mttf(rate, workload)
        exact = exact_component_mttf(rate, workload)
        softarch_val = softarch_mttf(
            SystemModel([Component("proc", rate, workload)])
        ).mttf_seconds
        monte = monte_carlo_mttf(
            SystemModel([Component("proc", rate, workload)]),
            MonteCarloConfig(trials=60_000, seed=9),
        )
        # AVF breaks; SoftArch and MC track the exact value.
        assert abs(approx - exact) / exact > 0.02
        assert softarch_val == pytest.approx(exact, rel=1e-4)
        assert abs(monte.mttf_seconds - exact) < 5 * monte.std_error_seconds

    def test_cluster_regimes(self):
        profile = day_workload()
        rate = 1.0 / (365.25 * SECONDS_PER_DAY)
        small = SystemModel(
            [Component("node", rate, profile, multiplicity=8)]
        )
        large = SystemModel(
            [Component("node", rate, profile, multiplicity=50_000)]
        )
        small_err = abs(
            avf_sofr_mttf(small).mttf_seconds
            - first_principles_mttf(small).mttf_seconds
        ) / first_principles_mttf(small).mttf_seconds
        large_err = abs(
            avf_sofr_mttf(large).mttf_seconds
            - first_principles_mttf(large).mttf_seconds
        ) / first_principles_mttf(large).mttf_seconds
        assert small_err < 0.01
        assert large_err > 0.3
        assert validity_report(large).overall_regime is not Regime.SAFE

    def test_phase_conventions_agree_at_small_mass(self):
        profile = day_workload()
        rate = 1e-11
        system = SystemModel([Component("node", rate, profile)])
        zero = monte_carlo_mttf(
            system, MonteCarloConfig(trials=60_000, seed=4)
        )
        random = monte_carlo_mttf(
            system,
            MonteCarloConfig(
                trials=60_000, seed=5, start_phase="random"
            ),
        )
        pooled = math.hypot(
            zero.std_error_seconds, random.std_error_seconds
        )
        assert abs(zero.mttf_seconds - random.mttf_seconds) < 5 * pooled
