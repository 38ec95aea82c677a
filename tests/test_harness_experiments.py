"""Smoke and claim tests for the experiment harness.

Each experiment runs with reduced trials; assertions check the paper's
qualitative claims, mirroring the benchmark suite but at unit-test cost.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness import all_experiments, get_experiment
from repro.harness.spec_setup import (
    PAPER_COMPONENTS,
    masking_trace_for,
    paper_dilation,
    processor_profile,
    spec_uniprocessor_system,
)

FAST_TRIALS = 8_000


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        artifacts = set(all_experiments())
        assert {
            "table1", "table2", "fig3", "fig4", "fig5",
            "fig6a", "fig6b", "sec5.1", "sec5.2", "sec5.4",
        } <= artifacts

    def test_ablations_registered(self):
        artifacts = set(all_experiments())
        assert any(a.startswith("ablation.") for a in artifacts)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")


class TestSpecSetup:
    def test_masking_trace_cached(self):
        a = masking_trace_for("gzip", 3_000)
        b = masking_trace_for("gzip", 3_000)
        assert a is b  # lru_cache hit

    def test_default_window_spellings_share_one_trace(self):
        # table1 asks for masking_trace_for(bench) while the uniprocessor
        # systems pass (bench, None, 0); all spell the same simulation.
        from repro.harness import spec_setup

        spec_setup.clear_trace_cache()
        a = masking_trace_for("gzip")
        b = masking_trace_for("gzip", None, 0)
        c = masking_trace_for("gzip", spec_setup.DEFAULT_INSTRUCTIONS, 0)
        assert a is b is c
        assert spec_setup._masking_trace.cache_info().misses == 1
        spec_setup.clear_trace_cache()
        assert spec_setup._masking_trace.cache_info().currsize == 0

    def test_uniprocessor_has_four_components(self):
        system = spec_uniprocessor_system("gzip", 3_000)
        assert [c.name for c in system.components] == list(PAPER_COMPONENTS)

    def test_processor_profile_mixes_units(self):
        profile = processor_profile("swim", 3_000)
        trace = masking_trace_for("swim", 3_000)
        expected = (
            trace.avf("int_unit")
            + trace.avf("fp_unit")
            + trace.avf("decode_unit")
        ) / 3.0
        assert profile.avf == pytest.approx(expected, rel=1e-9)

    def test_dilation_factor(self):
        assert paper_dilation(40_000) == pytest.approx(2500.0)

    def test_dilated_profile_keeps_avf(self):
        base = processor_profile("gzip", 3_000)
        dilated = processor_profile(
            "gzip", 3_000, dilate_to_paper_window=True
        )
        assert dilated.avf == pytest.approx(base.avf, rel=1e-12)
        assert dilated.period == pytest.approx(
            base.period * paper_dilation(3_000)
        )


class TestExperimentClaims:
    def test_fig3_shape(self):
        result = get_experiment("fig3").run(
            trials=FAST_TRIALS, validate_mc=False
        )
        errors = [
            float(c.strip("%+")) / 100
            for c in result.tables[0].column("rel. error")
        ]
        assert max(errors) > 0.15
        assert min(errors) < 0.005

    def test_fig4_endpoints(self):
        result = get_experiment("fig4").run(
            trials=FAST_TRIALS, validate_mc=False
        )
        errors = [
            abs(float(c.strip("%+-"))) / 100
            for c in result.tables[0].column("rel. error")
        ]
        assert errors[0] == pytest.approx(0.146, abs=0.01)
        assert errors[-1] == pytest.approx(0.344, abs=0.01)

    def test_sec51_bound(self):
        result = get_experiment("sec5.1").run(
            benchmarks=("gzip",), trials=FAST_TRIALS
        )
        errors = [
            abs(float(c.strip("%+-"))) / 100
            for c in result.tables[0].column("AVF-step error")
        ]
        assert max(errors) < 0.005

    def test_sec52_bound(self):
        result = get_experiment("sec5.2").run(benchmarks=("gzip",))
        errors = [
            abs(float(c.strip("%+-"))) / 100
            for c in result.tables[0].column("AVF-step error")
        ]
        assert max(errors) < 0.005

    def test_fig5_error_grows(self):
        result = get_experiment("fig5").run(
            trials=FAST_TRIALS, n_times_s_values=(1e8, 1e12)
        )
        by_workload: dict = {}
        table = result.tables[0]
        for workload, error in zip(
            table.column("workload"), table.column("error")
        ):
            by_workload.setdefault(workload, []).append(
                abs(float(error.strip("%+-"))) / 100
            )
        for errors in by_workload.values():
            assert errors[-1] > errors[0]

    def test_fig6b_small_clusters_safe(self):
        result = get_experiment("fig6b").run(
            trials=FAST_TRIALS,
            n_times_s_values=(1e8,),
            component_counts=(2, 5000),
        )
        table = result.tables[0]
        rows = list(
            zip(
                table.column("C"),
                table.column("error (zero phase)"),
            )
        )
        small = [
            abs(float(e.strip("%+-"))) / 100 for c, e in rows if c == "2"
        ]
        large = [
            abs(float(e.strip("%+-"))) / 100 for c, e in rows if c == "5000"
        ]
        assert max(small) < 0.05
        assert max(large) > 0.25

    def test_sec54_softarch_exact(self):
        result = get_experiment("sec5.4").run(
            trials=FAST_TRIALS,
            n_times_s_values=(1e10,),
            component_counts=(1, 5000),
        )
        errors = [
            abs(float(c.strip("%+-"))) / 100
            for c in result.tables[0].column("SoftArch vs exact")
        ]
        assert max(errors) < 0.01

    def test_result_renders(self):
        result = get_experiment("table2").run()
        assert "table2" in result.render()
        assert "###" in result.render_markdown()
