"""Smoke and claim tests for the experiment harness.

Each experiment runs with reduced trials; assertions check the paper's
qualitative claims, mirroring the benchmark suite but at unit-test cost.
"""

import re

import pytest

from repro.core import MonteCarloConfig
from repro.errors import ConfigurationError
from repro.harness import EngineOptions, all_experiments, get_experiment
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
            EngineOptions(trials=FAST_TRIALS), validate_mc=False
        )
        errors = [
            float(c.strip("%+")) / 100
            for c in result.tables[0].column("rel. error")
        ]
        assert max(errors) > 0.15
        assert min(errors) < 0.005

    def test_fig4_endpoints(self):
        result = get_experiment("fig4").run(
            EngineOptions(trials=FAST_TRIALS), validate_mc=False
        )
        errors = [
            abs(float(c.strip("%+-"))) / 100
            for c in result.tables[0].column("rel. error")
        ]
        assert errors[0] == pytest.approx(0.146, abs=0.01)
        assert errors[-1] == pytest.approx(0.344, abs=0.01)

    def test_sec51_bound(self):
        result = get_experiment("sec5.1").run(
            EngineOptions(trials=FAST_TRIALS), benchmarks=("gzip",)
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
            EngineOptions(trials=FAST_TRIALS), n_times_s_values=(1e8, 1e12)
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
            EngineOptions(trials=FAST_TRIALS),
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

    def test_fig6b_note_orderings_match_its_table(self):
        # Each workload ordering the note states must hold in the rows
        # it summarizes: C >= 5000, per phase convention.
        result = get_experiment("fig6b").run(EngineOptions(trials=2_000))
        note = " ".join(result.notes)
        random_order = re.search(
            r"Random phase: [^.]*?(\w+) > (\w+) > (\w+)", note
        )
        zero_largest = re.search(r"Zero phase: (\w+) is largest", note)
        assert random_order and zero_largest, note
        table = result.tables[0]
        errors: dict = {}
        small: dict = {}
        for workload, n_times_s, c, zero, random in zip(
            table.column("workload"), table.column("N x S"),
            table.column("C"), table.column("error (zero phase)"),
            table.column("error (random phase)"),
        ):
            pair = (
                float(zero.strip("%")) / 100,
                float(random.strip("%")) / 100,
            )
            if int(c) >= 5000:
                errors.setdefault((n_times_s, c), {})[workload] = pair
            else:
                small[(workload, n_times_s, c)] = pair
        assert len(errors) == 6 and len(small) == 12
        # C <= 8 within a few percent, save the one stated exception.
        exception = small.pop(("week", "1e+09", "8"))
        assert exception[0] > 0.1
        assert max(abs(e) for pair in small.values() for e in pair) < 0.03
        for point in errors.values():
            first, second, third = random_order.groups()
            assert (
                abs(point[first][1]) > abs(point[second][1])
                > abs(point[third][1])
            )
            largest = zero_largest.group(1)
            assert abs(point[largest][0]) == max(
                abs(zero) for zero, _random in point.values()
            )
            # The stated zero-phase ranges and their 1/b - 1 caps.
            assert 0.97 <= point["day"][0] <= 1.0
            assert 0.35 <= point["week"][0] <= 0.4

    def test_sec54_softarch_exact(self):
        result = get_experiment("sec5.4").run(
            EngineOptions(trials=FAST_TRIALS),
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


class TestEngineOptions:
    def test_misspelled_parameter_is_an_error(self):
        with pytest.raises(TypeError):
            get_experiment("fig5").run(trails=10)

    def test_flag_combinations_checked_for_library_callers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(ConfigurationError, match="unknown method"):
            EngineOptions(methods=("avf", "bogus"))
        with pytest.raises(ConfigurationError, match="workers"):
            EngineOptions(workers=0)
        with pytest.raises(ConfigurationError, match="trials"):
            EngineOptions(trials=0)
        engine = EngineOptions(cache_dir=str(tmp_path))
        assert engine.cache_path == tmp_path

    def test_defaults_and_derived_settings(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_MC_TRIALS", "1234")
        engine = EngineOptions()
        assert engine.trials == 1234
        assert engine.cache_path is None and engine.cache.disk is None
        assert engine.mc(seed=7) == MonteCarloConfig(trials=1234, seed=7)
        assert engine.kwargs() == dict(
            workers=1, cache=engine.cache, progress=None
        )
