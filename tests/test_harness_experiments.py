"""Smoke and claim tests for the experiment harness.

Each experiment runs with reduced trials; assertions check the paper's
qualitative claims, mirroring the benchmark suite but at unit-test cost.
"""

import os
import re
import sys

import pytest
import sampler_oracle as oracle

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.core import montecarlo as mc
from repro.errors import ConfigurationError
from repro.harness import (
    EngineOptions,
    ExperimentResult,
    all_experiments,
    get_experiment,
)
from repro.harness import spec_setup
from repro.harness.spec_setup import (
    PAPER_COMPONENTS,
    masking_trace_for,
    paper_dilation,
    processor_profile,
    spec_uniprocessor_system,
)
from repro.methods import ComponentCache, evaluate_design_space
from repro.units import SECONDS_PER_DAY
from repro.workloads.longrun import day_workload

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


@pytest.fixture
def short_window(monkeypatch):
    """A 2,000-instruction default SPEC window, from an empty trace
    cache that is emptied again afterwards."""
    monkeypatch.setattr(spec_setup, "DEFAULT_INSTRUCTIONS", 2_000)
    spec_setup.clear_trace_cache()
    yield 2_000
    spec_setup.clear_trace_cache()


def _same_trace(built, expected) -> bool:
    """Whether two masking traces hold the same masks, byte for byte."""
    return (
        built.component_names == expected.component_names
        and (built.clock_hz, built.workload)
        == (expected.clock_hz, expected.workload)
        and all(
            built.mask(name).tobytes() == expected.mask(name).tobytes()
            for name in built.component_names
        )
    )


class TestSpecSetup:
    def test_masking_trace_cached(self):
        a = masking_trace_for("gzip", 3_000)
        b = masking_trace_for("gzip", 3_000)
        assert a is b  # the trace dict's hit

    def test_default_window_spellings_share_one_trace(self, monkeypatch):
        # table1 asks for masking_trace_for(bench) while the uniprocessor
        # systems pass (bench, None, 0); all spell the same simulation.
        builds = []
        build = spec_setup._build_trace

        def counting(*key):
            builds.append(key)
            return build(*key)

        monkeypatch.setattr(spec_setup, "_build_trace", counting)
        spec_setup.clear_trace_cache()
        a = masking_trace_for("gzip")
        b = masking_trace_for("gzip", None, 0)
        c = masking_trace_for("gzip", spec_setup.DEFAULT_INSTRUCTIONS, 0)
        assert a is b is c
        assert builds == [("gzip", spec_setup.DEFAULT_INSTRUCTIONS, 0)]
        spec_setup.clear_trace_cache()
        assert spec_setup._TRACES == {}

    def test_clearing_drops_the_derived_profiles(self, short_window):
        spec_uniprocessor_system("gzip")
        processor_profile("gzip", dilate_to_paper_window=True)
        assert spec_setup._UNIT_PROFILES and spec_setup._PROCESSOR_PROFILES
        spec_setup.clear_trace_cache()
        assert spec_setup._TRACES == {}
        assert spec_setup._UNIT_PROFILES == {}
        assert spec_setup._PROCESSOR_PROFILES == {}

    def test_each_profile_is_built_once(self, short_window, monkeypatch):
        # 3 benchmarks x 4 units: the check pass over every artifact
        # builds each unit profile once (it used to build 84), and the
        # run pass rebuilds none.
        from repro.masking import trace as trace_module

        calls = []
        build = trace_module.from_cycle_mask

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(trace_module, "from_cycle_mask", counting)
        engine = EngineOptions(trials=2_000, workers=1)
        experiments = list(all_experiments().values())
        for experiment in experiments:
            experiment.check(engine)
        assert len(calls) == 12
        for experiment in experiments:
            experiment.run(engine)
        assert len(calls) == 12

    @pytest.fixture
    def pools(self, monkeypatch):
        """``(workers, start method)`` of each process pool built."""
        import concurrent.futures

        built = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                built.append((max_workers, mp_context.get_start_method()))
                super().__init__(max_workers, mp_context=mp_context)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", Recording
        )
        return built

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
        reason="a batch forks workers on Linux with more than one CPU",
    )
    def test_a_batch_builds_each_trace_in_a_worker(self, pools):
        import multiprocessing
        import threading

        benchmarks = ("gzip", "mcf", "swim")
        threads = threading.active_count()
        spec_setup.clear_trace_cache()
        try:
            batch = spec_setup.masking_traces(benchmarks, 4_000)
            # No worker process and no pool thread outlives the batch.
            assert multiprocessing.active_children() == []
            assert threading.active_count() == threads
            spec_setup.clear_trace_cache()
            alone = [masking_trace_for(bench, 4_000) for bench in benchmarks]
        finally:
            spec_setup.clear_trace_cache()
        # One pool of one worker per trace; a single trace forks nothing.
        assert pools == [(3, "fork")]
        assert all(map(_same_trace, batch, alone))

    def test_a_batch_beside_another_thread_forks_nothing(
        self, pools, short_window
    ):
        import threading

        built = []
        thread = threading.Thread(
            target=lambda: built.append(
                spec_setup.masking_traces(("gzip", "swim"))
            )
        )
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert pools == []
        assert [trace.workload for trace in built[0]] == ["gzip", "swim"]

    def test_a_worker_error_reaches_the_caller(self, short_window):
        with pytest.raises(
            ConfigurationError, match="unknown benchmark 'no_such'"
        ):
            spec_setup.masking_traces(("gzip", "no_such"))

    @pytest.mark.parametrize("artifact", sorted(all_experiments()))
    def test_check_reads_the_declared_traces(self, artifact, short_window):
        # The runner builds the union of the selected artifacts' traces
        # in one batch, so each must declare exactly what it reads.
        experiment = get_experiment(artifact)
        experiment.check(EngineOptions(trials=2_000, workers=1))
        assert set(spec_setup._TRACES) == {
            (bench, short_window, 0) for bench in experiment.traces
        }

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

    @pytest.mark.parametrize("trials", [2_000, 65_536, 70_001])
    def test_fig4_blocked_check_is_the_whole_draw(self, trials):
        """The Monte-Carlo check draws its rows in blocks and divides
        after the row minimum; the mean is the one-shot draw's, bit for
        bit, below, at and across a block edge, on one worker or two."""
        import numpy as np

        from repro.harness.experiments import _halfnormal_min_mean
        from repro.reliability.distributions import HalfNormalSquare

        rng = np.random.default_rng(0)
        whole = HalfNormalSquare().sample(trials * 8, rng)
        expected = float(whole.reshape(trials, 8).min(axis=1).mean())
        assert _halfnormal_min_mean(trials, 8) == expected
        notes = {
            workers: get_experiment("fig4").run(
                EngineOptions(trials=trials, workers=workers)
            ).notes
            for workers in (1, 2)
        }
        assert notes[1] == notes[2]

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


class TestSampleLevelAblations:
    def test_samplers_draw_each_stream_once(self, monkeypatch):
        """``ablation.samplers`` draws each (seed, sampler) stream once,
        4 systems by 2 samplers, and reduces the engine's estimates and
        its deciles from the same arrays, so its ResultSet is byte for
        byte the one the batch engine builds from its own draws."""
        arrival_draws = []
        arrival = mc._arrival_component_ttf

        def counted(*args, **kwargs):
            arrival_draws.append(1)
            return arrival(*args, **kwargs)

        monkeypatch.setattr(mc, "_arrival_component_ttf", counted)
        oracle.install(monkeypatch)
        trials = 2_000
        result = get_experiment("ablation.samplers").run(
            EngineOptions(trials=trials, workers=2)
        )
        # Inverse draws go through the oracle, arrival draws through the
        # paper-literal sampler, one component instance each.
        assert (oracle.draws, len(arrival_draws)) == (4, 4)
        space = [
            (
                f"day/lambdaL={lam_l:g}",
                SystemModel(
                    [Component("proc", lam_l / SECONDS_PER_DAY,
                               day_workload())]
                ),
            )
            for lam_l in (0.01, 0.1, 1.0, 5.0)
        ]
        engine_sets = [
            evaluate_design_space(
                [(f"{label}{suffix}", system) for label, system in space],
                methods=["first_principles"],
                reference="monte_carlo",
                mc_config=config,
            )
            for suffix, config in (
                ("", MonteCarloConfig(trials=trials, seed=1)),
                ("/arrival",
                 MonteCarloConfig(trials=trials, seed=2, method="arrival")),
            )
        ]
        expected = engine_sets[0].merged(engine_sets[1])
        assert result.result_set.to_json() == expected.to_json()


class TestOneRecordPerArtifact:
    def test_check_builds_every_sweep_and_estimates_nothing(
        self, monkeypatch
    ):
        """``Experiment.check`` builds and checks every artifact's
        sweeps, and calls no engine, no estimator and no sampler."""
        from repro.harness import experiment
        from repro.methods import registry

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            experiment, "evaluate_design_space",
            counted("engine", experiment.evaluate_design_space),
        )
        for cls in dict.fromkeys(
            type(e) for e in registry.all_methods().values()
        ):
            monkeypatch.setattr(
                cls, "estimate", counted(cls.__name__, cls.estimate)
            )
        oracle.install(monkeypatch)
        engine = EngineOptions(trials=2_000)
        for artifact in sorted(all_experiments()):
            get_experiment(artifact).check(engine)
        assert calls == [] and oracle.draws == 0
        assert engine.cache.misses == 0 and len(engine.cache) == 0

    def test_run_checks_every_sweep_before_the_first_runs(
        self, monkeypatch
    ):
        from repro.harness import experiment
        from repro.harness.experiment import Experiment, Sweep

        calls = []
        monkeypatch.setattr(
            experiment, "evaluate_design_space",
            lambda *args, **kwargs: calls.append(args),
        )
        one = SystemModel([Component("proc", 1e-6, day_workload())])
        two = SystemModel(
            [Component("proc", 1e-6, day_workload(), multiplicity=2)]
        )

        def generate(engine):
            yield [Sweep([("one", one)], ["avf"]),
                   Sweep([("two", two)], ["avf"])]
            return ExperimentResult()

        probe = Experiment("probe", "title", "claim", generate)
        with pytest.raises(
            ConfigurationError,
            match="method 'avf' does not support system 'two'",
        ):
            probe.run(EngineOptions(trials=2_000))
        assert calls == []

    def test_identity_is_the_registration_only(self):
        # An artifact function cannot restate its id, title or claim.
        with pytest.raises(TypeError):
            ExperimentResult(title="a second title")
        result = get_experiment("table2").run(EngineOptions(trials=2_000))
        experiment = get_experiment("table2")
        assert (result.artifact, result.title, result.paper_claim) == (
            "table2", experiment.title, experiment.paper_claim
        )


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
        with pytest.raises(ConfigurationError, match="trials must be >= 2"):
            EngineOptions(trials=1)
        engine = EngineOptions(cache_dir=str(tmp_path))
        assert engine.cache_path == tmp_path

    def test_defaults_and_derived_settings(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_MC_TRIALS", "1234")
        engine = EngineOptions()
        assert engine.trials == 1234
        assert engine.cache_path is None and engine.cache.disk is None
        assert engine.mc(seed=7) == MonteCarloConfig(trials=1234, seed=7)
        # Experiment.run hands every sweep these two: one worker and the
        # invocation's own cache, empty and unshared.
        assert engine.workers == 1
        assert isinstance(engine.cache, ComponentCache)
        assert len(engine.cache) == 0
        assert EngineOptions().cache is not engine.cache
