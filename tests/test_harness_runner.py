"""Tests for the experiment CLI (repro-experiments)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.runner import main

#: perfbench's pinned-load module, read as text and never imported.
PERFBENCH_COMPARE = Path(__file__).resolve().parents[1] / "perfbench" / (
    "compare.py"
)


def _perfbench_load_args() -> tuple[str, ...]:
    """``LOAD_ARGS`` from perfbench/compare.py, parsed without running it."""
    tree = ast.parse(PERFBENCH_COMPARE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LOAD_ARGS"
            for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    raise AssertionError("perfbench/compare.py defines no LOAD_ARGS")


class TestStartup:
    def test_listing_artifacts_does_not_import_scipy(self):
        """scipy takes ~0.5 s to import and no artifact needs it, so
        starting the CLI and resolving every artifact must leave it
        unimported. A fresh interpreter, because this one has imported
        scipy already."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import repro.harness.runner\n"
            "from repro.harness import all_experiments\n"
            "all_experiments()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [["fig4"], ["--all"]])
    def test_no_artifact_imports_scipy(self, argv):
        """fig4's integrals are a Gauss-Legendre rule, so running
        artifacts leaves scipy unimported too. A fresh interpreter with
        the short SPEC window."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "from repro.harness.runner import main\n"
            "status = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(status)\n"
        )
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["REPRO_SPEC_INSTRUCTIONS"] = "5000"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *argv, "--trials", "2000"],
            env=env, capture_output=True, text=True, timeout=300,
            check=True,
        )
        assert "completed in" in result.stdout
        assert result.stdout.splitlines()[-1] == "[]"


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "sec5.1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert main(["fig4", "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert "SOFR" in out
        assert "completed in" in out

    def test_markdown_output(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        assert main(
            ["table2", "--markdown", str(report)]
        ) == 0
        content = report.read_text()
        assert content.startswith("# Experiment results")
        assert "table2" in content

    def test_parallel_flags_accepted(self, capsys):
        assert main(
            [
                "ablation.convergence", "--trials", "500",
                "--workers", "2", "--executor", "thread",
            ]
        ) == 0
        assert "completed in" in capsys.readouterr().out

    def test_benchmark_load_args_accepted(self, tmp_path, capsys):
        # The paper benchmark passes these arguments on every run.
        from repro.methods import ResultSet

        out = tmp_path / "rs.json"
        argv = ["table2", "--trials", "200", *_perfbench_load_args()]
        assert main([*argv, "--json", str(out)]) == 0
        assert len(ResultSet.from_json(out)) > 0

    def test_cache_dir_warm_rerun_hits(self, tmp_path, capsys):
        args = [
            "ablation.hybrid", "--cache-dir", str(tmp_path / "cache")
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "estimate cache" in cold and "disk_hits=0" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "misses=0" in warm

    def test_every_experiment_emits_result_set(self, tmp_path, capsys):
        # --json on a cheap, closed-form experiment: the merged set must
        # be written (every experiment now carries a result_set).
        out = tmp_path / "rs.json"
        assert main(["table2", "--json", str(out)]) == 0
        from repro.methods import ResultSet

        assert len(ResultSet.from_json(out)) > 0

    def test_json_bytes_match_across_worker_counts(self, tmp_path):
        serial = tmp_path / "serial.json"
        fanned = tmp_path / "fanned.json"
        base = ["fig5", "--trials", "2000"]
        assert main([*base, "--workers", "1", "--json", str(serial)]) == 0
        assert main([*base, "--workers", "2", "--json", str(fanned)]) == 0
        assert fanned.read_bytes() == serial.read_bytes()


def _exit_code(argv) -> int:
    """``main``'s status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as error:
        return error.code


class TestUsageErrors:
    """Every refused flag combination or artifact name exits 2 with a
    message, before any work."""

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["fig5", "--budget-ledger", "run"], {},
             "unrecognized arguments"),
            (["fig5", "--reallocate-budget"], {}, "unrecognized arguments"),
            (["fig5", "--kernel", "legacy"], {}, "invalid choice: 'legacy'"),
            (["fig5", "--shard", "2/2"], {},
             "unrecognized arguments: --shard 2/2"),
            (["fig5", "--shard", "0/2"], {},
             "unrecognized arguments: --shard 0/2"),
            (["fig5", "--executor", "thread", "--workers", "a:1"], {},
             "bad --workers value 'a:1'"),
            (["fig5", "--executor", "remote"], {},
             "invalid choice: 'remote'"),
            (["fig5", "--executor", "process"], {},
             "invalid choice: 'process'"),
            (["fig5", "--workers", "host:1"], {},
             "bad --workers value 'host:1'"),
            (["fig5", "--trials", "-5"], {}, "trials must be >= 1, got -5"),
            (["fig5", "--trials", "0"], {}, "trials must be >= 1, got 0"),
            (["fig5", "--trials", "1"], {},
             "trials must be >= 2 (a standard error needs two draws), "
             "got 1"),
            (["fig5", "--mc-chunks", "0"], {},
             "unrecognized arguments: --mc-chunks 0"),
            (["fig5", "--mc-chunks", "2"], {},
             "unrecognized arguments: --mc-chunks 2"),
            (["fig5", "--target-stderr", "0"], {},
             "unrecognized arguments: --target-stderr 0"),
            (["fig5", "--target-stderr", "nan"], {},
             "unrecognized arguments: --target-stderr nan"),
            (["fig5", "--target-stderr", "0.05"], {},
             "unrecognized arguments: --target-stderr 0.05"),
            (["fig5", "--progress"], {},
             "unrecognized arguments: --progress"),
            (["fig5"], {"REPRO_MC_TRIALS": "0"},
             "trials must be >= 1, got 0"),
            (["fig5"], {"REPRO_MC_TRIALS": "1"},
             "trials must be >= 2 (a standard error needs two draws), "
             "got 1"),
            (["fig5"], {"REPRO_MC_TRIALS": "abc"},
             "REPRO_MC_TRIALS must be an integer, got 'abc'"),
            (["table2", "fig55"], {}, "unknown experiment 'fig55'"),
            (["merge", "a.json", "--json", "b.json"], {},
             "unknown experiment 'merge'"),
            # compare's SPEC uniprocessors have four units, which the
            # avf step cannot estimate as one reference, and the SOFR
            # step is itself an approximation under test.
            (["compare", "--reference", "avf", "--method", "avf_sofr"], {},
             "reference 'avf' is not one of ['exact', 'first_principles', "
             "'mc', 'monte_carlo', 'softarch']"),
            (["compare", "--reference", "sofr_only"], {},
             "reference 'sofr_only' is not one of"),
            (["--all", "--reference", "avf"], {},
             "reference 'avf' is not one of"),
            (["table2", "--cache-dir", "{tmp}/file"], {},
             "cache directory '{tmp}/file': File exists"),
            (["table2", "--json", "{tmp}/missing/x.json"], {},
             "--json {tmp}/missing/x.json: no such directory"),
            (["table2", "--markdown", "{tmp}/missing/x.md"], {},
             "--markdown {tmp}/missing/x.md: no such directory"),
            (["table2", "--json", "{tmp}"], {}, "--json {tmp}: is a directory"),
            (["table2", "--markdown", "{tmp}/"], {},
             "--markdown {tmp}/: is a directory"),
        ],
        ids=[
            "removed-ledger-flag", "removed-realloc-flag", "kernel-legacy",
            "bad-shard", "removed-shard-flag",
            "thread-executor-with-fleet", "remote-executor",
            "process-executor",
            "worker-address", "negative-trials", "zero-trials",
            "one-trial",
            "zero-chunks", "removed-chunks-flag", "zero-target-stderr",
            "nan-target-stderr", "removed-target-stderr-flag",
            "removed-progress-flag",
            "zero-env-trials", "one-env-trial", "non-integer-env-trials",
            "unknown-artifact", "removed-merge-command",
            "avf-reference", "sofr-only-reference", "avf-reference-all",
            "cache-dir-is-a-file", "json-dir-missing",
            "markdown-dir-missing", "json-is-a-directory",
            "markdown-is-a-directory",
        ],
    )
    def test_refused_before_any_work(
        self, argv, env, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        # ``{tmp}`` is a fresh directory holding one plain file.
        (tmp_path / "file").write_text("", encoding="utf-8")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        # A small budget keeps a wrongly accepted row cheap; the env
        # rows need --trials unset to reach REPRO_MC_TRIALS.
        budget = [] if env else ["--trials", "200"]
        assert _exit_code([*budget, *argv]) == 2
        captured = capsys.readouterr()
        assert message.format(tmp=tmp_path) in captured.err
        assert "completed in" not in captured.out

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["compare", "--method", "bogus"], "bogus"),
            (["--all", "--reference", "no_such_reference"],
             "no_such_reference"),
        ],
        ids=["method", "reference"],
    )
    def test_unknown_method_refused_up_front(self, argv, name, capsys):
        assert _exit_code([*argv, "--trials", "200"]) == 2
        captured = capsys.readouterr()
        assert f"unknown method {name!r}" in captured.err
        assert "completed in" not in captured.out


class TestRunErrors:
    def test_an_artifact_refusal_exits_2_before_any_estimate(
        self, tmp_path, monkeypatch, capsys
    ):
        # compare's SPEC uniprocessors have four units and avf supports
        # single-instance systems only: the sweep is refused before its
        # first estimate, so nothing reaches the fresh cache directory.
        # The window is read once, at import, so it is set on the
        # module; the traces are built at 5,000 instructions and dropped.
        from repro.harness import spec_setup

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(spec_setup, "DEFAULT_INSTRUCTIONS", 5000)
        spec_setup.clear_trace_cache()
        cache_dir = tmp_path / "cache"
        argv = ["compare", "--method", "avf", "--trials", "2000",
                "--cache-dir", str(cache_dir)]
        try:
            assert _exit_code(argv) == 2
        finally:
            spec_setup.clear_trace_cache()
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "method 'avf' does not support system 'gzip'"
        ]
        assert "completed in" not in captured.out
        assert list(cache_dir.iterdir()) == []


    def test_every_artifact_is_checked_before_any_runs(self, tmp_path):
        # Only compare runs --method, and its four-unit SPEC systems are
        # sorted after the five ablations: the check pass refuses the
        # invocation before any of them runs or prints, and the --json
        # file is not written. A fresh interpreter, so the short SPEC
        # window applies.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["REPRO_SPEC_INSTRUCTIONS"] = "5000"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        out = tmp_path / "x.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro.harness.runner", "--all",
             "--method", "avf", "--trials", "2000", "--json", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "method 'avf' does not support system 'gzip'"
        ]
        assert "completed in" not in result.stdout
        assert not out.exists()


class TestTraceBatch:
    """The runner builds the selected artifacts' SPEC traces in one
    batch after the flags are checked and before the check pass."""

    @pytest.mark.parametrize(
        "argv, batches, first",
        [
            (["--all", "--workers", "2"], [["gzip", "mcf", "swim"]],
             "ablation.convergence"),
            (["fig3", "--workers", "2"], [], "fig3"),
            (["--all", "--workers", "1"], [], "ablation.convergence"),
        ],
        ids=["all", "fig3", "one-worker"],
    )
    def test_one_batch_before_the_first_check(
        self, argv, batches, first, monkeypatch, capsys
    ):
        from repro.errors import ConfigurationError
        from repro.harness import spec_setup
        from repro.harness.experiment import Experiment

        events = []

        def batch(benchmarks, *args):
            events.append(("batch", list(benchmarks)))

        def check(experiment, engine):
            events.append(("check", experiment.artifact))
            raise ConfigurationError("stop at the first check")

        monkeypatch.setattr(spec_setup, "masking_traces", batch)
        monkeypatch.setattr(Experiment, "check", check)
        assert _exit_code([*argv, "--trials", "200"]) == 2
        assert events == [
            *(("batch", benchmarks) for benchmarks in batches),
            ("check", first),
        ]
        assert capsys.readouterr().err == "stop at the first check\n"

    def test_a_worker_error_exits_2(self, monkeypatch, capsys):
        import dataclasses

        from repro.harness import experiment, spec_setup

        table1 = experiment.REGISTRY["table1"]
        monkeypatch.setitem(
            experiment.REGISTRY, "table1",
            dataclasses.replace(table1, traces=("gzip", "no_such")),
        )
        monkeypatch.setattr(spec_setup, "DEFAULT_INSTRUCTIONS", 2000)
        spec_setup.clear_trace_cache()
        try:
            code = _exit_code(["table1", "--trials", "200", "--workers", "2"])
        finally:
            spec_setup.clear_trace_cache()
        assert code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("unknown benchmark 'no_such'")
        assert "completed in" not in captured.out


class TestCacheDirEnv:
    """``$REPRO_CACHE_DIR`` counts wherever ``--cache-dir`` does."""

    def test_env_cache_reports_stats(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["ablation.hybrid"]) == 0
        cold = capsys.readouterr().out
        assert f"estimate cache [{tmp_path / 'cache'}]" in cold
        assert main(["ablation.hybrid"]) == 0
        assert "misses=0" in capsys.readouterr().out


class TestOneCachePerInvocation:
    def test_artifacts_share_estimates_and_keep_their_bytes(
        self, tmp_path, monkeypatch, capsys
    ):
        # sec5.4's C=1 references (3 workloads x 3 N x S) and their
        # first_principles estimates are fig5's; without --cache-dir
        # the invocation's one memory cache serves them.
        from repro.methods import ComponentCache, ResultSet

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        caches = []
        build = ComponentCache.at.__func__

        def recording(cls, cache_dir):
            caches.append(build(cls, cache_dir))
            return caches[-1]

        monkeypatch.setattr(ComponentCache, "at", classmethod(recording))
        base = ["--trials", "2000", "--workers", "1"]
        both = tmp_path / "both.json"
        assert main(["fig5", "sec5.4", *base, "--json", str(both)]) == 0
        (cache,) = caches
        # fig5: 15 points x 3 estimates; sec5.4: 72 points x 3, of
        # which 18 replay fig5's. No component instance is cached: every
        # entry is a point's estimate.
        assert cache.hits == 18
        assert cache.misses == len(cache) == 45 + 216 - 18
        parts = []
        for artifact in ("fig5", "sec5.4"):
            path = tmp_path / f"{artifact}.json"
            assert main([artifact, *base, "--json", str(path)]) == 0
            parts.append(ResultSet.from_json(path))
        merged = tmp_path / "merged.json"
        parts[0].merged(parts[1]).to_json(merged)
        assert both.read_bytes() == merged.read_bytes()

    def test_sofr_instances_are_sweep_points_across_artifacts(
        self, tmp_path, monkeypatch
    ):
        # fig6b's SOFR step estimates each workload's instance at N x S
        # = 1e8 and 1e9 as its one-instance system under Monte Carlo,
        # which is fig5's C=1 reference there: one draw serves both.
        import sampler_oracle as oracle

        from repro.methods import ResultSet

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        oracle.install(monkeypatch)
        base = ["--trials", "2000", "--workers", "2"]
        both = tmp_path / "both.json"
        assert main(["fig6b", "fig5", *base, "--json", str(both)]) == 0
        shared = oracle.draws
        parts = []
        for artifact in ("fig6b", "fig5"):
            path = tmp_path / f"{artifact}.json"
            assert main([artifact, *base, "--json", str(path)]) == 0
            parts.append(ResultSet.from_json(path))
        # fig6b: 30 zero-phase and 30 random-phase references and 6
        # instances; fig5: 15 references, 6 of them fig6b's instances.
        assert oracle.draws - shared == 66 + 15
        assert shared == 66 + 15 - 6
        merged = tmp_path / "merged.json"
        parts[0].merged(parts[1]).to_json(merged)
        assert both.read_bytes() == merged.read_bytes()
