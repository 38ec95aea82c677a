"""Tests for the experiment CLI (repro-experiments)."""

import pytest

from repro.harness.runner import main


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
                "--workers", "2", "--executor", "process",
                "--mc-chunks", "2",
            ]
        ) == 0
        assert "completed in" in capsys.readouterr().out

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

    def test_non_sweep_experiments_ignore_shard(self, tmp_path, capsys):
        # --shard is honoured by the sweep experiments; the rest accept
        # and ignore it, producing the unsharded artifact.
        from repro.methods import ResultSet

        full = tmp_path / "full.json"
        assert main(
            ["ablation.convergence", "--trials", "500", "--json",
             str(full)]
        ) == 0
        paths = []
        for index in range(2):
            out = tmp_path / f"shard{index}.json"
            paths.append(out)
            assert main(
                ["ablation.convergence", "--trials", "500", "--shard",
                 f"{index}/2", "--json", str(out)]
            ) == 0
        capsys.readouterr()
        sets = [ResultSet.from_json(p) for p in paths]
        assert sets[0] == sets[1] == ResultSet.from_json(full)

    def test_merge_command(self, tmp_path, capsys):
        from repro.methods import ResultSet

        full = tmp_path / "full.json"
        shard_paths = []
        args = ["fig5", "--trials", "400", "--mc-chunks", "2"]
        assert main(args + ["--json", str(full)]) == 0
        for index in range(2):
            out = tmp_path / f"s{index}.json"
            shard_paths.append(str(out))
            assert main(
                args + ["--shard", f"{index}/2", "--json", str(out)]
            ) == 0
        merged = tmp_path / "merged.json"
        assert main(
            ["merge", *shard_paths, "--json", str(merged)]
        ) == 0
        assert "merged 2 shard(s)" in capsys.readouterr().out
        assert ResultSet.from_json(merged) == ResultSet.from_json(full)

    def test_merge_requires_inputs_and_output(self, tmp_path, capsys):
        assert main(["merge"]) == 1
        assert main(["merge", str(tmp_path / "missing.json")]) == 1

    def test_target_stderr_run_records_adaptive_trials(
        self, tmp_path, capsys
    ):
        from repro.methods import ResultSet

        out = tmp_path / "adaptive.json"
        assert main(
            ["fig5", "--trials", "20000", "--mc-chunks", "10",
             "--target-stderr", "0.05", "--json", str(out)]
        ) == 0
        result_set = ResultSet.from_json(out)
        trials = result_set.reference_trials()
        assert all(0 < t < 20000 for t in trials.values())
        assert all(
            rel <= 0.05
            for rel in result_set.reference_rel_stderr().values()
        )

    def test_target_stderr_defaults_chunk_granularity(
        self, tmp_path, capsys
    ):
        # Without --mc-chunks, --target-stderr must still be able to
        # stop early (the CLI defaults to 16 chunks and says so).
        from repro.methods import ResultSet

        out = tmp_path / "auto.json"
        assert main(
            ["fig5", "--trials", "16000", "--target-stderr", "0.1",
             "--json", str(out)]
        ) == 0
        assert "using 16 chunks" in capsys.readouterr().err
        trials = ResultSet.from_json(out).reference_trials()
        assert all(0 < t < 16000 for t in trials.values())

    def test_json_bytes_match_across_worker_counts(self, tmp_path):
        serial = tmp_path / "serial.json"
        fanned = tmp_path / "fanned.json"
        base = ["fig5", "--trials", "2000", "--mc-chunks", "4"]
        assert main([*base, "--workers", "1", "--json", str(serial)]) == 0
        assert main([*base, "--workers", "2", "--json", str(fanned)]) == 0
        assert fanned.read_bytes() == serial.read_bytes()

    def test_progress_flag_streams_events(self, capsys):
        assert main(
            ["fig5", "--trials", "1000", "--mc-chunks", "2",
             "--executor", "process", "--workers", "2", "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "[progress]" in err and "done trials=1000" in err


def _exit_code(argv) -> int:
    """``main``'s status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as error:
        return error.code


class TestUsageErrors:
    """Every refused flag combination exits 2 with a message, no work."""

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["--budget-ledger", "run"], {}, "unrecognized arguments"),
            (["--reallocate-budget"], {}, "unrecognized arguments"),
            (["--kernel", "legacy"], {}, "invalid choice: 'legacy'"),
            (["--shard", "2/2"], {}, "shard must look like 'i/N'"),
            (["--executor", "thread", "--workers", "a:1"], {},
             "bad --workers value 'a:1'"),
            (["--executor", "remote"], {}, "invalid choice: 'remote'"),
            (["--workers", "host:1"], {}, "bad --workers value 'host:1'"),
            (["--trials", "-5"], {}, "trials must be >= 1, got -5"),
            (["--trials", "0"], {}, "trials must be >= 1, got 0"),
            (["--mc-chunks", "0"], {}, "chunks must be >= 1, got 0"),
            (["--target-stderr", "0"], {},
             "target_rel_stderr must be positive, got 0.0"),
            (["--target-stderr", "nan"], {},
             "target_rel_stderr must be positive, got nan"),
            ([], {"REPRO_MC_TRIALS": "0"}, "trials must be >= 1, got 0"),
            ([], {"REPRO_MC_TRIALS": "abc"},
             "REPRO_MC_TRIALS must be an integer, got 'abc'"),
        ],
        ids=[
            "removed-ledger-flag", "removed-realloc-flag", "kernel-legacy",
            "bad-shard",
            "thread-executor-with-fleet", "remote-executor",
            "worker-address", "negative-trials", "zero-trials",
            "zero-chunks", "zero-target-stderr", "nan-target-stderr",
            "zero-env-trials", "non-integer-env-trials",
        ],
    )
    def test_refused_before_any_work(
        self, argv, env, message, monkeypatch, capsys
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        # A small budget keeps a wrongly accepted row cheap; the env
        # rows need --trials unset to reach REPRO_MC_TRIALS.
        budget = [] if env else ["--trials", "200"]
        assert _exit_code(["fig5", *budget, *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[fig5]" not in captured.out

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
        from repro.methods import ResultSet

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        base = ["--trials", "2000", "--workers", "1"]
        both = tmp_path / "both.json"
        assert main(
            ["fig5", "sec5.4", *base, "--progress", "--json", str(both)]
        ) == 0
        cached = [
            line for line in capsys.readouterr().err.splitlines()
            if line.endswith("(cached)")
        ]
        assert len(cached) == 18
        assert all("/C=1 " in line for line in cached)
        parts = []
        for artifact in ("fig5", "sec5.4"):
            path = tmp_path / f"{artifact}.json"
            assert main([artifact, *base, "--json", str(path)]) == 0
            parts.append(ResultSet.from_json(path))
        merged = tmp_path / "merged.json"
        parts[0].merged(parts[1]).to_json(merged)
        assert both.read_bytes() == merged.read_bytes()
