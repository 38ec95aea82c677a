"""Regression tests for the PR-4 round of streaming-engine bugfixes.

Three satellites ride along with the pipelined scheduler:

* progress events must never report more ``merged_chunks`` than the
  accumulator actually folded — chunks whose futures were cancelled in
  the completion race (cancel() issued after the chunk finished) are
  ignored by the fold and must be ignored by the accounting too;
* ``DiskCache`` entries must be written atomically (temp file +
  ``os.replace``) so two sharded processes sharing a ``--cache-dir``
  can interleave freely, and a torn/truncated entry must read as a
  miss, never poison a warm rerun;
* ``merge_result_sets`` (and the CLI ``merge`` command) must reject a
  duplicate shard artifact — e.g. the same ``--shard 0/4`` JSON passed
  twice — instead of silently double-counting points.
"""

import json
import threading

import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    StoppingRule,
    SystemModel,
)
from repro.errors import ConfigurationError
from repro.harness.runner import main
from repro.methods import evaluate_design_space, merge_result_sets
from repro.methods.cache import DiskCache, ENTRY_SCHEMA
from repro.methods.progress import (
    CHUNK_MERGED,
    POINT_DONE,
    ProgressEvent,
)
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def cluster_space(day_profile):
    rate = 2.0 / SECONDS_PER_DAY
    return [
        (
            f"C={c}",
            SystemModel(
                [Component("node", rate, day_profile, multiplicity=c)]
            ),
        )
        for c in (2, 8, 100, 300, 1000)
    ]


class TestMergedChunkAccounting:
    """merged_chunks is the fold count — cancellation races included."""

    def _check_events(self, events, chunk_trials):
        by_label: dict[str, list[ProgressEvent]] = {}
        for event in events:
            by_label.setdefault(event.label, []).append(event)
        for label, stream in by_label.items():
            chunks = [e for e in stream if e.kind == CHUNK_MERGED]
            done = [e for e in stream if e.kind == POINT_DONE]
            assert len(done) == 1, label
            done = done[0]
            merged = [e.merged_chunks for e in chunks]
            # Strictly increasing, bounded by the plan, and consistent
            # with the folded trial counts at every step.
            assert merged == sorted(set(merged)), label
            for event in chunks:
                assert event.merged_chunks <= event.total_chunks
                assert event.trials == (
                    event.merged_chunks * chunk_trials
                ), label
            if merged:
                assert done.merged_chunks >= merged[-1], label
            # The final report equals the folds behind the estimate —
            # a cancelled-after-completion chunk never inflates it.
            assert done.trials == done.merged_chunks * chunk_trials, label

    def test_streaming_process_path_counts_only_folds(
        self, cluster_space
    ):
        mc = MonteCarloConfig(
            trials=8_000,
            seed=3,
            chunks=8,
            stopping=StoppingRule(target_rel_stderr=0.05),
        )
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=4,
            executor="process",
            progress=events.append,
        )
        assert any(e.stopped_early for e in events)
        self._check_events(events, chunk_trials=1_000)

    def test_pipelined_scheduler_counts_only_folds(self, cluster_space):
        mc = MonteCarloConfig(
            trials=8_000,
            seed=3,
            chunks=8,
            stopping=StoppingRule(target_rel_stderr=0.05),
        )
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space,
            methods=["first_principles"],
            mc_config=mc,
            workers=4,
            progress=events.append,
        )
        self._check_events(events, chunk_trials=1_000)


class TestDiskCacheAtomicity:
    def test_truncated_entry_reads_as_miss_and_is_repaired(
        self, tmp_path
    ):
        cache = DiskCache(tmp_path)
        cache.put("key", {"mttf_seconds": 1.0})
        path = cache._path("key")
        # Simulate the torn write an interleaved plain open/write pair
        # could leave behind: valid prefix, truncated tail.
        full = path.read_text(encoding="utf-8")
        path.write_text(full[: len(full) // 2], encoding="utf-8")
        assert cache.get("key") is None
        assert cache.peek("key") is None
        # The next writer repairs the entry (last write wins).
        cache.put("key", {"mttf_seconds": 2.0})
        assert cache.get("key") == {"mttf_seconds": 2.0}

    def test_foreign_schema_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache._path("key")
        path.write_text(
            json.dumps({"schema": "something-else", "value": {}}),
            encoding="utf-8",
        )
        assert cache.get("key") is None

    def test_no_temp_files_survive_writes(self, tmp_path):
        cache = DiskCache(tmp_path)
        for index in range(20):
            cache.put(f"key-{index}", {"mttf_seconds": float(index)})
        leftovers = [
            p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert len(cache) == 20

    def test_interleaved_writers_never_tear_an_entry(self, tmp_path):
        # Two "shards" hammering the same keys concurrently: every
        # entry must stay readable (atomic replace, last write wins).
        caches = [DiskCache(tmp_path) for _ in range(2)]
        errors: list[Exception] = []

        def writer(cache, worker):
            try:
                for round_index in range(25):
                    for key in ("shared-a", "shared-b"):
                        cache.put(
                            key,
                            {"mttf_seconds": float(worker + round_index)},
                        )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(cache, index))
            for index, cache in enumerate(caches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        reader = DiskCache(tmp_path)
        for key in ("shared-a", "shared-b"):
            value = reader.get(key)
            assert value is not None and "mttf_seconds" in value
        for path in tmp_path.iterdir():
            if path.suffix == ".json" and not path.name.startswith(
                ".tmp-"
            ):
                entry = json.loads(path.read_text(encoding="utf-8"))
                assert entry["schema"] == ENTRY_SCHEMA


class TestDuplicateShardRejection:
    def _shard_files(self, cluster_space, tmp_path):
        paths = []
        for index in range(2):
            result = evaluate_design_space(
                cluster_space,
                methods=["avf_sofr"],
                reference="exact",
                shard=(index, 2),
            )
            path = tmp_path / f"shard{index}.json"
            result.to_json(path)
            paths.append(path)
        return paths

    def test_identical_duplicate_dedups_conflicting_refused(
        self, cluster_space, tmp_path
    ):
        from repro.methods import ResultSet

        shard0, shard1 = self._shard_files(cluster_space, tmp_path)
        # An identical duplicate artifact is deduplicated (a shard run
        # twice, say after a retry, produces the same bytes) — the
        # merge equals the honest one.
        honest = merge_result_sets(
            [ResultSet.from_json(shard0), ResultSet.from_json(shard1)]
        )
        deduped = merge_result_sets(
            [
                ResultSet.from_json(shard0),
                ResultSet.from_json(shard0),
                ResultSet.from_json(shard1),
            ]
        )
        assert deduped == honest
        # A duplicate slot with *different* contents is still refused.
        import dataclasses

        conflicting = dataclasses.replace(
            ResultSet.from_json(shard0), mc_token="tampered"
        )
        with pytest.raises(ConfigurationError, match="duplicate shard"):
            merge_result_sets(
                [
                    ResultSet.from_json(shard0),
                    conflicting,
                    ResultSet.from_json(shard1),
                ]
            )

    def test_cli_merge_fails_loudly_on_duplicates(
        self, cluster_space, tmp_path, capsys
    ):
        shard0, shard1 = self._shard_files(cluster_space, tmp_path)
        out = tmp_path / "merged.json"
        # Same artifact twice is deduplicated to a lone shard 0, which
        # is an incomplete partition: exit code 1, no file, loud reason.
        assert main(
            ["merge", str(shard0), str(shard0), "--json", str(out)]
        ) == 1
        assert "missing shards" in capsys.readouterr().err
        assert not out.exists()
        # The honest partition still merges.
        assert main(
            ["merge", str(shard0), str(shard1), "--json", str(out)]
        ) == 0
        assert out.exists()

    def test_partition_must_be_exactly_complete(
        self, cluster_space, tmp_path
    ):
        from repro.methods import ResultSet

        shard0, _ = self._shard_files(cluster_space, tmp_path)
        with pytest.raises(ConfigurationError, match="missing shards"):
            merge_result_sets([ResultSet.from_json(shard0)])
