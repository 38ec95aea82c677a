"""Regression tests for the on-disk estimate cache.

* ``DiskCache`` entries are written atomically (temp file +
  ``os.replace``) so concurrent writers sharing a ``--cache-dir`` can
  interleave freely, and a torn/truncated entry reads as a miss, never
  poisoning a warm rerun;
* an entry whose value does not decode — at either cache level — is a
  miss too: the engine recomputes the estimate and overwrites it.
"""

import json
import threading

import pytest

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.methods import ComponentCache, evaluate_design_space
from repro.methods.cache import DiskCache, ENTRY_SCHEMA
from repro.reliability.metrics import MTTFEstimate
from repro.units import SECONDS_PER_DAY

#: Disk values that carry the right schema tag but no usable MTTF.
MALFORMED_VALUES = (
    {},
    {"mttf_seconds": "abc"},
    {"mttf_seconds": -5},
    {"mttf_seconds": 0},
    {"mttf_seconds": float("nan")},
)


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


def _entry_paths(directory) -> dict:
    """Every cache entry under ``directory``, keyed by its cache key."""
    return {
        json.loads(path.read_text(encoding="utf-8"))["key"]: path
        for path in directory.glob("*.json")
    }


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

    @pytest.mark.parametrize("level", ("component", "system"))
    @pytest.mark.parametrize(
        "value", MALFORMED_VALUES,
        ids=("empty", "string", "negative", "zero", "nan"),
    )
    def test_malformed_value_is_a_miss_and_is_rewritten(
        self, cluster_space, tmp_path, level, value
    ):
        def run(cache):
            return evaluate_design_space(
                cluster_space[:2],
                methods=["sofr_only"],
                mc_config=MonteCarloConfig(trials=1_000, seed=1),
                cache=cache,
            )

        cold = run(ComponentCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        spoiled = []
        for key, path in _entry_paths(tmp_path).items():
            if key.startswith(f"{level}/"):
                disk.put(key, value)
                spoiled.append(key)
            elif level == "component":
                # Without system entries the rerun asks the component
                # level again, so the spoiled value is actually read.
                path.unlink()
        assert spoiled
        cache = ComponentCache(disk=DiskCache(tmp_path))
        assert run(cache) == cold
        assert cache.misses + cache.estimate_misses >= len(spoiled)
        reader = DiskCache(tmp_path)
        for key in spoiled:
            stored = reader.get(key)
            if level == "component":
                assert stored["mttf_seconds"] > 0
            else:
                assert MTTFEstimate.from_dict(stored).mttf_seconds > 0

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
        # Two writers hammering the same keys concurrently: every
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
