"""Disk-cache tests: round-trip, invalidation, warm-rerun behaviour,
and one computation per key under racing threads.

Component instances are cached as their one-instance systems
(``Component.alone``) under the run's reference, in the one key space
of sweep points."""

import dataclasses
import json
import threading
import time

import pytest

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.errors import EstimationError
from repro.masking import busy_idle_profile
from repro.methods import (
    ComponentCache,
    DiskCache,
    evaluate_design_space,
    mc_token,
)
from repro.reliability.metrics import MTTFEstimate
from repro.units import SECONDS_PER_DAY


def _instance_key(component, mc=None, reference="monte_carlo"):
    """The key a component instance's MTTF is cached under."""
    return ComponentCache.estimate_key(
        reference, component.alone(), mc, reference
    )


def _mttf(seconds):
    return lambda: MTTFEstimate(mttf_seconds=seconds)


@pytest.fixture
def system(day_profile):
    return SystemModel(
        [Component("node", 2.0 / SECONDS_PER_DAY, day_profile)]
    )


class TestMcToken:
    def test_none_is_exact(self):
        assert mc_token(None) == "exact"

    def test_every_field_distinguished(self):
        # A field outside the token would let warm caches serve numbers
        # its new value no longer produces, so a new MonteCarloConfig
        # field fails here until it has a changed value below and that
        # value moves the token.
        changed = {"trials": 200, "seed": 2, "start_phase": "random"}
        base = MonteCarloConfig(trials=100, seed=1)
        tokens = {mc_token(base)}
        for field in dataclasses.fields(MonteCarloConfig):
            assert field.name in changed, f"no changed value for {field.name}"
            token = mc_token(
                dataclasses.replace(base, **{field.name: changed[field.name]})
            )
            assert token not in tokens, (
                f"mc_token ignores MonteCarloConfig.{field.name}"
            )
            tokens.add(token)

    def test_token_bytes_are_pinned(self):
        # Cache keys and ResultSet tokens written by earlier releases
        # carry the sampler, ``chunks=1`` and the arrival-round cap; the
        # literals keep them valid.
        assert mc_token(MonteCarloConfig(trials=100, seed=1)) == (
            "trials=100,seed=1,method=inverse,start_phase=zero,"
            "chunks=1,cap=None"
        )


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path / "store")
        cache.put("some/key", {"mttf_seconds": 123.5})
        assert len(cache) == 1
        assert cache.get("some/key") == {"mttf_seconds": 123.5}
        assert cache.get("other/key") is None

    def test_missing_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("absent") is None
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", {"v": 1})
        [entry] = [
            p for p in cache.directory.iterdir()
            if p.suffix == ".json"
        ]
        entry.write_text("{ not json", encoding="utf-8")
        assert cache.get("k") is None

    def test_entry_records_key_for_debugging(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("system/abc", {"mttf_seconds": 1.0})
        [entry] = [
            p for p in cache.directory.iterdir()
            if p.suffix == ".json"
        ]
        stored = json.loads(entry.read_text(encoding="utf-8"))
        assert stored["key"] == "system/abc"


class TestComponentCacheDiskBacking:
    def test_component_value_survives_process_restart(
        self, tmp_path, day_profile
    ):
        comp = Component("n", 1e-6, day_profile)
        cold = ComponentCache(disk=DiskCache(tmp_path))
        value = cold.get_or_compute(_instance_key(comp), _mttf(42.0))
        assert value.mttf_seconds == 42.0 and cold.misses == 1
        # A fresh cache object over the same directory: disk hit, the
        # compute callback must never run.
        warm = ComponentCache(disk=DiskCache(tmp_path))
        reloaded = warm.get_or_compute(
            _instance_key(comp),
            lambda: pytest.fail("recomputed despite warm disk cache"),
        )
        assert reloaded == value
        assert warm.disk_hits == 1 and warm.misses == 0

    def test_profile_change_invalidates(self, tmp_path, day_profile):
        cache = ComponentCache(disk=DiskCache(tmp_path))
        original = Component("n", 1e-6, day_profile)
        cache.get_or_compute(_instance_key(original), _mttf(1.0))
        # Same name and rate, different masking content: new fingerprint,
        # so the stale entry must not be served.
        edited = Component(
            "n",
            1e-6,
            busy_idle_profile(0.25 * SECONDS_PER_DAY, SECONDS_PER_DAY),
        )
        value = cache.get_or_compute(_instance_key(edited), _mttf(2.0))
        assert value.mttf_seconds == 2.0
        assert cache.misses == 2

    def test_mc_config_change_invalidates(self, tmp_path, day_profile):
        cache = ComponentCache(disk=DiskCache(tmp_path))
        comp = Component("n", 1e-6, day_profile)
        a = MonteCarloConfig(trials=100, seed=1)
        b = MonteCarloConfig(trials=100, seed=2)
        cache.get_or_compute(_instance_key(comp, a), _mttf(1.0))
        assert (
            cache.get_or_compute(_instance_key(comp, b), _mttf(2.0))
            .mttf_seconds == 2.0
        )

    def test_kind_disambiguates(self, tmp_path, day_profile):
        # The kind of an instance's MTTF is the reference method that
        # estimated it: the closed form and Monte Carlo never share one.
        cache = ComponentCache(disk=DiskCache(tmp_path))
        comp = Component("n", 1e-6, day_profile)
        cache.get_or_compute(
            _instance_key(comp, reference="first_principles"), _mttf(1.0)
        )
        assert (
            cache.get_or_compute(_instance_key(comp), _mttf(2.0))
            .mttf_seconds == 2.0
        )


class TestConcurrentComponentCompute:
    """Threads racing on one key share one computation."""

    @staticmethod
    def _gated(result):
        """A compute that blocks until released, then returns or raises
        ``result``; ``calls`` counts how often it ran."""
        started, release, calls = threading.Event(), threading.Event(), []

        def compute():
            calls.append(1)
            started.set()
            assert release.wait(10)
            if isinstance(result, Exception):
                raise result
            return result

        return compute, started, release, calls

    @staticmethod
    def _call(cache, component, compute):
        """Run ``get_or_compute`` on a thread; its outcome lands in a dict."""
        outcome = {}

        def call():
            try:
                outcome["value"] = cache.get_or_compute(
                    _instance_key(component), compute
                )
            except EstimationError as error:
                outcome["error"] = error

        thread = threading.Thread(target=call)
        thread.start()
        return thread, outcome

    def _race(self, cache, component, result):
        """Two callers of one key, the second arriving mid-compute."""
        compute, started, release, calls = self._gated(result)
        first, first_out = self._call(cache, component, compute)
        assert started.wait(10)
        second, second_out = self._call(cache, component, compute)
        # The second caller is now either waiting on the first (a hit)
        # or, without the claim, running the compute itself.
        deadline = time.monotonic() + 10
        while cache.hits == 0 and len(calls) < 2:
            assert time.monotonic() < deadline, "second caller stalled"
            time.sleep(0.001)
        release.set()
        first.join(10)
        second.join(10)
        return calls, first_out, second_out

    def test_racing_threads_compute_once(self, day_profile):
        component = Component("n", 1e-6, day_profile)
        cache = ComponentCache()
        estimate = MTTFEstimate(mttf_seconds=42.0)
        calls, first, second = self._race(cache, component, estimate)
        assert len(calls) == 1
        assert first == second == {"value": estimate}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_an_error_reaches_every_waiter_and_frees_the_key(
        self, day_profile
    ):
        component = Component("n", 1e-6, day_profile)
        cache = ComponentCache()
        failure = EstimationError("sampler failed")
        calls, first, second = self._race(cache, component, failure)
        assert len(calls) == 1
        assert first["error"] is failure and second["error"] is failure
        # The failed key is free again: a later call recomputes it.
        assert cache.get_or_compute(
            _instance_key(component), _mttf(7.0)
        ).mttf_seconds == 7.0
        assert cache.misses == 1


class TestWarmEngineRerun:
    def test_warm_rerun_performs_zero_estimations(
        self, tmp_path, day_profile
    ):
        rate = 2.0 / SECONDS_PER_DAY
        space = [
            (
                f"C={c}",
                SystemModel(
                    [Component("n", rate, day_profile, multiplicity=c)]
                ),
            )
            for c in (2, 8, 100)
        ]
        mc = MonteCarloConfig(trials=2_000, seed=3)
        cold_cache = ComponentCache(disk=DiskCache(tmp_path))
        cold = evaluate_design_space(
            space,
            methods=["sofr_only", "first_principles"],
            mc_config=mc,
            cache=cold_cache,
        )
        assert cold_cache.misses > 0
        # A brand-new in-memory cache over the same directory — as a new
        # CLI invocation would build — must serve everything from disk.
        warm_cache = ComponentCache(disk=DiskCache(tmp_path))
        warm = evaluate_design_space(
            space,
            methods=["sofr_only", "first_principles"],
            mc_config=mc,
            cache=warm_cache,
        )
        assert warm == cold
        assert warm_cache.misses == 0
        assert "misses=0" in warm_cache.stats_line()

    def test_trial_change_invalidates_estimates(
        self, tmp_path, day_profile
    ):
        space = [
            ("s", SystemModel([Component("n", 1e-5, day_profile)]))
        ]
        cache_a = ComponentCache(disk=DiskCache(tmp_path))
        evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=MonteCarloConfig(trials=1_000, seed=1),
            cache=cache_a,
        )
        cache_b = ComponentCache(disk=DiskCache(tmp_path))
        evaluate_design_space(
            space,
            methods=["first_principles"],
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
            cache=cache_b,
        )
        # The MC reference must be recomputed; the deterministic closed
        # form (keyed mc-independently) is served from disk.
        assert cache_b.misses == 1
        assert cache_b.disk_hits == 1
