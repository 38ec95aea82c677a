"""Work-conserving scheduler tests.

Covers the scheduler every sweep runs — method estimates streamed into
the pool as references finalize, estimates written through to the disk
cache as they land, method-ordered records, fail-fast cancellation —
plus the acceptance bar: bit-identity across worker counts against the
default one-worker run.
"""

import json

import pytest

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.errors import ConfigurationError
from repro.methods import (
    ComponentCache,
    DiskCache,
    evaluate_design_space,
)
from repro.methods.progress import (
    METHOD_DONE,
    METHOD_STARTED,
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


class TestPipelinedIdentity:
    """Acceptance bar: the schedule is never a numbers change. Each
    ``phased`` baseline is the default run (one worker); each ``piped``
    run fans the same sweep out wider."""

    def test_pipelined_equals_phased(self, cluster_space):
        mc = MonteCarloConfig(trials=4_000, seed=3)
        phased = evaluate_design_space(
            cluster_space,
            methods=["first_principles", "sofr_only"],
            mc_config=mc,
        )
        for workers in (2, 3):
            piped = evaluate_design_space(
                cluster_space,
                methods=["first_principles", "sofr_only"],
                mc_config=mc,
                workers=workers,
            )
            assert piped == phased, workers

    def test_pipelined_exact_reference(self, cluster_space):
        phased = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact"
        )
        piped = evaluate_design_space(
            cluster_space,
            methods=["avf_sofr"],
            reference="exact",
            workers=2,
        )
        assert piped == phased

    def test_pool_keeps_component_memoization(
        self, cluster_space
    ):
        # Every C shares one profile, so the whole sweep performs
        # exactly one component-level MC estimation instead of one per
        # point, even when pool threads ask for it at once.
        mc = MonteCarloConfig(trials=2_000, seed=1)
        phased = evaluate_design_space(
            cluster_space[:3], methods=["sofr_only"], mc_config=mc
        )
        cache = ComponentCache()
        piped = evaluate_design_space(
            cluster_space[:3],
            methods=["sofr_only"],
            mc_config=mc,
            workers=2,
            cache=cache,
        )
        assert piped == phased
        assert cache.misses == 1

    def test_method_events_stream_with_the_references(
        self, cluster_space
    ):
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space[:3],
            methods=["first_principles", "sofr_only"],
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
            workers=2,
            progress=events.append,
        )
        starts = [e for e in events if e.kind == METHOD_STARTED]
        dones = [e for e in events if e.kind == METHOD_DONE]
        assert {e.method for e in starts} == {
            "first_principles", "sofr_only",
        }
        assert len(dones) == 6  # 3 points x 2 methods
        # Methods launch after their own point's reference, not after
        # every reference: each label's method-start follows its
        # point-done immediately in the event order.
        for label in ("C=2", "C=8", "C=100"):
            kinds = [
                e.kind for e in events if e.label == label
            ]
            assert kinds.index(POINT_DONE) < kinds.index(METHOD_STARTED)


class TestDispatch:
    def test_estimates_follow_method_order_at_every_width(
        self, cluster_space
    ):
        # The reference doubles as the second method's estimate and
        # lands first; the record still lists methods in method order,
        # so the JSON bytes never depend on completion timing.
        methods = ["avf_sofr", "first_principles"]
        runs = [
            evaluate_design_space(
                cluster_space[:3],
                methods=methods,
                reference="first_principles",
                workers=workers,
            ).to_json()
            for workers in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        for comparison in json.loads(runs[0])["comparisons"]:
            assert list(comparison["estimates"]) == methods

    def test_an_error_cancels_the_queued_work(
        self, cluster_space, monkeypatch
    ):
        # avf supports single-instance systems only, so launching the
        # first point's methods raises; the references still queued
        # behind it must not run before the error surfaces.
        from repro.methods.base import FunctionEstimator

        calls = []
        estimate = FunctionEstimator.estimate

        def counting(estimator, system, config=None):
            if estimator.name == "monte_carlo":
                calls.append(system)
            return estimate(estimator, system, config)

        monkeypatch.setattr(FunctionEstimator, "estimate", counting)
        space = cluster_space * 8
        with pytest.raises(ConfigurationError, match="does not support"):
            evaluate_design_space(
                space,
                methods=["avf"],
                mc_config=MonteCarloConfig(trials=20_000, seed=1),
            )
        assert len(calls) < len(space)


class TestPublication:
    def test_estimates_publish_to_disk_as_points_finish(
        self, cluster_space, tmp_path
    ):
        # Write-through: after a pipelined run every system estimate
        # (reference and methods) is on disk for the next invocation.
        disk = DiskCache(tmp_path)
        cache = ComponentCache(disk=disk)
        mc = MonteCarloConfig(trials=1_000, seed=1)
        evaluate_design_space(
            cluster_space[:2],
            methods=["first_principles", "sofr_only"],
            mc_config=mc,
            cache=cache,
        )
        for _label, system in cluster_space[:2]:
            ref_key = ComponentCache.estimate_key(
                "monte_carlo", system, mc, "monte_carlo"
            )
            assert disk.get(ref_key) is not None
            method_key = ComponentCache.estimate_key(
                "sofr_only", system, mc, "monte_carlo"
            )
            assert disk.get(method_key) is not None
