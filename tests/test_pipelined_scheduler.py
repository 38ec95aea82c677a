"""Work-conserving scheduler tests.

Covers the scheduler every sweep runs — method estimates streamed into
the pool as references finalize, estimates written through to the disk
cache as they land, method-ordered records, fail-fast cancellation,
points the reference cannot estimate refused up front — plus the
acceptance bar: bit-identity across worker counts against the default
one-worker run.
"""

import json
import threading

import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    first_principles_mttf,
)
from repro.errors import ConfigurationError
from repro.methods import (
    ComponentCache,
    DiskCache,
    evaluate_design_space,
    register_method,
    unregister,
)
from repro.methods.base import FunctionEstimator
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
        # exactly one MC estimation of the component instance (its
        # one-instance system) instead of one per point, even when pool
        # threads ask for it at once.
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
        # Three references, three SOFR estimates and one instance.
        assert cache.misses == len(cache) == 3 + 3 + 1

    def test_a_method_runs_while_another_reference_is_unfinished(
        self, cluster_space
    ):
        # The first point's reference finishes only once a method has
        # run, and the first point's own methods wait for it: only the
        # second point's method, launched the moment the second
        # reference is final, can open the gate. A phase barrier
        # between references and methods would leave it shut.
        first = cluster_space[0][1]
        opened = threading.Event()
        waits = []
        try:

            @register_method("gated_reference")
            def gated_reference(system, config):
                if system is first:
                    waits.append(opened.wait(timeout=30))
                return first_principles_mttf(system)

            @register_method("gate_opener")
            def gate_opener(system, config):
                opened.set()
                return first_principles_mttf(system)

            result = evaluate_design_space(
                cluster_space[:2],
                methods=["gate_opener"],
                reference="gated_reference",
                workers=2,
            )
        finally:
            unregister("gated_reference")
            unregister("gate_opener")
        assert waits == [True]
        assert result.labels == ["C=2", "C=8"]


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


class TestReferenceSupport:
    def test_unsupported_reference_refused_before_any_estimate(
        self, cluster_space, monkeypatch
    ):
        # avf estimates one single-instance component; as the reference
        # of a cluster it would measure every method against one copy.
        calls = []
        estimate = FunctionEstimator.estimate

        def counting(estimator, system, config=None):
            calls.append(estimator.name)
            return estimate(estimator, system, config)

        monkeypatch.setattr(FunctionEstimator, "estimate", counting)
        cache = ComponentCache()
        with pytest.raises(
            ConfigurationError,
            match="reference 'avf' does not support system 'C=2'",
        ):
            evaluate_design_space(
                cluster_space,
                methods=["first_principles"],
                reference="avf",
                cache=cache,
            )
        assert calls == []
        assert cache.hits == cache.misses == 0


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
