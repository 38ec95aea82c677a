"""Ordered-map engine tests.

Covers the one map every sweep runs — one task per point and distinct
estimator on one pool, estimates written through to the disk cache as
they land, method-ordered records, a raising task cancelling the tasks
not yet started, points the reference or a method cannot estimate
refused before any estimate — plus the acceptance bar: bit-identity
across worker counts against the default one-worker run.
"""

import json
import threading
import time

import pytest

from repro.core import (
    Component,
    MonteCarloConfig,
    SystemModel,
    first_principles_mttf,
)
from repro.errors import ConfigurationError, EstimationError
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
    """Acceptance bar: the pool width is never a numbers change. Each
    ``serial`` baseline is the default run (one worker); each ``wide``
    run maps the same tasks over more threads."""

    def test_pipelined_equals_phased(self, cluster_space):
        mc = MonteCarloConfig(trials=4_000, seed=3)
        serial = evaluate_design_space(
            cluster_space,
            methods=["first_principles", "sofr_only"],
            mc_config=mc,
        )
        for workers in (2, 3):
            wide = evaluate_design_space(
                cluster_space,
                methods=["first_principles", "sofr_only"],
                mc_config=mc,
                workers=workers,
            )
            assert wide == serial, workers

    def test_pipelined_exact_reference(self, cluster_space):
        serial = evaluate_design_space(
            cluster_space, methods=["avf_sofr"], reference="exact"
        )
        wide = evaluate_design_space(
            cluster_space,
            methods=["avf_sofr"],
            reference="exact",
            workers=2,
        )
        assert wide == serial

    def test_pool_keeps_component_memoization(
        self, cluster_space
    ):
        # Every C shares one profile, so the whole sweep performs
        # exactly one MC estimation of the component instance (its
        # one-instance system) instead of one per point, even when pool
        # threads ask for it at once.
        mc = MonteCarloConfig(trials=2_000, seed=1)
        serial = evaluate_design_space(
            cluster_space[:3], methods=["sofr_only"], mc_config=mc
        )
        cache = ComponentCache()
        wide = evaluate_design_space(
            cluster_space[:3],
            methods=["sofr_only"],
            mc_config=mc,
            workers=2,
            cache=cache,
        )
        assert wide == serial
        # Three references, three SOFR estimates and one instance.
        assert cache.misses == len(cache) == 3 + 3 + 1

    def test_a_method_runs_while_another_reference_is_unfinished(
        self, cluster_space
    ):
        # The first point's reference finishes only once a method has
        # run. Its method task is queued right behind it, so the second
        # worker runs it while the reference waits and opens the gate.
        # A phase barrier between references and methods would leave
        # it shut.
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
        # avf supports single-instance systems only, so the support
        # check refuses the first point before any estimate runs: no
        # reference is drawn at all.
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
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_method_stops_the_sweep_after_a_few_tasks(
        self, day_profile, monkeypatch, workers
    ):
        # Forty distinct points, each with a Monte-Carlo reference. The
        # method fails on the first point, whose tasks come first, so
        # the references of the later points never start: only the
        # tasks already running when the error surfaces finish. Every
        # later reference lingers 50 ms, so a worker cannot race
        # through the queue while the caller's thread waits to be
        # scheduled and cancel it.
        rate = 2.0 / SECONDS_PER_DAY
        space = [
            (
                f"C={c}",
                SystemModel(
                    [Component("node", rate, day_profile, multiplicity=c)]
                ),
            )
            for c in range(2, 42)
        ]
        first = space[0][1]
        draws = []
        estimate = FunctionEstimator.estimate

        def counting(estimator, system, config=None):
            if estimator.name == "monte_carlo":
                draws.append(system)
                if system is not first:
                    time.sleep(0.05)
            return estimate(estimator, system, config)

        monkeypatch.setattr(FunctionEstimator, "estimate", counting)
        try:

            @register_method("fails_first")
            def fails_first(system, config):
                if system is first:
                    raise EstimationError("the first point fails")
                return first_principles_mttf(system)

            with pytest.raises(EstimationError, match="first point"):
                evaluate_design_space(
                    space,
                    methods=["fails_first"],
                    mc_config=MonteCarloConfig(trials=2_000, seed=1),
                    workers=workers,
                )
        finally:
            unregister("fails_first")
        assert len(draws) < 5


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

    def test_unsupported_method_refused_before_any_estimate(
        self, cluster_space, day_profile, monkeypatch
    ):
        # The first two points are single instances, which avf
        # estimates; the third is a cluster. The refusal comes before
        # any of the first two points' estimates, so nothing is drawn
        # or cached.
        calls = []
        estimate = FunctionEstimator.estimate

        def counting(estimator, system, config=None):
            calls.append(estimator.name)
            return estimate(estimator, system, config)

        monkeypatch.setattr(FunctionEstimator, "estimate", counting)
        rate = 2.0 / SECONDS_PER_DAY
        singles = [
            (
                f"single/{k}",
                SystemModel([Component("node", k * rate, day_profile)]),
            )
            for k in (1, 2)
        ]
        cache = ComponentCache()
        with pytest.raises(
            ConfigurationError,
            match="method 'avf' does not support system 'C=2'",
        ):
            evaluate_design_space(
                [*singles, cluster_space[0]],
                methods=["avf"],
                mc_config=MonteCarloConfig(trials=2_000, seed=1),
                cache=cache,
            )
        assert calls == []
        assert cache.misses == 0


class TestPublication:
    def test_estimates_publish_to_disk_as_points_finish(
        self, cluster_space, tmp_path
    ):
        # Write-through: after a run every system estimate (reference
        # and methods) is on disk for the next invocation.
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
