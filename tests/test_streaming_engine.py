"""Engine progress events and the per-point trial audit.

The batch engine reports each grid point's lifecycle through progress
events while it runs, and every sweep result records the trials behind
its Monte-Carlo reference.
"""

import pytest

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.methods import ComponentCache, evaluate_design_space
from repro.methods.progress import ProgressEvent
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


def _assert_point_lifecycles(events, labels, methods):
    """Per label: one point-start, then one point-done, then the
    point's ``methods`` method-done events."""
    for label in labels:
        kinds = [e.kind for e in events if e.label == label]
        assert kinds.count("point-start") == 1, label
        assert kinds.count("point-done") == 1, label
        assert kinds.count("method-done") == methods, label
        done = kinds.index("point-done")
        assert kinds.index("point-start") < done, label
        assert all(
            position > done
            for position, kind in enumerate(kinds)
            if kind == "method-done"
        ), label


class TestProgressEvents:
    def test_threaded_run_emits_point_events(self, cluster_space):
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space[:2],
            methods=["first_principles"],
            mc_config=MonteCarloConfig(trials=2_000, seed=1),
            workers=2,
            progress=events.append,
        )
        _assert_point_lifecycles(events, ("C=2", "C=8"), methods=1)
        done = [e for e in events if e.kind == "point-done"]
        assert all(e.trials == 2_000 and not e.cached for e in done)

    def test_serial_run_emits_point_events(self, cluster_space):
        events: list[ProgressEvent] = []
        evaluate_design_space(
            cluster_space[:2],
            methods=["avf_sofr"],
            reference="exact",
            progress=events.append,
        )
        _assert_point_lifecycles(events, ("C=2", "C=8"), methods=1)

    def test_warm_cache_events_flag_cached_at_every_width(
        self, cluster_space
    ):
        mc = MonteCarloConfig(trials=1_000, seed=1)
        cache = ComponentCache()
        evaluate_design_space(
            cluster_space[:2], methods=["first_principles"],
            mc_config=mc, cache=cache,
        )
        for workers in (1, 2):
            events: list[ProgressEvent] = []
            evaluate_design_space(
                cluster_space[:2],
                methods=["first_principles"],
                mc_config=mc,
                cache=cache,
                workers=workers,
                progress=events.append,
            )
            _assert_point_lifecycles(events, ("C=2", "C=8"), methods=1)
            done = [
                e for e in events if e.kind in ("point-done", "method-done")
            ]
            assert len(done) == 4, workers
            assert all(e.cached for e in done), workers


class TestSweepAudit:
    def test_sweep_results_carry_trial_counts(self, day_profile):
        from repro.core import component_sweep

        outcome = component_sweep(
            {"day": day_profile},
            [1e8, 1e9],
            MonteCarloConfig(trials=2_000, seed=1),
        )
        assert [r.monte_carlo_trials for r in outcome] == [2_000, 2_000]
        for result in outcome:
            assert result.monte_carlo_rel_stderr > 0
