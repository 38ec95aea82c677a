"""Executor conformance suite.

The contract under test is the one ``docs/SCHEDULER.md`` states as the
engine's determinism invariant: the two executors of ``EXECUTORS`` —
a thread pool and a process pool — must produce ResultSets whose
canonical JSON bytes are identical to a serial single-worker run, for
any worker count, completion order, scheduling mode, or shard split.
On top of the identity bar, this file covers the ``--workers`` and
``executor=`` knobs: ``auto``, positive integers, and loud refusals of
anything else.
"""

import json
import os

import pytest

from repro.core import Component, MonteCarloConfig, StoppingRule, SystemModel
from repro.errors import ConfigurationError
from repro.harness import EngineOptions
from repro.harness.runner import _build_parser, parse_workers
from repro.methods import EXECUTORS, evaluate_design_space
from repro.methods.batch import resolve_workers
from repro.units import SECONDS_PER_DAY

#: Small fixed-budget config: cheap enough for the 1-CPU CI host, big
#: enough to fan several chunks per point through either executor.
SMALL_MC = MonteCarloConfig(trials=800, seed=11, chunks=4)

#: Adaptive config whose plan extends past ``trials`` (``max_trials``).
ADAPTIVE_MC = MonteCarloConfig(
    trials=800,
    seed=7,
    chunks=4,
    stopping=StoppingRule(target_rel_stderr=0.05, max_trials=1600),
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
        for c in (2, 8)
    ]


def canonical(result_set) -> str:
    """The byte-identity yardstick: canonical JSON of the ResultSet."""
    return json.dumps(result_set.to_dict(), sort_keys=True)


def serial_baseline(space, mc=SMALL_MC):
    return evaluate_design_space(
        space,
        methods=["sofr_only"],
        reference="monte_carlo",
        mc_config=mc,
        workers=1,
        executor="thread",
    )


# ---------------------------------------------------------------------------
# Knob parsing and the executor set.
# ---------------------------------------------------------------------------


class TestWorkerKnobs:
    def test_parse_workers_integer(self):
        assert parse_workers("3") == 3

    def test_parse_workers_auto(self):
        assert parse_workers("AUTO") == "auto"

    def test_parse_workers_garbage_is_loud(self):
        with pytest.raises(ConfigurationError, match="--workers"):
            parse_workers("three")

    def test_parse_workers_bad_address_is_loud(self):
        # Worker addresses name no executor: every host:port is refused.
        with pytest.raises(ConfigurationError, match="--workers"):
            parse_workers("hostA:8421,hostB:8421")

    def test_resolve_workers_auto_is_the_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_workers("auto") == expected
        assert resolve_workers(None) == expected

    def test_resolve_workers_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(0)

    def test_resolve_workers_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(True)

    def test_executor_unset_defaults_to_thread(self):
        assert _build_parser().parse_args([]).executor == "thread"
        assert EngineOptions(workers=3).executor == "thread"

    def test_cli_auto_resolves_locally(self):
        engine = EngineOptions(workers=parse_workers("auto"))
        assert resolve_workers(engine.workers) == (os.cpu_count() or 1)


class TestBackendRegistry:
    """``EXECUTORS`` is the whole set: a thread and a process pool."""

    def test_builtin_backends_registered(self):
        assert EXECUTORS == ("thread", "process")

    def test_unknown_executor_is_loud(self, cluster_space):
        for executor in ("fiber", "remote", None):
            with pytest.raises(ConfigurationError, match="executor"):
                evaluate_design_space(
                    cluster_space,
                    methods=["sofr_only"],
                    mc_config=SMALL_MC,
                    executor=executor,
                )
            with pytest.raises(ConfigurationError, match="executor"):
                EngineOptions(executor=executor)


# ---------------------------------------------------------------------------
# The determinism bar: every backend, byte-identical ResultSets.
# ---------------------------------------------------------------------------


class TestBackendConformance:
    @pytest.mark.parametrize("name", ("thread", "process"))
    def test_backend_matches_serial_bytes(self, cluster_space, name):
        baseline = canonical(serial_baseline(cluster_space))
        result = evaluate_design_space(
            cluster_space,
            methods=["sofr_only"],
            mc_config=SMALL_MC,
            workers=2,
            executor=name,
        )
        assert canonical(result) == baseline

    def test_every_registered_backend_is_covered(self):
        """New executors must be added to the conformance matrix."""
        assert set(EXECUTORS) == {"thread", "process"}

    def test_process_adaptive_matches_serial(self, cluster_space):
        baseline = canonical(serial_baseline(cluster_space, mc=ADAPTIVE_MC))
        result = evaluate_design_space(
            cluster_space,
            methods=["sofr_only"],
            reference="monte_carlo",
            mc_config=ADAPTIVE_MC,
            workers=2,
            executor="process",
        )
        assert canonical(result) == baseline

    def test_workers_auto_accepted_by_the_engine(self, cluster_space):
        result = evaluate_design_space(
            cluster_space,
            methods=["sofr_only"],
            mc_config=SMALL_MC,
            workers="auto",
            executor="thread",
        )
        assert canonical(result) == canonical(serial_baseline(cluster_space))
