"""Executor-backend protocol conformance suite (PR-8 tentpole).

The contract under test is the one ``docs/SCHEDULER.md`` states as the
engine's determinism invariant: every registered
:class:`~repro.methods.executors.ChunkExecutor` backend — thread,
process, and the remote TCP worker fleet — must produce ResultSets
whose canonical JSON bytes are identical to a serial single-worker run,
for any worker count, completion order, scheduling mode, or shard
split. On top of the identity bar, this file covers the sealed
wire-frame codec (torn frames are loud, never silently wrong), the
PLAN_MISS hydration handshake, mid-batch worker death with failover to
survivors, and the CLI/knob resolution helpers (``--workers auto``,
address lists implying ``--executor remote``).

Loopback caveat: an in-process :class:`BackgroundWorker` shares the
coordinator's process-global plan cache, so the PLAN_MISS path is
exercised with a raw-socket request carrying an unknown key.
"""

import io
import json
import socket

import pytest

from repro.core import Component, MonteCarloConfig, StoppingRule, SystemModel
from repro.core import kernel as _kernel
from repro.errors import ConfigurationError, EstimationError, WireError
from repro.methods import (
    ChunkExecutor,
    RemoteExecutor,
    available_executors,
    evaluate_design_space,
    executor_name,
    get_executor,
    register_executor,
    unregister_executor,
)
from repro.methods.executors import (
    WIRE_SCHEMA,
    decode_frame,
    encode_frame,
    executor_from_cli,
    parse_address,
    parse_workers,
    read_frame,
    resolve_workers,
)
from repro.methods.worker import BackgroundWorker
from repro.service.wire import JobSpec
from repro.units import SECONDS_PER_DAY

#: Small fixed-budget config: cheap enough for the 1-CPU CI host, big
#: enough to fan several chunks per point through every backend.
SMALL_MC = MonteCarloConfig(trials=800, seed=11, chunks=4)

#: Adaptive config for the pipelined + reallocation variant.
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


def serial_baseline(space, mc=SMALL_MC, **kwargs):
    return evaluate_design_space(
        space,
        methods=["sofr_only"],
        reference="monte_carlo",
        mc_config=mc,
        workers=1,
        executor="thread",
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Wire frame codec: the sealed-record discipline on a stream.
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip(self):
        record = {"op": "hello", "schema": WIRE_SCHEMA, "id": 3}
        assert decode_frame(encode_frame(record)) == record

    def test_frame_is_length_prefixed_and_newline_terminated(self):
        frame = encode_frame({"id": 1, "op": "hello"})
        assert frame == b'21:{"id":1,"op":"hello"}\n'

    def test_missing_newline_is_torn(self):
        whole = encode_frame({"op": "hello"})
        with pytest.raises(WireError, match="newline"):
            decode_frame(whole[:-1])

    def test_truncated_body_is_torn(self):
        # The peer died mid-write: declared length > delivered bytes.
        with pytest.raises(WireError, match="declared"):
            decode_frame(b'999:{"op":"hello"}\n')

    def test_missing_length_prefix_is_torn(self):
        with pytest.raises(WireError, match="length prefix"):
            decode_frame(b'{"op":"hello"}\n')

    def test_bad_length_prefix_is_torn(self):
        with pytest.raises(WireError, match="length prefix"):
            decode_frame(b'abc:{"op":"hello"}\n')

    def test_unparsable_body_is_torn(self):
        body = b"not json!!"
        with pytest.raises(WireError, match="unparsable"):
            decode_frame(b"%d:%s\n" % (len(body), body))

    def test_non_object_body_is_torn(self):
        body = b"[1,2,3]"
        with pytest.raises(WireError, match="JSON object"):
            decode_frame(b"%d:%s\n" % (len(body), body))

    def test_read_frame_clean_eof_is_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_read_frame_eof_mid_frame_is_torn(self):
        stream = io.BytesIO(encode_frame({"op": "hello"})[:-1])
        with pytest.raises(WireError):
            read_frame(stream)


# ---------------------------------------------------------------------------
# Knob parsing and the backend registry.
# ---------------------------------------------------------------------------


class TestWorkerKnobs:
    def test_parse_workers_integer(self):
        assert parse_workers("3") == 3

    def test_parse_workers_auto(self):
        assert parse_workers("AUTO") == "auto"

    def test_parse_workers_addresses(self):
        assert parse_workers("hostA:8421, hostB:8421") == (
            "hostA:8421",
            "hostB:8421",
        )

    def test_parse_workers_garbage_is_loud(self):
        with pytest.raises(ConfigurationError, match="--workers"):
            parse_workers("three")

    def test_parse_workers_bad_address_is_loud(self):
        with pytest.raises(ConfigurationError, match="host:port"):
            parse_workers("hostA:notaport,hostB:8421")

    def test_parse_address_rejects_missing_port(self):
        with pytest.raises(ConfigurationError, match="host:port"):
            parse_address("hostA")

    def test_resolve_workers_auto_asks_the_backend(self):
        import os

        backend = get_executor("thread")
        expected = os.cpu_count() or 1
        assert resolve_workers("auto", backend) == expected
        assert resolve_workers(None, backend) == expected

    def test_resolve_workers_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(0, get_executor("thread"))

    def test_resolve_workers_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(True, get_executor("thread"))

    def test_addresses_imply_remote_when_executor_unset(self):
        # `--workers host:port,...` with no --executor flag: remote.
        backend, workers = executor_from_cli(
            None, ("127.0.0.1:8421", "127.0.0.1:8422")
        )
        assert isinstance(backend, RemoteExecutor)
        assert workers == 2

    def test_executor_unset_defaults_to_thread(self):
        backend, workers = executor_from_cli(None, 3)
        assert executor_name(backend) == "thread"
        assert workers == 3

    def test_cli_fleet_selects_remote_backend(self):
        backend, workers = executor_from_cli(
            "remote", ("127.0.0.1:8421", "127.0.0.1:8422")
        )
        assert isinstance(backend, RemoteExecutor)
        assert backend.addresses == (
            ("127.0.0.1", 8421),
            ("127.0.0.1", 8422),
        )
        assert workers == 2

    def test_cli_fleet_with_local_executor_is_loud(self):
        with pytest.raises(ConfigurationError, match="implies"):
            executor_from_cli("process", ("127.0.0.1:8421",))

    def test_cli_remote_without_fleet_is_loud(self):
        with pytest.raises(ConfigurationError, match="addresses"):
            executor_from_cli("remote", "auto")

    def test_cli_auto_resolves_locally(self):
        import os

        backend, workers = executor_from_cli("thread", "auto")
        assert executor_name(backend) == "thread"
        assert workers == (os.cpu_count() or 1)


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_executors()
        assert "thread" in names
        assert "process" in names
        assert "remote" in names

    def test_unknown_executor_is_loud(self, cluster_space):
        with pytest.raises(ConfigurationError, match="executor"):
            evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                executor="fiber",
            )

    def test_get_executor_passes_instances_through(self):
        backend = RemoteExecutor(["127.0.0.1:8421"])
        assert get_executor(backend) is backend

    def test_register_requires_chunk_executor(self):
        with pytest.raises(ConfigurationError, match="ChunkExecutor"):
            register_executor(object())

    def test_registration_legalizes_the_spelling(self, cluster_space):
        """A registered custom backend works everywhere by name."""

        class InlineExecutor(ChunkExecutor):
            name = "inline-test"
            shares_memory = True

            def auto_workers(self):
                return 1

            def pool(self, workers):
                from concurrent.futures import ThreadPoolExecutor

                return ThreadPoolExecutor(max_workers=1)

        register_executor(InlineExecutor())
        try:
            assert "inline-test" in available_executors()
            result = evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                workers=2,
                executor="inline-test",
            )
            assert canonical(result) == canonical(
                serial_baseline(cluster_space)
            )
        finally:
            unregister_executor("inline-test")
        assert "inline-test" not in available_executors()
        with pytest.raises(ConfigurationError, match="executor"):
            evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                executor="inline-test",
            )


# ---------------------------------------------------------------------------
# The determinism bar: every backend, byte-identical ResultSets.
# ---------------------------------------------------------------------------


class TestBackendConformance:
    @pytest.mark.parametrize("name", ("thread", "process", "remote"))
    def test_backend_matches_serial_bytes(self, cluster_space, name):
        baseline = canonical(serial_baseline(cluster_space))
        if name == "remote":
            with BackgroundWorker() as w1, BackgroundWorker() as w2:
                backend = RemoteExecutor([w1.address, w2.address])
                result = evaluate_design_space(
                    cluster_space,
                    methods=["sofr_only"],
                    mc_config=SMALL_MC,
                    workers="auto",
                    executor=backend,
                )
        else:
            result = evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                workers=2,
                executor=name,
            )
        assert canonical(result) == baseline

    def test_every_registered_backend_is_covered(self):
        """New backends must be added to the conformance matrix."""
        assert set(available_executors()) == {"thread", "process", "remote"}

    def test_remote_pipelined_reallocation_matches_serial(
        self, cluster_space
    ):
        kwargs = dict(
            reallocate_budget=True,
        )
        baseline = canonical(
            serial_baseline(cluster_space, mc=ADAPTIVE_MC, **kwargs)
        )
        with BackgroundWorker() as w1, BackgroundWorker() as w2:
            backend = RemoteExecutor([w1.address, w2.address])
            result = evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                reference="monte_carlo",
                mc_config=ADAPTIVE_MC,
                workers="auto",
                executor=backend,
                **kwargs,
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

    def test_job_spec_runs_on_a_remote_fleet(self, cluster_space):
        """The service path accepts a RemoteExecutor instance verbatim."""
        spec = JobSpec(
            space=tuple(cluster_space),
            methods=("sofr_only",),
            reference="monte_carlo",
            mc=SMALL_MC,
        )
        direct = spec.run(workers=1, executor="thread")
        with BackgroundWorker() as w1, BackgroundWorker() as w2:
            backend = RemoteExecutor([w1.address, w2.address])
            served = spec.run(workers=2, executor=backend)
        assert canonical(served) == canonical(direct)


# ---------------------------------------------------------------------------
# Failure discipline: dead workers, dead fleets, bad fleets.
# ---------------------------------------------------------------------------


class TestRemoteFailure:
    def test_mid_batch_death_fails_over_to_survivors(self, cluster_space):
        """A worker that dies mid-batch loses nothing: its outstanding
        tasks are resubmitted to the survivors and the bytes still
        match serial."""
        baseline = canonical(serial_baseline(cluster_space))
        with BackgroundWorker(fail_after=1) as doomed, BackgroundWorker() as survivor:
            backend = RemoteExecutor([doomed.address, survivor.address])
            result = evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                workers=2,
                executor=backend,
            )
        assert canonical(result) == baseline

    def test_whole_fleet_death_is_loud(self, cluster_space):
        with BackgroundWorker(fail_after=0) as doomed:
            backend = RemoteExecutor([doomed.address])
            with pytest.raises(EstimationError, match="repro-worker"):
                evaluate_design_space(
                    cluster_space,
                    methods=["sofr_only"],
                    mc_config=SMALL_MC,
                    workers=1,
                    executor=backend,
                )

    def test_unreachable_worker_is_loud(self, cluster_space):
        # An address nothing listens on: connect fails fast and loudly.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = RemoteExecutor([f"127.0.0.1:{port}"])
        with pytest.raises(EstimationError, match="cannot reach"):
            evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                workers=1,
                executor=backend,
            )

    def test_remote_without_addresses_is_loud(self, cluster_space):
        with pytest.raises(ConfigurationError, match="addresses"):
            evaluate_design_space(
                cluster_space,
                methods=["sofr_only"],
                mc_config=SMALL_MC,
                workers=2,
                executor="remote",
            )


# ---------------------------------------------------------------------------
# Raw-socket protocol checks against a live worker daemon.
# ---------------------------------------------------------------------------


def worker_conversation(address, frames, *, handshake=True):
    """Open one raw connection, send frames, collect reply frames.

    Returns the decoded replies; a connection the worker dropped simply
    yields fewer replies than frames sent.
    """
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        stream = sock.makefile("rb")
        replies = []
        if handshake:
            sock.sendall(
                encode_frame({"op": "hello", "schema": WIRE_SCHEMA, "id": 0})
            )
            replies.append(read_frame(stream))
        for frame in frames:
            sock.sendall(frame)
        # Half-close so the worker sees a clean EOF and hangs up once
        # it has answered everything (or dropped the connection).
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        while True:
            try:
                reply = read_frame(stream)
            except (WireError, OSError):
                break
            if reply is None:
                break
            replies.append(reply)
        return replies


class TestWorkerDaemonProtocol:
    def test_hello_reports_schema_and_capacity(self):
        with BackgroundWorker() as worker:
            replies = worker_conversation(worker.address, [])
        (hello,) = replies
        assert hello["schema"] == WIRE_SCHEMA
        assert hello["cpu_count"] >= 1
        assert isinstance(hello["pid"], int)

    def test_schema_mismatch_is_refused(self):
        with BackgroundWorker() as worker:
            replies = worker_conversation(
                worker.address,
                [encode_frame({"op": "hello", "schema": "bogus/v9", "id": 1})],
                handshake=False,
            )
        (refusal,) = replies
        assert refusal["op"] == "error"
        assert "schema mismatch" in refusal["error"]

    def test_torn_frame_drops_the_connection_without_reply(self):
        with BackgroundWorker() as worker:
            replies = worker_conversation(
                worker.address,
                [b'999:{"op":"hello"}\n'],  # declared 999, delivered 14
            )
        # Only the handshake reply arrives; the torn frame is answered
        # by a dropped connection, never a guessed-at record.
        assert len(replies) == 1

    def test_unknown_op_is_an_error_then_drop(self):
        with BackgroundWorker() as worker:
            replies = worker_conversation(
                worker.address,
                [encode_frame({"op": "transmogrify", "id": 7})],
            )
        assert len(replies) == 2
        assert replies[1]["op"] == "error"
        assert replies[1]["id"] == 7

    def test_malformed_task_payloads_are_typed_errors(self):
        """Worker-side decoding refuses what ``repro-serve`` refuses."""
        estimate = {
            "op": "estimate", "method": "avf", "system": 5, "mc": {},
            "reference": "monte_carlo", "id": 3,
        }
        batch = {
            "op": "plan-chunks", "key": "k", "plan": None,
            "jobs": [[0, {"trials": 400, "seed": -1}]], "id": 4,
        }
        with BackgroundWorker() as worker:
            replies = worker_conversation(
                worker.address, [encode_frame(estimate), encode_frame(batch)]
            )
        assert [reply["id"] for reply in replies[1:]] == [3, 4]
        for reply in replies[1:]:
            assert reply["op"] == "error"
            assert reply["error"].startswith("ConfigurationError")

    def test_plan_miss_round_trip(self):
        """A keyed batch with no shipped plan answers PLAN_MISS.

        The loopback worker shares the coordinator's plan cache, so the
        miss path needs a key that cannot be hydrated: the coordinator
        is then expected to resubmit with the plan attached.
        """
        with BackgroundWorker() as worker:
            replies = worker_conversation(
                worker.address,
                [
                    encode_frame(
                        {
                            "op": "plan-chunks",
                            "key": "no-such-plan-fingerprint",
                            "plan": None,
                            "jobs": [],
                            "id": 5,
                        }
                    )
                ],
            )
        assert len(replies) == 2
        miss = replies[1]
        assert miss["status"] == _kernel.PLAN_MISS
        assert miss["key"] == "no-such-plan-fingerprint"
        assert miss["id"] == 5
