"""Pluggable chunk-executor backends for the batch engine.

The scheduler stack (``docs/SCHEDULER.md``) submits exactly two kinds
of pure task — plan-chunk batches
(:func:`~repro.core.kernel.run_plan_chunks`) and whole method estimates
(:func:`estimate_task`) — and folds every
result on the coordinator in strict chunk-index order. That makes the
*executor* a pluggable detail: any backend that can run those tasks and
hand back their results produces byte-identical ResultSets, regardless
of worker count, placement, or completion order.

:class:`ChunkExecutor` is that protocol. Three backends ship:

* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`
  (``shares_memory=True``; the NumPy samplers release the GIL);
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  (true parallelism on one host);
* ``remote`` — :class:`RemoteExecutor`, which fans tasks out over TCP
  to a fleet of ``repro-worker`` daemons (``repro.methods.worker``).

The remote wire protocol reuses the sealed-record discipline of
``methods/cache.py``, adapted to a stream: every
frame is one length-checked, newline-terminated JSON record written
with a single ``sendall`` (:func:`encode_frame`), and a receiver that
sees a length mismatch, unparsable body, or missing terminator treats
the frame as *torn* and drops the connection loudly
(:func:`decode_frame` raises :class:`~repro.errors.WireError`) — never
a silently wrong number. Plans hydrate by fingerprint with the engine's
existing PLAN_MISS→resubmit protocol: a task normally carries only the
plan's cache key; a worker that misses answers ``PLAN_MISS`` and the
coordinator resubmits with the plan attached, so plans ship once per
worker, not once per chunk. A worker that dies mid-batch takes its
connection with it; the coordinator fails the channel and resubmits
its outstanding tasks to the surviving workers (determinism is
unaffected — folds happen coordinator-side in index order).

Register a custom backend with :func:`register_executor`; registration
is the single source of truth that legalizes the backend's spelling
everywhere an ``executor=`` knob exists (``evaluate_design_space``, the
CLI, ``repro-serve``).
"""

from __future__ import annotations

import json
import os
import socket
import threading
from concurrent.futures import (
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Sequence

from ..core import kernel as _kernel
from ..core.montecarlo import (
    MonteCarloConfig,
    SampleMoments,
    mc_config_from_dict,
    mc_config_to_dict,
)
from ..core.system import SystemModel
from ..errors import ConfigurationError, EstimationError, WireError
from ..reliability.metrics import MTTFEstimate
from . import registry
from .base import MethodConfig

#: Schema tag spoken in the hello handshake; a worker refuses a
#: coordinator that speaks anything else.
WIRE_SCHEMA = "repro.executor/v1"

#: Connect/handshake timeout (seconds) for remote worker channels.
CONNECT_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# Frame codec: the cache's sealed-record discipline, on a stream.
# ---------------------------------------------------------------------------


def encode_frame(record: dict) -> bytes:
    """Seal one record: ``b"<len>:<compact-sorted-json>\\n"``.

    The body is compact sorted JSON, so the byte length is canonical;
    the ``len:`` prefix lets the receiver verify the frame arrived
    whole *before* trusting the parse, and the terminating newline
    re-synchronizes framing after any fault. Callers must write the
    returned bytes with a single ``sendall``.
    """
    body = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return b"%d:%s\n" % (len(body), body)


def decode_frame(line: bytes) -> dict:
    """Open one sealed frame; raise :class:`WireError` if it is torn.

    Torn means: no terminating newline (the peer died mid-write), a
    missing or non-integer length prefix, a body whose byte length
    disagrees with the declared length, or a body that is not a JSON
    object. Every failure mode is loud — a torn frame kills the
    connection, it never yields a partial record.
    """
    if not line.endswith(b"\n"):
        raise WireError("torn frame: missing terminating newline")
    head, sep, body = line[:-1].partition(b":")
    if not sep:
        raise WireError("torn frame: missing length prefix")
    try:
        declared = int(head)
    except ValueError:
        raise WireError(
            f"torn frame: bad length prefix {head[:32]!r}"
        ) from None
    if len(body) != declared:
        raise WireError(
            f"torn frame: declared {declared} bytes, got {len(body)}"
        )
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise WireError(f"torn frame: unparsable body ({error})") from None
    if not isinstance(record, dict):
        raise WireError("torn frame: body is not a JSON object")
    return record


def read_frame(stream) -> dict | None:
    """Read one frame from a buffered byte stream.

    Returns ``None`` on clean EOF *between* frames (the peer closed an
    idle connection); raises :class:`WireError` for EOF mid-frame or
    any torn frame.
    """
    line = stream.readline()
    if not line:
        return None
    return decode_frame(line)


# ---------------------------------------------------------------------------
# Task vocabulary: the two pure functions the engine ever submits.
# ---------------------------------------------------------------------------


def estimate_task(
    method_name: str,
    system: SystemModel,
    mc: MonteCarloConfig,
    reference: str,
) -> MTTFEstimate:
    """Run one estimate in a worker (top-level: picklable and shippable).

    The worker rebuilds a cache-free :class:`MethodConfig`; caching
    happens only on the coordinator so the shared cache needs no
    cross-process coordination.
    """
    config = MethodConfig(mc=mc, reference=reference, cache=None)
    return registry.get(method_name).estimate(system, config)


def encode_task(fn, args: tuple) -> dict:
    """Translate one engine submission into its wire request.

    Only the engine's two task kinds have wire forms; anything else
    (e.g. a thread-path closure) cannot leave the process and is a
    configuration error.
    """
    if fn is _kernel.run_plan_chunks:
        key, plan, jobs = args
        return {
            "op": "plan-chunks",
            "key": key,
            "plan": None if plan is None else plan.to_dict(),
            "jobs": [
                [index, mc_config_to_dict(cfg)] for index, cfg in jobs
            ],
        }
    if fn is estimate_task:
        method_name, system, mc, reference = args
        return {
            "op": "estimate",
            "method": method_name,
            "system": system.to_dict(),
            "mc": mc_config_to_dict(mc),
            "reference": reference,
        }
    raise ConfigurationError(
        "the remote executor cannot ship task "
        f"{getattr(fn, '__name__', fn)!r}; only plan-chunk batches "
        "and method estimates have wire forms"
    )


def perform_task(request: dict) -> dict:
    """Execute one wire request worker-side and build its reply.

    Shared by the ``repro-worker`` daemon and the loopback tests.
    ``plan-chunks`` delegates to :func:`~repro.core.kernel.run_plan_chunks`
    verbatim, so a long-lived daemon keeps its hydrated plan cache
    across jobs and the PLAN_MISS→resubmit protocol works unchanged.
    Raises :class:`WireError` for protocol-level faults (unknown op,
    schema mismatch) — the server drops the connection for those.
    """
    op = request.get("op")
    if op == "plan-chunks":
        plan = request["plan"]
        if plan is not None:
            plan = _kernel.SamplingPlan.from_dict(plan)
        jobs = [
            (int(index), mc_config_from_dict(cfg))
            for index, cfg in request["jobs"]
        ]
        status, payload = _kernel.run_plan_chunks(
            request["key"], plan, jobs
        )
        if status == _kernel.PLAN_MISS:
            return {"op": op, "status": _kernel.PLAN_MISS, "key": payload}
        return {
            "op": op,
            "status": _kernel.PLAN_OK,
            "pairs": [
                [index, [m.count, m.mean, m.m2]] for index, m in payload
            ],
        }
    if op == "estimate":
        estimate = estimate_task(
            request["method"],
            SystemModel.from_dict(request["system"]),
            mc_config_from_dict(request["mc"]),
            request["reference"],
        )
        return {"op": op, "estimate": estimate.to_dict()}
    if op == "hello":
        schema = request.get("schema")
        if schema != WIRE_SCHEMA:
            raise WireError(
                f"executor wire schema mismatch: coordinator speaks "
                f"{schema!r}, worker speaks {WIRE_SCHEMA!r}"
            )
        return {
            "op": "hello",
            "schema": WIRE_SCHEMA,
            "pid": os.getpid(),
            "cpu_count": os.cpu_count() or 1,
        }
    raise WireError(f"unknown request op {op!r}")


def _moments(triple) -> SampleMoments:
    count, mean, m2 = triple
    return SampleMoments(int(count), float(mean), float(m2))


def decode_result(op: str, reply: dict):
    """Translate one wire reply back into the submitted task's result."""
    if op == "plan-chunks":
        if reply.get("status") == _kernel.PLAN_MISS:
            return (_kernel.PLAN_MISS, reply["key"])
        return (
            _kernel.PLAN_OK,
            [(int(index), _moments(m)) for index, m in reply["pairs"]],
        )
    if op == "estimate":
        return MTTFEstimate.from_dict(reply["estimate"])
    raise WireError(f"unknown reply op {op!r}")


# ---------------------------------------------------------------------------
# The backend protocol and registry.
# ---------------------------------------------------------------------------


class ChunkExecutor:
    """One fan-out backend for the batch engine.

    A backend owns two decisions: where submitted tasks run
    (:meth:`pool` returns a context-managed pool with the
    ``submit(fn, *args) -> Future`` surface of
    :mod:`concurrent.futures`), and whether those tasks share the
    coordinator's memory (:attr:`shares_memory`). Backends that do not
    share memory receive only the two wire-encodable task kinds and
    the engine memoizes per-component work parent-side, exactly as the
    process pool always required. Nothing else may vary: results are
    folded on the coordinator in chunk-index order, so every conforming
    backend is byte-identical by construction.
    """

    #: Registry spelling (CLI ``--executor`` value).
    name: str = "abstract"

    #: Whether pool tasks can touch coordinator memory (closures,
    #: shared caches). ``False`` routes the engine down the
    #: ship-everything path used by process pools.
    shares_memory: bool = True

    def auto_workers(self) -> int:
        """Worker count ``--workers auto`` resolves to for this backend."""
        return os.cpu_count() or 1

    def pool(self, workers: int):
        """A fresh context-managed pool with ``submit(fn, *args)``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ThreadExecutor(ChunkExecutor):
    """Thread pool: shared memory, GIL-released NumPy sampling."""

    name = "thread"
    shares_memory = True

    def pool(self, workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=workers)


class ProcessExecutor(ChunkExecutor):
    """Process pool: single-host true parallelism."""

    name = "process"
    shares_memory = False

    def pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers)


_BACKENDS: dict[str, ChunkExecutor] = {}


def register_executor(backend: ChunkExecutor) -> ChunkExecutor:
    """Register ``backend`` under its :attr:`~ChunkExecutor.name`.

    Registration is the single source of truth: it legalizes the
    spelling for ``evaluate_design_space(executor=...)``, the CLI, and
    ``repro-serve`` alike. Re-registering a name replaces the backend.
    """
    if not isinstance(backend, ChunkExecutor):
        raise ConfigurationError(
            "an executor backend must be a ChunkExecutor instance, got "
            f"{backend!r}"
        )
    name = backend.name
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"executor backend {backend!r} needs a non-empty string name"
        )
    _BACKENDS[name] = backend
    return backend


def unregister_executor(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _BACKENDS.pop(name, None)


def available_executors() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_executor(executor) -> ChunkExecutor:
    """Resolve an ``executor=`` knob to its backend.

    Accepts a registered name or a :class:`ChunkExecutor` instance
    (e.g. a :class:`RemoteExecutor` built with explicit addresses).
    """
    if isinstance(executor, ChunkExecutor):
        return executor
    backend = _BACKENDS.get(executor)
    if backend is None:
        raise ConfigurationError(
            f"unknown executor {executor!r}; registered backends: "
            f"{available_executors()} (or pass a ChunkExecutor instance)"
        )
    return backend


def executor_name(executor) -> str:
    """The display/registry spelling of an ``executor=`` knob value."""
    return executor if isinstance(executor, str) else executor.name


# ---------------------------------------------------------------------------
# The remote backend: a TCP worker fleet.
# ---------------------------------------------------------------------------


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; loud on anything else."""
    host, sep, port = str(text).strip().rpartition(":")
    try:
        number = int(port)
        if not sep or not host or not (0 < number < 65536):
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"bad worker address {text!r}: expected host:port"
        ) from None
    return host, number


class RemoteExecutor(ChunkExecutor):
    """Fan chunk batches out over TCP to ``repro-worker`` daemons.

    ``workers`` is a sequence of ``"host:port"`` addresses; repeat an
    address to open more than one channel to the same daemon. The
    registry holds an addressless instance so the ``"remote"`` spelling
    validates everywhere; using it without addresses fails with
    instructions rather than a hang.
    """

    name = "remote"
    shares_memory = False

    def __init__(self, workers: Sequence[str] = ()) -> None:
        self.addresses = tuple(parse_address(item) for item in workers)

    def _require_addresses(self) -> None:
        if not self.addresses:
            raise ConfigurationError(
                "the remote executor needs worker addresses: pass "
                "--workers host:port[,host:port...] on the CLI or "
                "construct RemoteExecutor(['host:port', ...])"
            )

    def auto_workers(self) -> int:
        self._require_addresses()
        return len(self.addresses)

    def pool(self, workers: int) -> "_RemotePool":
        self._require_addresses()
        return _RemotePool(self.addresses)


def _resolve(future: Future, value) -> None:
    try:
        future.set_result(value)
    except InvalidStateError:
        pass  # cancelled straggler; the engine already moved on


def _fail(future: Future, error: BaseException) -> None:
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


class _RemoteTask:
    """One submitted task: its future, wire request, and op kind."""

    __slots__ = ("future", "request", "op", "started")

    def __init__(self, future: Future, request: dict) -> None:
        self.future = future
        self.request = request
        self.op = request["op"]
        self.started = False


class _Channel:
    """One coordinator connection to one worker daemon.

    A dedicated reader thread resolves replies by request id; sends are
    serialized under a lock so every frame is one contiguous write.
    Any fault — torn frame, socket error, EOF with work outstanding —
    kills the whole channel, and the pool redistributes its in-flight
    tasks to the surviving channels.
    """

    def __init__(self, pool: "_RemotePool", address: tuple[str, int]):
        self.pool = pool
        self.address = address
        self.alive = True
        self.lock = threading.Lock()
        self.inflight: dict[int, _RemoteTask] = {}
        host, port = address
        try:
            self.sock = socket.create_connection(
                (host, port), timeout=CONNECT_TIMEOUT
            )
        except OSError as error:
            raise EstimationError(
                f"cannot reach repro-worker at {host}:{port}: {error}"
            ) from None
        self.sock.settimeout(None)
        self.stream = self.sock.makefile("rb")
        self._handshake()
        self.reader = threading.Thread(
            target=self._read_loop,
            daemon=True,
            name=f"repro-executor-{host}:{port}",
        )
        self.reader.start()

    def _handshake(self) -> None:
        host, port = self.address
        try:
            self.sock.sendall(
                encode_frame({"op": "hello", "schema": WIRE_SCHEMA})
            )
            reply = read_frame(self.stream)
        except (OSError, WireError) as error:
            raise EstimationError(
                f"handshake with repro-worker {host}:{port} failed: "
                f"{error}"
            ) from None
        if reply is None:
            raise EstimationError(
                f"repro-worker {host}:{port} closed during handshake"
            )
        if reply.get("op") == "error":
            raise EstimationError(
                f"repro-worker {host}:{port} refused the handshake: "
                f"{reply.get('error')}"
            )
        if reply.get("schema") != WIRE_SCHEMA:
            raise EstimationError(
                f"repro-worker {host}:{port} speaks "
                f"{reply.get('schema')!r}, coordinator speaks "
                f"{WIRE_SCHEMA!r}"
            )

    def send(self, task_id: int, task: _RemoteTask) -> bool:
        """Ship one task; ``False`` if the channel is/just went dead."""
        frame = encode_frame({**task.request, "id": task_id})
        with self.lock:
            if not self.alive:
                return False
            self.inflight[task_id] = task
            try:
                self.sock.sendall(frame)
            except OSError:
                # The reader will notice the broken socket and fail the
                # channel; reclaim this task so it is not double-routed.
                self.inflight.pop(task_id, None)
                return False
        return True

    def _read_loop(self) -> None:
        fault = None
        try:
            while True:
                reply = read_frame(self.stream)
                if reply is None:
                    break
                self._resolve_reply(reply)
        except (WireError, OSError) as error:
            fault = error
        self.pool._channel_died(self, fault)

    def _resolve_reply(self, reply: dict) -> None:
        try:
            task_id = int(reply.get("id"))
        except (TypeError, ValueError):
            raise WireError(f"reply without request id: {reply!r}")
        with self.lock:
            task = self.inflight.pop(task_id, None)
        if task is None:
            return  # already failed over or cancelled
        host, port = self.address
        if reply.get("op") == "error":
            _fail(
                task.future,
                EstimationError(
                    f"repro-worker {host}:{port} failed {task.op!r}: "
                    f"{reply.get('error')}"
                ),
            )
            return
        try:
            _resolve(task.future, decode_result(task.op, reply))
        except WireError as error:
            _fail(task.future, EstimationError(
                f"bad reply from repro-worker {host}:{port}: {error}"
            ))

    def reap(self) -> list[_RemoteTask]:
        """Mark dead and return the tasks that were in flight."""
        with self.lock:
            self.alive = False
            orphans = list(self.inflight.values())
            self.inflight.clear()
        return orphans

    def close(self) -> None:
        with self.lock:
            self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _RemotePool:
    """The ``submit``-shaped pool over a fleet of worker channels.

    Round-robin dispatch over live channels; a channel death fails over
    its outstanding tasks to the survivors (or fails their futures with
    :class:`~repro.errors.EstimationError` when none remain). Futures
    are plain :class:`concurrent.futures.Future` objects, so the
    engine's ``wait``/``as_completed``/``cancel`` logic — including
    early-stop cancellation of stragglers — works unchanged.
    """

    def __init__(self, addresses: Sequence[tuple[str, int]]):
        self._lock = threading.Lock()
        self._closed = False
        self._next_id = 0
        self._rr = 0
        self._channels: list[_Channel] = []
        try:
            for address in addresses:
                self._channels.append(_Channel(self, address))
        except BaseException:
            self.shutdown()
            raise

    # -- dispatch ----------------------------------------------------------

    def submit(self, fn, *args) -> Future:
        request = encode_task(fn, args)
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "cannot submit to a shut-down remote executor pool"
                )
        self._dispatch(_RemoteTask(future, request))
        return future

    def _dispatch(self, task: _RemoteTask) -> None:
        if not task.started:
            # Futures left PENDING are cancellable, but only an
            # executor calling set_running_or_notify_cancel ever moves
            # them to the CANCELLED_AND_NOTIFIED state that
            # concurrent.futures.wait counts as done — skipping this
            # would let a cancelled straggler wedge the scheduler's
            # wait() forever. RUNNING also matches the semantics: once
            # dispatched, the work is on the wire and cannot be
            # recalled, exactly like a running local task.
            if not task.future.set_running_or_notify_cancel():
                return  # cancelled before dispatch; waiters notified
            task.started = True
        while True:
            with self._lock:
                live = [c for c in self._channels if c.alive]
                if live:
                    channel = live[self._rr % len(live)]
                    self._rr += 1
                    task_id = self._next_id
                    self._next_id += 1
            if not live:
                fleet = ", ".join(
                    f"{host}:{port}" for host, port in (
                        c.address for c in self._channels
                    )
                )
                _fail(task.future, EstimationError(
                    f"no live repro-workers left for {task.op!r} "
                    f"(fleet: {fleet})"
                ))
                return
            if channel.send(task_id, task):
                return
            # That channel died under us; try the next survivor.

    def _channel_died(self, channel: _Channel, fault) -> None:
        orphans = channel.reap()
        channel.close()
        with self._lock:
            closed = self._closed
        for task in orphans:
            if task.future.cancelled():
                continue
            if closed:
                _fail(task.future, EstimationError(
                    "remote executor pool shut down with work in flight"
                ))
            else:
                # Mid-batch worker death: resubmit to the survivors.
                self._dispatch(task)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            channels = list(self._channels)
        for channel in channels:
            channel.close()
        if wait:
            for channel in channels:
                reader = getattr(channel, "reader", None)
                if reader is not None:
                    reader.join(timeout=CONNECT_TIMEOUT)

    def __enter__(self) -> "_RemotePool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


register_executor(ThreadExecutor())
register_executor(ProcessExecutor())
register_executor(RemoteExecutor())


# ---------------------------------------------------------------------------
# CLI/knob resolution helpers.
# ---------------------------------------------------------------------------


def parse_workers(text: str):
    """Parse a CLI ``--workers`` value.

    Returns an ``int``, the string ``"auto"``, or a tuple of
    ``"host:port"`` strings (which implies the remote backend).
    """
    value = str(text).strip()
    if value.lower() == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        pass
    addresses = tuple(
        part.strip() for part in value.split(",") if part.strip()
    )
    if not addresses or not all(":" in item for item in addresses):
        raise ConfigurationError(
            f"bad --workers value {text!r}: expected an integer, "
            "'auto', or a comma-separated host:port list"
        )
    for item in addresses:
        parse_address(item)
    return addresses


def resolve_workers(workers, backend: ChunkExecutor) -> int:
    """Resolve a ``workers`` knob to a concrete positive count.

    ``"auto"`` (or ``None``) asks the backend: cpu-count for local
    pools — on a 1-CPU host that resolves to 1, a one-worker pool — and
    the fleet size for a remote executor.
    """
    if workers is None or workers == "auto":
        return backend.auto_workers()
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ConfigurationError(
            f"workers must be a positive integer or 'auto', got "
            f"{workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(
            f"workers must be a positive integer, got {workers}"
        )
    return workers


def executor_from_cli(executor: str | None, workers):
    """Map CLI ``(--executor, parsed --workers)`` to ``(backend, count)``.

    ``executor=None`` means the flag was not given: it resolves to the
    thread backend, unless ``workers`` is an address list — worker
    *addresses* imply the remote backend. An explicitly local executor
    combined with a fleet, or the remote backend without addresses,
    fails loudly at argument time.
    """
    if isinstance(workers, tuple):
        if executor not in (None, "remote"):
            raise ConfigurationError(
                f"--workers {','.join(workers)!r} names a worker fleet, "
                f"which implies --executor remote (got {executor!r})"
            )
        backend = RemoteExecutor(workers)
        return backend, backend.auto_workers()
    backend = get_executor("thread" if executor is None else executor)
    if isinstance(backend, RemoteExecutor):
        backend._require_addresses()
    return backend, resolve_workers(workers, backend)
