"""``repro-worker``: the TCP chunk-worker daemon behind ``--executor remote``.

One worker serves any number of coordinator connections, each on its
own thread; every connection speaks the sealed-frame request/reply
protocol from :mod:`repro.methods.executors` (``repro.executor/v1``).
Task execution delegates to :func:`~repro.methods.executors.perform_task`,
which routes ``plan-chunks`` through the process-global
:func:`~repro.core.kernel.run_plan_chunks` — so a long-lived daemon
hydrates each :class:`~repro.core.kernel.SamplingPlan` once (on the
first ``PLAN_MISS`` resubmission) and serves every later batch for that
fingerprint from its plan cache, across jobs and coordinators.

Fault discipline mirrors the cache files: a torn or unparsable
inbound frame drops that connection loudly (never a guessed-at reply);
an estimation error inside a task travels back as an ``error`` reply
and fails only that task's future. Determinism needs no cooperation
from this module at all — workers return raw ``(chunk_index, moments)``
pairs and the coordinator folds them in strict index order.

Run it::

    PYTHONPATH=src python -m repro.methods.worker --port 8421
    # or, installed: repro-worker --port 8421

and point any sweep at the fleet::

    repro-experiments fig5 --executor remote \\
        --workers hostA:8421,hostB:8421 ...
"""

from __future__ import annotations

import argparse
import socket
import threading

from ..errors import WireError
from .executors import encode_frame, perform_task, read_frame


class WorkerServer:
    """A listening worker: thread-per-connection, sealed-frame protocol.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`). ``fail_after=N`` is a fault-injection knob for the
    resubmission tests: the server handles N work requests normally,
    then crashes the whole daemon — listener and every connection —
    without replying, exactly like a worker dying mid-batch.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        fail_after: int | None = None,
    ) -> None:
        self.host = host
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind((host, port))
        self._listener.listen()
        self.port = self._listener.getsockname()[1]
        self._fail_after = fail_after
        self._handled = 0
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._closed = False

    @property
    def address(self) -> str:
        """The ``host:port`` spelling ``--workers`` accepts."""
        return f"{self.host}:{self.port}"

    # -- serving -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close` (blocking)."""
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                daemon=True,
                name=f"repro-worker-conn-{self.port}",
            ).start()

    def start(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (for tests)."""
        thread = threading.Thread(
            target=self.serve_forever,
            daemon=True,
            name=f"repro-worker-{self.port}",
        )
        thread.start()
        return thread

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rb")
        try:
            while True:
                frame = read_frame(stream)
                if frame is None:
                    return  # coordinator closed cleanly
                if self._crash_now(frame):
                    return  # simulated mid-batch death: no reply
                try:
                    reply = perform_task(frame)
                except WireError as error:
                    # Protocol fault (bad schema, unknown op): tell the
                    # coordinator once, then drop the connection.
                    conn.sendall(encode_frame({
                        "op": "error",
                        "error": str(error),
                        "id": frame.get("id"),
                    }))
                    return
                except Exception as error:
                    reply = {
                        "op": "error",
                        "error": f"{type(error).__name__}: {error}",
                    }
                reply["id"] = frame.get("id")
                conn.sendall(encode_frame(reply))
        except WireError:
            # Torn inbound frame: the stream cannot be trusted; drop the
            # connection without replying (the sealed-record discipline).
            return
        except OSError:
            return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                stream.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _crash_now(self, frame: dict) -> bool:
        """Apply the ``fail_after`` fault-injection budget."""
        if self._fail_after is None or frame.get("op") == "hello":
            return False
        with self._lock:
            self._handled += 1
            crash = self._handled > self._fail_after
        if crash:
            self.close()
        return crash

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and sever every live connection."""
        with self._lock:
            self._closed = True
            connections = list(self._connections)
            self._connections.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


class BackgroundWorker:
    """A live in-process worker daemon (context manager).

    The loopback harness for tests and benchmarks::

        with BackgroundWorker() as worker:
            backend = RemoteExecutor([worker.address])
            ...

    Note the loopback worker shares the coordinator process's plan
    cache, so exercising the PLAN_MISS path requires a raw-socket
    request with an unknown key (see ``tests/test_executor_protocol.py``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        fail_after: int | None = None,
    ) -> None:
        self.server = WorkerServer(host, port, fail_after=fail_after)

    @property
    def address(self) -> str:
        return self.server.address

    def __enter__(self) -> "BackgroundWorker":
        self.server.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Serve Monte-Carlo chunk batches to remote coordinators "
            "(--executor remote)."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8421,
        help="port to listen on; 0 picks an ephemeral port "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    server = WorkerServer(args.host, args.port)
    print(f"repro-worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(main())
