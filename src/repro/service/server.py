"""Service composition and the ``repro-serve`` console entry point.

:class:`AnalysisService` wires the pieces together — cache (built by
:meth:`~repro.methods.base.ComponentCache.at`, the same cache-path rule
the CLI uses), :class:`~repro.service.quota.TrialQuota`,
:class:`~repro.service.jobs.JobManager`, and the asyncio HTTP layer —
into one object that can be started inside any event loop.
:class:`BackgroundServer` runs that object on a daemon thread with its
own loop, which is how tests, the benchmark suite, and the example
embed a real server in-process and talk to it over real sockets.
"""

from __future__ import annotations

import argparse
import asyncio
import threading

from ..errors import ConfigurationError
from ..methods.base import ComponentCache
from ..methods.batch import EXECUTORS
from .http import ApiHandler
from .jobs import JobManager
from .quota import TrialQuota


class AnalysisService:
    """The reliability-analysis server: manager + HTTP, one per process.

    ``port=0`` binds an ephemeral port (the default for tests); read
    :attr:`address` after :meth:`start`. ``quota_trials`` caps the
    total Monte-Carlo trial pool split fairly across tenants
    (``None`` = unmetered). ``workers`` sizes the job worker pool;
    ``engine_workers``/``engine_executor`` (``"thread"`` or
    ``"process"``) are passed through to ``evaluate_design_space`` and
    never affect the numbers.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_dir: str | None = None,
        cache: ComponentCache | None = None,
        workers: int = 2,
        engine_workers: int = 1,
        engine_executor="thread",
        quota_trials: int | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = JobManager(
            cache if cache is not None else ComponentCache.at(cache_dir),
            workers=workers,
            engine_workers=engine_workers,
            engine_executor=engine_executor,
            quota=TrialQuota(quota_trials),
        )
        self.handler = ApiHandler(self.manager)
        self._server: asyncio.base_events.Server | None = None

    @property
    def address(self) -> str:
        """``http://host:port`` once the listening socket is bound."""
        if self._server is None:
            raise RuntimeError("service not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"http://{host}:{port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self.handler.handle_connection, self.host, self.port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class BackgroundServer:
    """A live :class:`AnalysisService` on a daemon thread (context mgr).

    ::

        with BackgroundServer(cache_dir=tmp) as server:
            client = ServiceClient(server.address)
            ...

    The thread owns a private event loop; ``__exit__`` stops the
    listening socket, drains the worker pool, and joins the thread, so
    tests cannot leak servers. The in-process handle ``.service`` stays
    accessible for white-box assertions (dedup counters, cache stats).
    """

    def __init__(self, **service_kwargs) -> None:
        self.service = AnalysisService(**service_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def address(self) -> str:
        return self.service.address

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.service.start())
        self._started.set()
        self._loop.run_forever()
        # Cancel whatever the stop left in flight, then close the loop.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.run_until_complete(self.service.stop())
        self._loop.close()

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("analysis server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.service.manager.close()


def main(argv: list[str] | None = None) -> int:
    """``repro-serve``: run the analysis server until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve the DSN'07 reliability-analysis engine over HTTP: "
            "JSON job submission, SSE progress streaming, request "
            "dedup, per-tenant trial quotas. See docs/SERVICE.md."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8321,
        help="listening port (0 = ephemeral; default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "persistent estimate cache directory shared with the CLI "
            "(default: $REPRO_CACHE_DIR, else memory-only)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent analysis jobs (default %(default)s)",
    )
    parser.add_argument(
        "--engine-workers", type=int, default=1,
        help="evaluate_design_space workers per job (default %(default)s)",
    )
    parser.add_argument(
        "--executor", choices=EXECUTORS, default="thread",
        help="engine executor per job (default %(default)s)",
    )
    parser.add_argument(
        "--quota-trials", type=int, default=None,
        help=(
            "total Monte-Carlo trial pool split fairly across tenants "
            "(default: unmetered)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        service = AnalysisService(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            workers=args.workers,
            engine_workers=args.engine_workers,
            engine_executor=args.executor,
            quota_trials=args.quota_trials,
        )
    except ConfigurationError as error:
        parser.error(str(error))

    async def run() -> None:
        await service.start()
        print(f"repro-serve listening on {service.address}", flush=True)
        await service.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        service.manager.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
