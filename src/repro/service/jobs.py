"""Job lifecycle and the persistent worker pool behind the service.

A :class:`Job` is one admitted :class:`~repro.service.wire.JobSpec`
moving through ``queued -> running -> done`` (or ``failed``), carrying
its buffered progress events and, eventually, its
:class:`~repro.methods.results.ResultSet`. The :class:`JobManager`
owns the queue, a pool of persistent worker threads that execute specs
through the batch engine against **one shared estimate cache**, the
per-tenant :class:`~repro.service.quota.TrialQuota`, and the dedup
index.

Dedup. Jobs are content-addressed by
:attr:`~repro.service.wire.JobSpec.content_fingerprint`. Submitting a
spec whose fingerprint matches a queued, running, or completed job does
not create a second job — the submission *coalesces* onto the existing
one (its ``coalesced`` count increments, the submitting tenant is
recorded, and no quota is charged: the original submitter already paid
for the run everyone now shares). Failed jobs are not coalesce
targets — resubmitting after a failure retries. Since results are pure
functions of the spec, every coalesced submitter receives bytes
identical to what a private run would have produced.

Progress buffering. Workers append each engine
:class:`~repro.methods.progress.ProgressEvent` (as its
:meth:`~repro.methods.progress.ProgressEvent.to_dict` form) to the
job's event list under a :class:`threading.Condition`. SSE handlers —
any number of them, attaching and detaching at any time — replay the
buffer from an offset and block on the condition for more, so a client
that connects late still sees every event and a client that disconnects
affects nothing: the job owns the buffer, not the connection.
"""

from __future__ import annotations

import queue
import threading
from typing import Sequence

from ..methods.base import ComponentCache
from ..methods.batch import check_executor, resolve_workers
from .quota import TrialQuota
from .wire import JobSpec

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


class Job:
    """One admitted analysis job and everything observable about it."""

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.fingerprint = spec.content_fingerprint
        self.state = "queued"
        self.result = None
        self.error: str | None = None
        #: tenants whose submissions this job serves (first = payer).
        self.tenants: list[str] = [spec.tenant]
        #: submissions beyond the first that coalesced onto this job.
        self.coalesced = 0
        self.trial_cost = spec.trial_cost()
        self._events: list[dict] = []
        self._condition = threading.Condition()

    # -- worker side -------------------------------------------------------

    def record_event(self, event) -> None:
        """Engine progress callback: buffer one event, wake listeners."""
        with self._condition:
            self._events.append(event.to_dict())
            self._condition.notify_all()

    def mark_running(self) -> None:
        with self._condition:
            self.state = "running"
            self._condition.notify_all()

    def finish(self, result) -> None:
        with self._condition:
            self.result = result
            self.state = "done"
            self._condition.notify_all()

    def fail(self, error: BaseException) -> None:
        with self._condition:
            self.error = f"{type(error).__name__}: {error}"
            self.state = "failed"
            self._condition.notify_all()

    # -- observer side -----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; True if it did within timeout."""
        with self._condition:
            return self._condition.wait_for(
                lambda: self.finished, timeout=timeout
            )

    def next_events(
        self, start: int, timeout: float = 0.5
    ) -> tuple[list[dict], int, bool]:
        """Buffered events from ``start`` on, blocking briefly for more.

        Returns ``(events, next_start, finished)``. The short timeout
        makes SSE streaming a polling loop that still delivers events
        promptly: each call either returns fresh events, or times out
        empty so the caller can probe the (possibly gone) client
        connection before blocking again.
        """
        with self._condition:
            self._condition.wait_for(
                lambda: len(self._events) > start or self.finished,
                timeout=timeout,
            )
            events = self._events[start:]
            return events, start + len(events), self.finished

    def to_dict(self) -> dict:
        """Job metadata (the ``job`` object of API responses).

        The result payload is deliberately *not* embedded here — the
        server serves ``ResultSet.to_dict()`` under a separate key so
        its bytes stay directly comparable with a local
        ``to_json`` artifact.
        """
        with self._condition:
            return {
                "id": self.id,
                "state": self.state,
                "fingerprint": self.fingerprint,
                "tenant": self.tenants[0],
                "tenants": list(self.tenants),
                "coalesced": self.coalesced,
                "trial_cost": self.trial_cost,
                "events": len(self._events),
                "error": self.error,
            }


class JobManager:
    """Queue, dedup index, quota, and worker pool — the service core.

    ``workers`` persistent threads drain the submission queue; each job
    executes via :meth:`JobSpec.run` with the shared ``cache`` and the
    engine-level ``engine_workers``/``engine_executor`` scaling knobs
    (which, by the engine's determinism invariants, never change the
    numbers). Both knobs are checked here, so a bad one refuses the
    manager instead of failing every job. The manager is fully usable
    without any HTTP in front of it — the server layer is a thin
    translation onto these methods.
    """

    def __init__(
        self,
        cache: ComponentCache | None = None,
        *,
        workers: int = 2,
        engine_workers: int = 1,
        engine_executor="thread",
        quota: TrialQuota | None = None,
    ) -> None:
        self.cache = cache if cache is not None else ComponentCache()
        self.quota = quota if quota is not None else TrialQuota()
        self.engine_workers = resolve_workers(engine_workers)
        self.engine_executor = check_executor(engine_executor)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._by_fingerprint: dict[str, Job] = {}
        self._counter = 0
        self._submissions = 0
        self._coalesced = 0
        self._queue: queue.Queue = queue.Queue()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{i}",
                daemon=True,
            )
            for i in range(max(1, workers))
        ]
        for thread in self._workers:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit a spec; returns ``(job, coalesced)``.

        Coalesced submissions (fingerprint matches a live or completed
        job) are free and return the existing job. Fresh submissions
        are charged ``spec.trial_cost()`` against the tenant's quota
        (:class:`~repro.service.quota.QuotaExceeded` propagates to the
        caller — the server maps it to HTTP 429) and enqueued.
        """
        fingerprint = spec.content_fingerprint
        with self._lock:
            self._submissions += 1
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None and existing.state != "failed":
                existing.coalesced += 1
                if spec.tenant not in existing.tenants:
                    existing.tenants.append(spec.tenant)
                self._coalesced += 1
                return existing, True
            # Charge before the job becomes visible so a denied
            # submission leaves no trace to coalesce against.
            self.quota.charge(spec.tenant, spec.trial_cost())
            self._counter += 1
            job = Job(f"job-{self._counter}", spec)
            self._jobs[job.id] = job
            self._by_fingerprint[fingerprint] = job
        self._queue.put(job)
        return job, False

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> Sequence[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- worker pool -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.mark_running()
            try:
                result = job.spec.run(
                    cache=self.cache,
                    workers=self.engine_workers,
                    executor=self.engine_executor,
                    progress=job.record_event,
                )
            except BaseException as error:  # noqa: BLE001 - job isolation
                job.fail(error)
                # A failed job must not consume the tenant's budget —
                # and must stop shadowing its fingerprint so a retry
                # submission creates a fresh job.
                self.quota.refund(job.spec.tenant, job.trial_cost)
            else:
                job.finish(result)

    def close(self, timeout: float = 10.0) -> None:
        """Stop the worker pool (queued jobs drain first)."""
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=timeout)

    # -- introspection -----------------------------------------------------

    def fleet_snapshot(self) -> dict:
        """The ``GET /v1/fleet`` payload: queue, dedup, cache, quota."""
        with self._lock:
            jobs = list(self._jobs.values())
            submissions = self._submissions
            coalesced = self._coalesced
        states = {state: 0 for state in JOB_STATES}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": len(self._workers),
            "engine": {
                "workers": self.engine_workers,
                "executor": self.engine_executor,
            },
            "jobs": states,
            "submissions": submissions,
            "coalesced": coalesced,
            "cache": self.cache.stats_line(),
            "quota": self.quota.snapshot(),
        }
