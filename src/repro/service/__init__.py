"""Reliability-analysis service: the serving layer over the estimator stack.

The DSN'07 methodology behind :func:`repro.analyze` and
:func:`repro.evaluate_design_space` is deterministic and cache-backed —
but until this package it could only run as a one-shot CLI process.
:mod:`repro.service` turns it into a long-lived analysis server
(console entry point ``repro-serve``):

* an **asyncio HTTP/JSON API** built on stdlib ``asyncio`` streams — no
  framework, no new runtime dependencies (:mod:`repro.service.http`);
* a **job manager** with a persistent worker pool that reuses the batch
  engine and one shared, optionally disk-backed estimate cache
  (:mod:`repro.service.jobs`);
* **request dedup**: jobs are content-addressed by the same fingerprint
  discipline the estimate caches use, so concurrent submissions of the
  same system-model + method/precision spec coalesce onto one running
  estimation (observable in the response metadata);
* **per-tenant trial quotas** generalizing the engine's
  :func:`~repro.core.montecarlo.allocate_grants` budget policy into an
  admission-control rate limiter (:mod:`repro.service.quota`);
* **SSE progress streaming**: the engine's
  :class:`~repro.methods.progress.ProgressEvent` stream becomes a live
  ``text/event-stream`` client protocol, and ``GET /v1/fleet`` exposes
  queue/cache/quota state for dashboards.

Results served over HTTP are **bit-identical** to the direct in-process
call with the same spec — the server adds scheduling, never numerics.
See ``docs/SERVICE.md`` for the API reference and wire schemas.
"""

from .client import ServiceClient
from .jobs import Job, JobManager
from .quota import QuotaDecision, QuotaExceeded, TrialQuota
from .server import AnalysisService, BackgroundServer
from .wire import (
    JOB_SCHEMA,
    JobSpec,
    mc_config_from_dict,
    mc_config_to_dict,
    stopping_rule_from_dict,
    stopping_rule_to_dict,
)

__all__ = [
    "AnalysisService",
    "BackgroundServer",
    "Job",
    "JobManager",
    "JOB_SCHEMA",
    "JobSpec",
    "QuotaDecision",
    "QuotaExceeded",
    "ServiceClient",
    "TrialQuota",
    "mc_config_from_dict",
    "mc_config_to_dict",
    "stopping_rule_from_dict",
    "stopping_rule_to_dict",
]
