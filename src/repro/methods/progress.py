"""Per-point progress events emitted by the batch engine.

The streaming engine (:func:`repro.methods.batch.evaluate_design_space`)
reports its work through a caller-supplied callback so long sweeps are
observable while they run — which grid point is being estimated, how
many trial chunks have merged, the precision reached so far, whether an
adaptive run stopped early, and when a method estimate was pipelined
into the stream. The CLI's
progress reporter (:mod:`repro.harness.runner`) is one consumer; tests
and notebook monitors are others.

Event vocabulary
----------------

Every event the engine can emit carries one of these ``kind`` strings
(the module-level constants; ``docs/SCHEDULER.md`` and DESIGN.md carry
the same table):

``"point-start"``
    Reference estimation of one grid point begins. Carries
    ``total_chunks`` when the reference runs as a streamed chunk plan.
``"chunk"``
    One more reference trial chunk folded into the point's running
    moments. Carries ``merged_chunks``/``total_chunks``, ``trials``,
    and the achieved ``rel_stderr``.
``"point-done"``
    The point's reference estimate is final. Carries the final
    ``trials``; ``stopped_early`` when a stopping rule ended the point
    before its full chunk plan; ``cached`` when the estimate replayed
    from the cache and no sampling ran.
``"method-start"`` / ``"method-done"``
    One method estimate entered / left the worker pool once its
    point's reference was final. Carry ``method``; done additionally
    carries ``trials`` and ``cached``. Cached method estimates, and
    per-component estimates a memory-isolated backend computes in the
    parent, emit only ``"method-done"``.
``"prewarm"``
    The one-shot disk-cache prewarm a sharded sweep performs before
    scheduling any work. Run-level label; carries ``warmed_entries``.

Ordering guarantees
-------------------

Per grid point the lifecycle order is ``point-start`` -> ``chunk``* ->
``point-done`` -> (``method-start`` -> ``method-done``)*;
``merged_chunks`` and
``trials`` are non-decreasing along it, and no two events for one
point are ever emitted concurrently. *Across* points the interleaving
follows the schedule (and so may vary with workers and executors) —
only the per-point order and a run-initial ``prewarm`` (when a sharded
sweep has a disk cache attached) are contractual. Events
report the engine's deterministic fold state, so the *numbers* carried
by each point's event sequence are bit-identical across worker counts
and executors even though the global interleaving is not.

Events are plain frozen dataclasses; the callback runs inline on the
caller's scheduling thread, so consumers should be cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Event kinds, in lifecycle order for one grid point.
POINT_START = "point-start"
CHUNK_MERGED = "chunk"
POINT_DONE = "point-done"

#: Pipelined-scheduler events: one method estimate entering/leaving the
#: pool, and the one-shot disk-cache prewarm a sharded sweep performs
#: before scheduling work.
METHOD_STARTED = "method-start"
METHOD_DONE = "method-done"
CACHE_PREWARMED = "prewarm"


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of the engine's work on one grid point.

    Attributes
    ----------
    label:
        The grid point's system label (sweep-wide events such as
        ``"prewarm"`` use a run-level label instead).
    kind:
        One of the event-vocabulary strings above:
        ``"point-start"`` (reference estimation begins),
        ``"chunk"`` (one more trial chunk folded into the running
        moments), ``"point-done"`` (reference estimate final),
        ``"method-start"`` / ``"method-done"`` (one pipelined method
        estimate entered / left the pool), or ``"prewarm"``
        (shard-aware disk-cache prewarm completed before scheduling).
    merged_chunks / total_chunks:
        Streaming position within the point's chunk plan. ``0/0`` for
        unchunked or non-stochastic references. ``merged_chunks`` is
        always the accumulator's *fold* count — chunks whose futures
        were cancelled (or arrived after the point finalized) are never
        counted.
    trials:
        Trials merged so far (the final trial count on ``point-done``;
        the estimate's trial count on ``method-done``).
    rel_stderr:
        Achieved relative standard error of the running estimate, or
        ``None`` while undefined (no finite moments yet).
    stopped_early:
        On ``point-done``: True when a stopping rule ended the point
        before its full chunk plan.
    cached:
        On ``point-done`` / ``method-done``: True when the estimate
        came from the cache and no sampling ran at all.
    method:
        On ``method-start`` / ``method-done``: the method name.
    warmed_entries:
        On ``prewarm``: disk entries pulled into the in-memory cache
        before any work was scheduled.
    """

    label: str
    kind: str
    merged_chunks: int = 0
    total_chunks: int = 0
    trials: int = 0
    rel_stderr: float | None = None
    stopped_early: bool = False
    cached: bool = False
    method: str | None = None
    warmed_entries: int = 0


#: The callback shape ``evaluate_design_space(progress=...)`` accepts.
ProgressCallback = Callable[[ProgressEvent], None]


def relative_stderr(moments) -> float | None:
    """Achieved relative standard error of merged chunk moments."""
    if moments is None:
        return None
    return moments.rel_stderr
