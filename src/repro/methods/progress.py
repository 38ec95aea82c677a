"""Per-point progress events emitted by the batch engine.

The engine (:func:`repro.methods.batch.evaluate_design_space`) reports
its work through a caller-supplied callback so long sweeps are
observable while they run — which grid point is being estimated, when
its reference is final, and when a method estimate was pipelined into
the pool. The CLI's progress reporter (:mod:`repro.harness.runner`) is
one consumer; tests and notebook monitors are others.

Event vocabulary
----------------

Every event the engine can emit carries one of these ``kind`` strings
(the module-level constants; ``docs/SCHEDULER.md`` and DESIGN.md carry
the same table):

``"point-start"``
    Reference estimation of one grid point begins.
``"point-done"``
    The point's reference estimate is final. Carries its ``trials``;
    ``cached`` when the estimate replayed from the cache and no
    sampling ran.
``"method-start"`` / ``"method-done"``
    One method estimate entered / left the worker pool once its
    point's reference was final. Carry ``method``; done additionally
    carries ``trials`` and ``cached``. Cached method estimates emit
    only ``"method-done"``.

Ordering guarantees
-------------------

Per grid point the lifecycle order is ``point-start`` ->
``point-done`` -> (``method-start`` -> ``method-done``)*, and no two
events for one point are ever emitted concurrently. *Across* points
the interleaving follows the schedule (and so may vary with the worker
count) — only the per-point order is contractual. The numbers each
event carries are bit-identical across worker counts even though the
global interleaving is not.

Events are plain frozen dataclasses; the callback runs inline on the
caller's scheduling thread, so consumers should be cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Event kinds, in lifecycle order for one grid point.
POINT_START = "point-start"
POINT_DONE = "point-done"

#: Pipelined-scheduler events: one method estimate entering/leaving the
#: pool.
METHOD_STARTED = "method-start"
METHOD_DONE = "method-done"


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of the engine's work on one grid point.

    Attributes
    ----------
    label:
        The grid point's system label.
    kind:
        One of the event-vocabulary strings above:
        ``"point-start"`` (reference estimation begins),
        ``"point-done"`` (reference estimate final), or
        ``"method-start"`` / ``"method-done"`` (one pipelined method
        estimate entered / left the pool).
    trials:
        The final trial count on ``point-done``; the estimate's trial
        count on ``method-done``.
    cached:
        On ``point-done`` / ``method-done``: True when the estimate
        came from the cache and no sampling ran at all.
    method:
        On ``method-start`` / ``method-done``: the method name.
    """

    label: str
    kind: str
    trials: int = 0
    cached: bool = False
    method: str | None = None


#: The callback shape ``evaluate_design_space(progress=...)`` accepts.
ProgressCallback = Callable[[ProgressEvent], None]
