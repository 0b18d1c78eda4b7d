"""The synthesis service's persistent solver workers.

Both are the portfolio's solver worker (:mod:`repro.portfolio.worker`,
lifecycle in ``docs/robustness.md``) plus one blocking ``solve()``:
start the request as a job, then drain its frames until the result.
:class:`ServiceWorker` is a persistent process (SIGUSR1 cancels the
solve in flight); :class:`InlineWorker` solves in the calling thread,
for deterministic tests, benchmarks, and sandboxes without fork.

``solve()`` raises :class:`~repro.portfolio.worker.WorkerCrashed` when
the worker died mid-request, and
:class:`~repro.portfolio.worker.WorkerStalled` — after reaping it — when
nothing came back by the deadline plus grace.  The caller owns retries
and calls ``restart()``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..portfolio import worker as solver
from ..portfolio.frames import KIND_HEARTBEAT, KIND_RESULT
from ..portfolio.strategies import Strategy
from ..portfolio.worker import WorkerStalled
from .protocol import schedules_to_wire

#: Frame poll interval while blocking for a result (seconds).
_POLL = 0.05

#: Extra parent-side slack past a request deadline before a silent
#: worker is declared stalled and reaped: the worker's interrupt thread
#: stops the solve at the deadline, but the engine only honors it at a
#: conflict boundary, so give the solve a moment to unwind and report.
_DEADLINE_SLACK = 1.5

#: Strategy name of every service job (heartbeat frames, engine tag).
_NAME = "service"


def _solve(worker, request_id: str, problem, options,
           deadline: Optional[float] = None,
           on_heartbeat: Optional[Callable[[dict], None]] = None,
           ) -> Dict[str, object]:
    """Start one request on ``worker`` and block for its payload.

    ``deadline`` is relative seconds from now; the payload's schedules
    come back in wire form.
    """
    worker.start(solver.Job(problem, Strategy(_NAME, options),
                            export_knowledge=True, timeout=deadline))
    hard = (time.perf_counter() + deadline + worker.policy.kill_grace
            + _DEADLINE_SLACK if deadline is not None else None)
    while True:
        frame = worker.poll(_POLL)
        if frame is None:
            if hard is not None and time.perf_counter() >= hard:
                worker.close()
                raise WorkerStalled(f"worker {worker.name} stalled past "
                                    f"the deadline of {request_id}")
            continue
        kind = frame.get("kind")
        if kind == KIND_RESULT:
            payload = frame["payload"]
            payload["schedules"] = schedules_to_wire(
                payload.get("schedules") or {})
            return payload
        if kind == KIND_HEARTBEAT and on_heartbeat is not None:
            on_heartbeat(frame)


class ServiceWorker(solver.ProcessWorker):
    """A persistent solver process serving one request at a time."""

    process_prefix = "service-worker"
    # Both are bound on this class, not just inherited, so a tracer can
    # wrap the service's solves and restarts by class attribute.
    solve = _solve
    restart = solver.ProcessWorker.restart


class InlineWorker(solver.InlineWorker):
    """The in-thread twin of :class:`ServiceWorker`."""

    solve = _solve
