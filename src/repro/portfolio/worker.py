"""One supervised solver worker under the portfolio race and the service.

Both front ends run ``core.solve`` through the same three parts:

* **The solve core** (:func:`execute_strategy`) builds the session the
  way ``core.solve`` does — through the patchable engine factory
  ``core.synthesizer.Solver`` — and wires the engine's ``on_restart``
  hook to the throttled heartbeat and the mid-check knowledge flush.
* **The interrupt thread** (:class:`Interrupter`) re-fires
  ``Session.interrupt()`` once the job's deadline passes or the job is
  cancelled, until the solve returns: one interrupt only aborts the
  current check, and a synthesis runs several.
* **The parent handle**: :class:`ProcessWorker` is a persistent child
  process that runs jobs one at a time (SIGUSR1 cancels the job in
  flight); :class:`InlineWorker` is its in-process twin, which runs the
  job to completion inside :meth:`~InlineWorker.start` and buffers its
  frames.  Both offer ``start(job)``, a non-blocking frame ``poll()``,
  ``cancel()``, ``restart()`` and ``close()``.

A job streams ``heartbeat`` frames (one at start, then throttled ones
from restart boundaries), ``artifact`` frames when it shares knowledge,
and exactly one ``result`` frame.  A worker that dies without reporting
— SIGKILL, an injected crash, a dropped result — surfaces as
:class:`WorkerCrashed` from ``poll()`` once the frames it did send are
drained; ``restart()`` recovers it.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from ..api import NativeBackend, Session
from ..core import synthesizer as synth
from . import sharing
from .faults import InjectedCrash, wrap_emit
from .frames import (KIND_ARTIFACT, KIND_REQUEST, KIND_RESULT, KIND_SHUTDOWN,
                     KIND_STAGE_FROZEN)
from .strategies import Strategy
from .supervision import SupervisionPolicy, heartbeat_frame


class WorkerCrashed(RuntimeError):
    """The worker died (EOF, SIGKILL, injected crash) mid-job."""


class WorkerStalled(WorkerCrashed):
    """The worker blew its deadline plus grace without answering."""


@dataclass(frozen=True)
class Job:
    """One solve: a named strategy on a problem.

    ``share`` streams knowledge artifacts while solving (portfolio
    races); ``export_knowledge`` ships the cache knowledge inside the
    result payload instead (the service).  ``timeout`` is seconds from
    the start of the job after which the interrupt thread stops the
    solve, which then answers ``unknown`` flagged ``deadline_exceeded``.
    """

    problem: object
    strategy: Strategy
    share: bool = False
    export_knowledge: bool = False
    timeout: Optional[float] = None


class Interrupter:
    """Interrupt a session from a daemon thread at a deadline or on cancel.

    The engine clears its interrupt flag at every ``check()`` entry and
    ``core.solve`` runs several checks per job, so the thread keeps
    firing every ``interval`` seconds until the solve returns.  Use as a
    context manager around the solve; with no session (a backend that
    cannot be interrupted), or nothing to wait for, it arms nothing.
    """

    def __init__(self, session: Optional[Session], deadline: Optional[float],
                 cancelled: Optional[Callable[[], bool]] = None,
                 interval: float = 0.025) -> None:
        self._session = session
        self._deadline = deadline
        self._cancelled = cancelled
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "Interrupter":
        if self._session is not None and (self._deadline is not None
                                          or self._cancelled is not None):
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="solver-interrupt")
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            wait = self._interval
            if self._deadline is not None:
                wait = min(wait, self._deadline - time.perf_counter())
            if wait <= 0 or (self._cancelled is not None
                             and self._cancelled()):
                try:
                    self._session.interrupt()
                except Exception:
                    pass
                wait = self._interval
            self._stop.wait(wait)


# ---------------------------------------------------------------------------
# The solve core (runs wherever the worker runs)
# ---------------------------------------------------------------------------


class _Runner:
    """Worker-side state: runs one job at a time; :meth:`cancel` stops it."""

    def __init__(self, heartbeat_interval: float) -> None:
        self.heartbeat_interval = heartbeat_interval
        self.session: Optional[Session] = None
        self.cancelled = False

    def cancel(self) -> bool:
        """Latch cancellation of the job in flight and interrupt it now."""
        self.cancelled = True
        session = self.session
        if session is None:
            return False
        try:
            session.interrupt()
        except Exception:
            return False
        return True

    def is_cancelled(self) -> bool:
        return self.cancelled

    def run(self, job: Job, send: Callable[[dict], None]) -> Optional[dict]:
        """Run ``job``, streaming its frames through ``send``.

        Returns the result payload, or None when the attempt must die
        without reporting (an in-process injected crash, or a dropped
        result frame).
        """
        self.cancelled = False
        name = job.strategy.name
        # Liveness starts before any injected slow-start or hang, so the
        # stall clock runs from real signal.
        send(heartbeat_frame(name, {}, phase="start"))
        last_beat = [time.monotonic()]

        def heartbeat(engine) -> None:
            now = time.monotonic()
            if now - last_beat[0] >= self.heartbeat_interval:
                last_beat[0] = now
                send(heartbeat_frame(name, engine.statistics))

        emit = None
        if job.share:
            def emit(artifact: dict) -> None:
                send({"kind": KIND_ARTIFACT, "artifact": artifact})

        deadline = (time.perf_counter() + job.timeout
                    if job.timeout is not None else None)
        try:
            payload = execute_strategy(job.problem, job.strategy, emit,
                                       heartbeat, deadline, self,
                                       job.export_knowledge)
        except InjectedCrash:
            return None
        faults = job.strategy.options.faults
        if faults is not None and faults.drop_result:
            return None
        return payload


def execute_strategy(problem, strategy: Strategy, emit=None, heartbeat=None,
                     deadline: Optional[float] = None,
                     runner: Optional[_Runner] = None,
                     export_knowledge: bool = False) -> dict:
    """Run one strategy to completion; return its result payload.

    ``emit`` receives knowledge artifacts as they become available:
    frozen stage prefixes and mid-check clause flushes while solving,
    learned clauses and route vetoes on a provable unsat.  ``heartbeat``
    is called with the engine at every restart boundary.  ``deadline``
    (absolute ``perf_counter`` time) and ``runner.cancelled`` arm the
    :class:`Interrupter`.

    Any failure becomes an ``error`` payload — except
    :class:`InjectedCrash`, which models a death that never reports.
    """
    try:
        opts = strategy.options
        emit = wrap_emit(emit, opts.faults)
        engine = None
        if opts.backend == "native":
            engine = synth.Solver(dl_propagation=opts.dl_propagation,
                                  max_conflicts=opts.max_conflicts)
            session = Session(backend=NativeBackend(engine=engine))
            hooks = [heartbeat] if heartbeat is not None else []
            if emit is not None:
                # Mid-check flush: a worker killed inside one long check
                # still contributes what it learned so far.
                def flush(eng) -> None:
                    for artifact in sharing.restart_artifacts(opts, eng):
                        emit(artifact)
                hooks.append(flush)
            if hooks:
                def on_restart(eng) -> None:
                    for hook in hooks:
                        hook(eng)
                engine.on_restart = on_restart
        else:
            session = Session(backend=opts.backend)
        on_event = None
        if emit is not None:
            def on_event(event: dict) -> None:
                if event.get("kind") == KIND_STAGE_FROZEN:
                    emit(sharing.prefix_artifact(opts, event["stage"],
                                                 event["fixed"]))
        cancelled = None
        if runner is not None:
            runner.session = session
            cancelled = runner.is_cancelled
        try:
            with Interrupter(session if engine is not None else None,
                             deadline, cancelled):
                result = synth.solve(problem, opts, session=session,
                                     on_event=on_event)
        finally:
            if runner is not None:
                runner.session = None
        if emit is not None:
            for artifact in sharing.terminal_artifacts(opts, result, engine):
                emit(artifact)
        unknown = result.status == "unknown"
        was_cancelled = unknown and runner is not None and runner.cancelled
        payload = {
            "status": result.status,
            "synthesis_time": result.synthesis_time,
            "stages_completed": result.stages_completed,
            "failed_stage": result.failed_stage,
            "statistics": dict(result.statistics),
            "schedules": result.solution.schedules if result.ok else None,
            "mode": result.solution.mode if result.ok else None,
            "unsat_explanation": result.unsat_explanation,
            "cancelled": was_cancelled,
            "deadline_exceeded": (unknown and not was_cancelled
                                  and deadline is not None
                                  and time.perf_counter() >= deadline),
        }
        if export_knowledge:
            payload["knowledge"] = sharing.export_request_knowledge(
                opts, result, engine)
        return payload
    except InjectedCrash:
        raise
    except Exception as exc:  # noqa: BLE001 - report, don't sink the caller
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# The process form
# ---------------------------------------------------------------------------


def _serve(conn, heartbeat_interval: float) -> None:
    """Entry point of a worker process: run jobs until shutdown or EOF."""
    runner = _Runner(heartbeat_interval)
    signal.signal(signal.SIGUSR1, lambda signum, frame: runner.cancel())

    def send(frame: dict) -> None:
        try:
            conn.send(frame)
        except (OSError, ValueError):
            pass    # the parent went away; the result send ends the loop

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg.get("kind") == KIND_SHUTDOWN:
            break
        if msg.get("kind") != KIND_REQUEST:
            continue
        payload = runner.run(msg["job"], send)
        if payload is None:
            # Die without reporting, exactly like a SIGKILLed worker; a
            # hard exit keeps atexit machinery from sending anything.
            os._exit(3)
        try:
            conn.send({"kind": KIND_RESULT, "payload": payload})
        except (OSError, ValueError):
            break
    conn.close()


class ProcessWorker:
    """Parent-side handle of one persistent solver process."""

    mode = "process"
    #: Process names are ``<process_prefix>-<name>``.
    process_prefix = "solver-worker"

    def __init__(self, policy: Optional[SupervisionPolicy] = None,
                 name: str = "w0") -> None:
        self.policy = policy or SupervisionPolicy()
        self.name = name
        self.restarts = 0
        self._busy = False     # a job's result frame is still unread
        self._proc = None
        self._conn = None
        self._spawn()

    def _spawn(self) -> None:
        parent, child = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=_serve, args=(child, self.policy.heartbeat_interval),
            daemon=True, name=f"{self.process_prefix}-{self.name}")
        self._proc, self._conn = proc, parent
        try:
            proc.start()
        except OSError:
            self._proc, self._conn = None, None
            parent.close()
            raise
        finally:
            child.close()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def wait_handle(self):
        """The connection to pass to ``multiprocessing.connection.wait``."""
        return self._conn

    def start(self, job: Job) -> None:
        """Hand ``job`` to the worker; its frames arrive through poll()."""
        if not self.alive:
            raise WorkerCrashed(f"worker {self.name} is not running")
        try:
            self._conn.send({"kind": KIND_REQUEST, "job": job})
        except (OSError, ValueError) as exc:
            raise WorkerCrashed(f"worker {self.name}: {exc}") from None
        self._busy = True

    def poll(self, timeout: float = 0.0) -> Optional[dict]:
        """The next frame of the job in flight, or None within ``timeout``.

        Raises :class:`WorkerCrashed` once the worker is dead and every
        frame it sent has been read.
        """
        conn = self._conn
        try:
            if conn is None:
                raise EOFError
            ready = conn.poll(timeout)
            if not ready and not self.alive:
                # The death notice can race the last frames; and a pipe
                # end inherited by a sibling hides EOF, so ask the process.
                ready = conn.poll(0)
                if not ready:
                    raise EOFError
            if not ready:
                return None
            frame = conn.recv()
        except (EOFError, OSError):
            self._busy = False
            raise WorkerCrashed(f"worker {self.name} died mid-job") from None
        if isinstance(frame, dict) and frame.get("kind") == KIND_RESULT:
            self._busy = False
        return frame

    def cancel(self) -> bool:
        """Interrupt the job in flight (SIGUSR1 -> ``Session.interrupt``)."""
        if not self.alive:
            return False
        try:
            os.kill(self._proc.pid, signal.SIGUSR1)
        except OSError:
            return False
        return True

    def restart(self) -> None:
        """Reap whatever is left and spawn a fresh process."""
        self._reap()
        self._spawn()
        self.restarts += 1

    def close(self) -> None:
        """Ask an idle worker to exit; reap a busy one straight away."""
        if self.alive and not self._busy:
            try:
                self._conn.send({"kind": KIND_SHUTDOWN})
                self._proc.join(self.policy.kill_grace)
            except (OSError, ValueError):
                pass
        self._reap()

    def _reap(self) -> None:
        """Escalated teardown: terminate -> join(grace) -> kill -> join.

        A worker that ignores SIGTERM for ``kill_grace`` seconds (hung in
        an injected sleep, wedged in native code) gets SIGKILL, so the
        process is always joined: no zombie, no leaked pipe end.
        """
        proc, self._proc = self._proc, None
        conn, self._conn = self._conn, None
        self._busy = False
        if conn is not None:
            conn.close()
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(self.policy.kill_grace)
            if proc.is_alive():
                proc.kill()
        proc.join()


# ---------------------------------------------------------------------------
# The inline form
# ---------------------------------------------------------------------------


class InlineWorker:
    """In-process twin of :class:`ProcessWorker`.

    :meth:`start` runs the job to completion in the calling thread and
    buffers its frames for :meth:`poll`, so a caller drives both forms
    the same way; ``cancel()`` from another thread fires
    ``Session.interrupt()`` directly.  An injected crash or a dropped
    result leaves the worker dead until :meth:`restart`.
    """

    mode = "inline"
    wait_handle = None      # its frames are buffered before start() returns

    def __init__(self, policy: Optional[SupervisionPolicy] = None,
                 name: str = "w0") -> None:
        self.policy = policy or SupervisionPolicy()
        self.name = name
        self.restarts = 0
        self._runner = _Runner(self.policy.heartbeat_interval)
        self._frames: Deque[dict] = deque()
        self._dead = False

    @property
    def alive(self) -> bool:
        return not self._dead

    def start(self, job: Job) -> None:
        if self._dead:
            raise WorkerCrashed(f"worker {self.name} is not running")
        payload = self._runner.run(job, self._frames.append)
        if payload is None:
            self._dead = True
        else:
            self._frames.append({"kind": KIND_RESULT, "payload": payload})

    def poll(self, timeout: float = 0.0) -> Optional[dict]:
        if self._frames:
            return self._frames.popleft()
        if self._dead:
            raise WorkerCrashed(f"worker {self.name} died mid-job")
        return None

    def cancel(self) -> bool:
        return self._runner.cancel()

    def restart(self) -> None:
        self._frames.clear()
        self._dead = False
        self.restarts += 1

    def close(self) -> None:
        self._frames.clear()
