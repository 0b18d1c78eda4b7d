"""The solver worker contract, driven identically through both forms.

:class:`~repro.portfolio.worker.ProcessWorker` and its in-process twin
:class:`~repro.portfolio.worker.InlineWorker` sit under both the
portfolio race and the synthesis service; every test here runs the same
code against each form (see ``docs/robustness.md``, "The solver worker").
"""

import multiprocessing
import threading
import time

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import gm_case_study, sharing_problem
from repro.portfolio import FaultSpec, Strategy, SupervisionPolicy, WorkerFaults
from repro.portfolio.faults import CRASH
from repro.portfolio.worker import (InlineWorker, Job, ProcessWorker,
                                    WorkerCrashed)

POLICY = SupervisionPolicy(heartbeat_interval=0.02, kill_grace=0.3)


@pytest.fixture(params=["process", "inline"])
def worker(request):
    form = ProcessWorker if request.param == "process" else InlineWorker
    handle = form(POLICY, name="contract")
    yield handle
    handle.close()


def sat_job() -> Job:
    return Job(sharing_problem(), Strategy("monolithic", SynthesisOptions()))


def drain(worker, timeout: float = 120.0) -> list:
    """Every frame of the job in flight, up to and including its result."""
    frames = []
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        frame = worker.poll(0.05)
        if frame is None:
            continue
        frames.append(frame)
        if frame["kind"] == "result":
            return frames
    raise AssertionError(f"no result frame within {timeout}s: {frames}")


def assert_quiet(worker) -> None:
    """Nothing follows the result frame."""
    assert worker.poll(0.2) is None


def test_sat_job_sends_start_heartbeat_then_one_result(worker):
    worker.start(sat_job())
    frames = drain(worker)
    assert frames[0]["kind"] == "heartbeat"
    assert frames[0]["phase"] == "start"
    assert frames[0]["strategy"] == "monolithic"
    kinds = [frame["kind"] for frame in frames]
    assert kinds.count("result") == 1
    assert set(kinds[:-1]) == {"heartbeat"}
    assert frames[-1]["payload"]["status"] == "sat"
    assert frames[-1]["payload"]["schedules"]
    assert_quiet(worker)


def test_sharing_job_streams_artifacts_before_the_result(worker):
    # routes-1 proves the sharing funnel unsat and exports its proof.
    worker.start(Job(sharing_problem(),
                     Strategy("routes-1", SynthesisOptions(routes=1)),
                     share=True))
    frames = drain(worker)
    kinds = [frame["kind"] for frame in frames]
    assert "artifact" in kinds
    assert kinds[-1] == "result"
    assert frames[-1]["payload"]["status"] == "unsat"
    assert_quiet(worker)


def test_cancel_answers_unknown_and_the_worker_takes_the_next_job(worker):
    # An inline start() blocks until the solve ends, so cancellation
    # comes from another thread — for both forms alike.
    timer = threading.Timer(1.0, worker.cancel)
    timer.start()
    started = time.monotonic()
    worker.start(Job(gm_case_study(5), Strategy("slow", SynthesisOptions())))
    payload = drain(worker)[-1]["payload"]
    timer.join(10.0)
    assert not timer.is_alive()
    assert payload["status"] == "unknown"
    assert payload["cancelled"]
    assert time.monotonic() - started < 60.0
    worker.start(sat_job())
    assert drain(worker)[-1]["payload"]["status"] == "sat"
    assert worker.restarts == 0


def test_injected_crash_raises_worker_crashed_and_restart_recovers(worker):
    faults = WorkerFaults(strategy="victim", attempt=1,
                          harsh=worker.mode == "process",
                          crash=FaultSpec(CRASH, strategy="victim"))
    worker.start(Job(sharing_problem(),
                     Strategy("victim", SynthesisOptions(faults=faults))))
    with pytest.raises(WorkerCrashed):
        drain(worker)
    worker.restart()
    assert worker.alive and worker.restarts == 1
    worker.start(sat_job())
    assert drain(worker)[-1]["payload"]["status"] == "sat"


def test_close_leaves_no_live_child(worker):
    worker.start(sat_job())        # a process worker is still solving here
    worker.close()
    assert not any(proc.name.endswith("-contract")
                   for proc in multiprocessing.active_children())
