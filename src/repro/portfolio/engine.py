"""Portfolio racing: run several synthesis strategies, first SAT wins.

The race is one scheduler over solver workers
(:mod:`repro.portfolio.worker`): it keeps one attempt per strategy in
flight on persistent worker processes (bounded by ``max_workers``),
polls their frames, and as soon as one reports a satisfiable schedule it
stops the rest — the classic SAT-portfolio scheme (each strategy
explores a different slice of the search space, so the *minimum* of
their runtimes is usually far below any fixed choice).

Race verdicts are sound: ``unsat`` is reported only when a *complete*
strategy (all routes, single stage) actually proved it — the heuristics
may fail on solvable instances, so an all-timeout or all-heuristic-unsat
race reports ``timeout`` / ``unknown`` instead, and
``PortfolioResult.verdict_by`` names the strategy that supplied the
verdict.  A complete strategy's unsat ends the race early (nothing can
beat a proof).

With ``share_knowledge`` (default on) workers stream compact artifacts
back over their result pipes *while solving* — learned clauses, frozen
stage prefixes, and route-subset vetoes (see
:mod:`repro.portfolio.sharing` for the artifact kinds and their
soundness) — and the parent aggregates them into a
:class:`~repro.portfolio.sharing.KnowledgePool` that seeds every restart
attempt and late launch through ``SynthesisOptions.seed_knowledge``, so
re-runs start warm instead of cold.  Artifacts are validated at the pool
boundary: a frame that fails validation is quarantined (counted, never
imported, never fatal).

The race is *supervised* (see :mod:`repro.portfolio.supervision` and
``docs/robustness.md``): workers heartbeat, a worker that dies without
reporting (SIGKILL, OOM, a dropped result frame) or misses enough
heartbeats is relaunched with capped exponential backoff up to
``Strategy.max_crash_retries`` times — re-seeded from the pool — and a
strategy that exhausts that budget degrades the race: the remaining
work moves onto an in-process worker, recording
``PortfolioResult.degraded_to_serial``.  A finished race closes every
worker, so it leaks neither zombies nor file descriptors.
Deterministic failures can be injected with a
:mod:`~repro.portfolio.faults` plan to exercise all of this on demand.

Results always include one :class:`StrategyResult` per entered strategy,
so experiment code can attribute wins, losses, and cancellations::

    res = synthesize_portfolio(problem)
    if res.ok:
        print(res.winner, res.solution)
    for sr in res.strategy_results:
        print(sr.name, sr.status, f"{sr.wall_time:.2f}s", sr.statistics)

The schedule travels back as plain
:class:`~repro.core.solution.MessageSchedule` records and is re-attached
to the caller's problem object, so no solver state ever crosses the
process boundary.  ``backend="serial"`` is the same scheduler over one
in-process worker, running the strategies in order (deterministic, used
on platforms without usable subprocesses and by the search-work gate in
``benchmarks/test_search_work.py``); a failed process launch degrades to
it automatically.
Knowledge sharing and crash supervision work in both backends —
serially, knowledge flows from each finished strategy into the next, and
the worker's interrupt thread bounds native attempts mid-check so the
global deadline holds even inside one long strategy.
"""

from __future__ import annotations

import multiprocessing.connection
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.solution import Solution
from ..core.synthesizer import MODE_STABILITY
from .faults import FaultPlan
from .frames import KIND_ARTIFACT, KIND_HEARTBEAT, KIND_RESULT
from .sharing import KnowledgePool
from .strategies import Strategy, default_portfolio
from .supervision import SupervisionPolicy, Supervisor
from .worker import (InlineWorker, Job, ProcessWorker, WorkerCrashed,
                     execute_strategy)

#: Terminal per-strategy statuses.
STATUS_SAT = "sat"
STATUS_UNSAT = "unsat"
STATUS_ERROR = "error"          # the worker raised / died
STATUS_CANCELLED = "cancelled"  # lost the race, terminated
STATUS_TIMEOUT = "timeout"      # still running at the deadline
STATUS_SKIPPED = "skipped"      # never started (race decided first)
STATUS_UNKNOWN = "unknown"      # undecided (heuristic unsat / errors only)

#: Every status a strategy result may legitimately carry.  Worker
#: payloads are validated against this set so a malformed payload can
#: never masquerade as a verdict.
_STRATEGY_STATUSES = frozenset({
    STATUS_SAT, STATUS_UNSAT, STATUS_ERROR, STATUS_CANCELLED,
    STATUS_TIMEOUT, STATUS_SKIPPED, STATUS_UNKNOWN,
})


@dataclass
class StrategyResult:
    """Outcome and accounting of one strategy's run in the race."""

    name: str
    status: str
    wall_time: float                     # parent-observed elapsed seconds
    synthesis_time: float = 0.0          # worker-measured solve time
    stages_completed: int = 0
    failed_stage: Optional[int] = None
    statistics: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1                    # launches incl. restart-schedule reruns


@dataclass
class PortfolioResult:
    """Outcome of a portfolio race.

    ``status`` is ``"sat"`` (winner found), ``"unsat"`` (a *complete*
    strategy proved infeasibility), ``"timeout"`` (undecided at a
    deadline), or ``"unknown"`` (every strategy failed heuristically or
    errored — the instance may still be solvable).  ``verdict_by`` names
    the strategy whose result decided the race (None when undecided).

    ``degraded_to_serial`` records graceful degradation: some or all
    strategies ran on the in-process serial backend because workers
    could not be spawned or a strategy exhausted its crash-retry budget.
    ``supervision_statistics`` totals the race's supervision events
    (crashes, stalls, retries, heartbeats, quarantined artifacts,
    degradations — zero-filled, see
    :class:`~repro.portfolio.supervision.Supervisor`).
    """

    status: str
    winner: Optional[str]                # name of the first sat strategy
    solution: Optional[Solution]
    total_time: float
    strategy_results: List[StrategyResult]
    verdict_by: Optional[str] = None
    #: Knowledge-pool counters of this race (empty when sharing is off).
    pool_statistics: Dict[str, int] = field(default_factory=dict)
    degraded_to_serial: bool = False
    supervision_statistics: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SAT

    def result_for(self, name: str) -> StrategyResult:
        for sr in self.strategy_results:
            if sr.name == name:
                return sr
        raise KeyError(f"no strategy named {name!r} in this portfolio")


def synthesize_portfolio(
    problem,
    strategies: Optional[Sequence[Strategy]] = None,
    mode: str = MODE_STABILITY,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    backend: str = "process",
    share_knowledge: bool = True,
    supervision: Optional[SupervisionPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> PortfolioResult:
    """Race ``strategies`` (default: :func:`default_portfolio`) on ``problem``.

    Returns the first satisfiable strategy's solution; losers are
    cancelled.  ``timeout`` bounds the race in seconds: the process
    backend enforces it by terminating workers at the deadline, while
    the serial backend enforces it *mid-strategy* for native attempts
    (the worker's interrupt thread stops the engine at its next conflict) and
    between strategies otherwise.

    Per-strategy budgets (``Strategy.timeout`` / ``Strategy.restarts``)
    are enforced by the process backend: an attempt is terminated at its
    own deadline and — while the global deadline is still open — re-queued
    with the next budget from its restart schedule, so a small worker pool
    probes every strategy quickly before giving the slow ones more time.
    The serial backend ignores per-strategy budgets (one non-preemptible
    attempt each).

    ``share_knowledge`` pools learned clauses, route vetoes and stage
    prefixes across workers and seeds restarts/late launches with them
    (:mod:`repro.portfolio.sharing`); turn it off for strict isolation
    A/B runs.

    ``supervision`` tunes the robustness layer (heartbeat cadence, stall
    timeout, crash-retry backoff, kill grace — see
    :class:`~repro.portfolio.supervision.SupervisionPolicy`);
    ``fault_plan`` injects deterministic failures for chaos testing
    (:mod:`repro.portfolio.faults`).
    """
    entries = list(strategies) if strategies is not None else default_portfolio(mode=mode)
    if not entries:
        raise ValueError("portfolio is empty: provide at least one strategy")
    names = [s.name for s in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate strategy names in portfolio: {names}")
    if backend not in ("process", "serial"):
        raise ValueError(f"unknown backend {backend!r} (use 'process' or 'serial')")
    race = _Race(problem, entries, max_workers, timeout, share_knowledge,
                 supervision or SupervisionPolicy(), fault_plan,
                 serial=backend == "serial")
    return race.run()


#: One in-process attempt of a strategy: the solver worker's solve core.
_execute_strategy = execute_strategy


def _result_from_payload(
    name: str, payload: dict, wall_time: float, attempts: int = 1
) -> StrategyResult:
    """The one constructor every worker payload goes through.

    Validates the reported status against the known vocabulary (and that
    a ``sat`` claim actually carries schedules), so a corrupt or
    malformed payload surfaces as :data:`STATUS_ERROR` instead of
    masquerading as a verdict.
    """
    if not isinstance(payload, dict):
        payload = {"status": STATUS_ERROR,
                   "error": f"malformed worker payload: {payload!r:.100}"}
    status = payload.get("status")
    error = payload.get("error")
    if status not in _STRATEGY_STATUSES:
        error = f"worker reported unknown status {status!r}"
        status = STATUS_ERROR
    elif status == STATUS_SAT and payload.get("schedules") is None:
        error = "worker reported sat without a schedule payload"
        status = STATUS_ERROR
    return StrategyResult(
        name=name,
        status=status,
        wall_time=wall_time,
        synthesis_time=payload.get("synthesis_time", 0.0),
        stages_completed=payload.get("stages_completed", 0),
        failed_stage=payload.get("failed_stage"),
        statistics=payload.get("statistics", {}),
        error=error,
        attempts=attempts,
    )


def _solution_from_payload(problem, payload: dict, wall_time: float) -> Solution:
    return Solution(
        problem,
        payload["schedules"],
        synthesis_time=wall_time,
        mode=payload["mode"],
    )


def _final_verdict(
    entries: Sequence[Strategy],
    results: Sequence[StrategyResult],
    winner: Optional[str],
    timed_out: bool,
) -> Tuple[str, Optional[str]]:
    """The race's sound overall status and the strategy that supplied it.

    ``unsat`` requires a complete strategy's proof; heuristic unsats,
    errors and timeouts leave the instance undecided (``timeout`` /
    ``unknown``), never claiming infeasibility without one.
    """
    if winner is not None:
        return STATUS_SAT, winner
    complete = {s.name for s in entries if s.is_complete}
    for sr in results:
        if sr.status == STATUS_UNSAT and sr.name in complete:
            return STATUS_UNSAT, sr.name
    if timed_out or any(sr.status == STATUS_TIMEOUT for sr in results):
        return STATUS_TIMEOUT, None
    return STATUS_UNKNOWN, None


# ---------------------------------------------------------------------------
# The race: one scheduler over N workers
# ---------------------------------------------------------------------------


@dataclass
class _InFlight:
    """Parent-side state of one attempt in flight."""

    worker: object               # a ProcessWorker or an InlineWorker
    started: float
    sdeadline: Optional[float]   # per-strategy deadline (absolute), clamped
    attempt: int                 # 1-based launch number
    sched: int                   # 1-based restart-schedule position
    last_signal: float           # last heartbeat/artifact time (stall clock)


class _Race:
    """Schedules strategy attempts onto workers until the race is decided.

    A process race keeps up to ``capacity`` attempts in flight on
    :class:`~repro.portfolio.worker.ProcessWorker` s and reuses a worker
    once its attempt reported.  The serial backend, and a process race
    that degraded, run attempts one at a time on an
    :class:`~repro.portfolio.worker.InlineWorker` — a degraded race only
    once no process attempt is left running, so the in-process phase
    follows the process phase.

    The launch queue holds ``(idx, attempt, sched, not_before)``:
    ``attempt`` counts every launch (accounting, fault targeting);
    ``sched`` is the position in the strategy's budget schedule (1 =
    ``strategy.timeout``, k>1 = ``restarts[k-2]``) and only advances on
    budget expiry, so a crash retry neither consumes a schedule entry
    nor runs off its end; ``not_before`` delays crash retries (backoff).
    """

    def __init__(self, problem, entries: List[Strategy],
                 max_workers: Optional[int], timeout: Optional[float],
                 share_knowledge: bool, policy: SupervisionPolicy,
                 fault_plan: Optional[FaultPlan], serial: bool) -> None:
        self.problem = problem
        self.entries = entries
        self.policy = policy
        self.fault_plan = fault_plan
        # Default to racing *every* strategy at once: a portfolio's value
        # is the minimum of its entrants' runtimes, and even on few cores
        # the OS timeshares far better than letting one slow strategy hog
        # the lane.  ``max_workers`` caps the fan-out.
        self.capacity = max(1, min(len(entries), max_workers or len(entries)))
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + timeout if timeout is not None else None
        self.pool = KnowledgePool() if share_knowledge else None
        self.supervisor = Supervisor(policy)
        self.serial = serial
        self.inline = serial        # launches go to the inline worker
        self.degraded = False       # the process backend gave up mid-race
        self.spawned = 0
        self.inline_launched = False
        self.pending: List[Tuple[int, int, int, float]] = [
            (idx, 1, 1, self.t0) for idx in range(len(entries))]
        self.running: Dict[int, _InFlight] = {}
        self.idle: list = []
        self.results: Dict[int, StrategyResult] = {}
        self.spent_wall: Dict[int, float] = {}  # wall time of dead attempts
        self.crash_retries: Dict[int, int] = {}
        self.winner: Optional[Tuple[int, dict, float]] = None
        self.prover: Optional[int] = None  # complete strategy proving unsat
        self.timed_out = False

    # -- the loop ------------------------------------------------------------

    def run(self) -> PortfolioResult:
        try:
            self._launch_ready()
            while (self.running or self.pending) and not self._decided():
                if self._past_deadline():
                    break
                self._wait()
                # Harvest *every* attempt before declaring the race over,
                # so strategies that finished in the same poll window
                # report their real status (the winner is still the
                # first sat in launch order).
                for idx in sorted(self.running):
                    self._harvest(idx)
                if self._past_deadline() or self._decided():
                    break
                now = time.perf_counter()
                for idx in sorted(self.running):
                    att = self.running.get(idx)
                    if att is None:
                        continue
                    if self._stall_watched(idx) and (
                            now - att.last_signal >= self.policy.stall_timeout):
                        if not self._harvest(idx):
                            self._died(idx, stalled=True)
                    elif att.sdeadline is not None and now >= att.sdeadline:
                        self._expire(idx, now)
                self._launch_ready()
            if self.timed_out:
                # A result sent just before the deadline still decides
                # the race.
                for idx in sorted(self.running):
                    self._harvest(idx, bury=False)
            return self._result()
        finally:
            for att in self.running.values():
                att.worker.close()
            for worker in self.idle:
                worker.close()

    def _decided(self) -> bool:
        return self.winner is not None or self.prover is not None

    def _past_deadline(self) -> bool:
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            self.timed_out = True
        return self.timed_out

    def _free_slot(self) -> bool:
        if self.inline:
            return not self.running
        return len(self.running) < self.capacity

    def _stall_watched(self, idx: int) -> bool:
        # Only the native backend wires the restart-boundary heartbeat; a
        # worker on any other backend sends just its start frame, so
        # silence there is not evidence of a stall.
        return (self.policy.stall_timeout is not None
                and self.entries[idx].options.backend == "native")

    def _wait(self) -> None:
        """Block until a frame may be ready or a clock needs attention."""
        now = time.perf_counter()
        wait_for = 0.1
        if self.deadline is not None:
            wait_for = min(wait_for, self.deadline - now)
        for idx, att in self.running.items():
            if att.sdeadline is not None:
                wait_for = min(wait_for, att.sdeadline - now)
            if self._stall_watched(idx):
                wait_for = min(wait_for, att.last_signal
                               + self.policy.stall_timeout - now)
        if self._free_slot():
            queued = self.pending[:1] if self.inline else self.pending
            for entry in queued:
                wait_for = min(wait_for, entry[3] - now)
        wait_for = max(0.0, wait_for)
        handles = [att.worker.wait_handle for att in self.running.values()]
        if None in handles:
            return      # an inline attempt's frames are already buffered
        if handles:
            multiprocessing.connection.wait(handles, timeout=wait_for)
        elif wait_for > 0:
            time.sleep(wait_for)    # only backoff-delayed retries queued

    # -- launching -----------------------------------------------------------

    def _launch_ready(self) -> None:
        now = time.perf_counter()
        i = 0
        while i < len(self.pending) and self._free_slot():
            idx, attempt, sched, not_before = self.pending[i]
            if not_before > now:
                if self.inline:
                    return      # the inline worker runs the queue in order
                i += 1
                continue
            del self.pending[i]
            self._launch(idx, attempt, sched)

    def _worker(self):
        mode = "inline" if self.inline else "process"
        for i, worker in enumerate(self.idle):
            if worker.mode == mode:
                return self.idle.pop(i)
        if self.inline:
            return InlineWorker(self.policy, name="serial")
        worker = ProcessWorker(self.policy, name=f"race-{self.spawned + 1}")
        self.spawned += 1
        return worker

    def _launch(self, idx: int, attempt: int, sched: int) -> None:
        strategy = self.entries[idx]
        options = strategy.options
        if self.pool is not None:
            # Seed restarts and late launches with everything the pool
            # has gathered so far (cold start -> warm start).
            options = self.pool.seeded_options(options)
        if self.fault_plan is not None:
            injected = self.fault_plan.for_attempt(strategy.name, attempt,
                                                   harsh=not self.inline)
            if injected is not None:
                options = replace(options, faults=injected)
        launched = (strategy if options is strategy.options
                    else replace(strategy, options=options))
        try:
            worker = self._worker()
        except OSError:
            # No process could be spawned (a restricted sandbox, EAGAIN
            # near the process limit): the process backend is not
            # trustworthy — this and all remaining work goes inline.
            if self.spawned:
                self.degraded = True
                self.supervisor.note_degraded(strategy.name)
            self.inline = True
            self.pending.insert(0, (idx, attempt, sched, time.perf_counter()))
            return
        started = time.perf_counter()
        timeout = sdeadline = None
        if worker.mode == "inline":
            # Bound the non-preemptible in-process attempt by the race's
            # deadline; per-strategy budgets only apply to processes.
            self.inline_launched = True
            if self.deadline is not None:
                timeout = max(0.0, self.deadline - started)
        else:
            budget = strategy.timeout
            if budget is not None and sched > 1 and strategy.restarts:
                budget = strategy.restarts[min(sched - 2,
                                               len(strategy.restarts) - 1)]
            sdeadline = started + budget if budget is not None else None
            if self.deadline is not None:
                sdeadline = (self.deadline if sdeadline is None
                             else min(sdeadline, self.deadline))
        self.running[idx] = _InFlight(worker, started, sdeadline, attempt,
                                     sched, last_signal=started)
        try:
            worker.start(Job(self.problem, launched,
                             share=self.pool is not None, timeout=timeout))
        except WorkerCrashed:
            self._died(idx, stalled=False)

    # -- frames --------------------------------------------------------------

    def _absorb(self, name: str, frame) -> None:
        """Account one streamed frame: heartbeat, artifact or garbage."""
        kind = frame.get("kind") if isinstance(frame, dict) else None
        if kind == KIND_HEARTBEAT:
            self.supervisor.note_heartbeat(name, frame)
        elif kind == KIND_ARTIFACT:
            if self.pool is not None and not self.pool.absorb(
                    frame.get("artifact"), source=name):
                self.supervisor.note_quarantined(name)
        else:
            # One garbled frame must not cost the whole attempt.
            self.supervisor.note_quarantined(name)

    def _harvest(self, idx: int, bury: bool = True) -> bool:
        """Drain an attempt's frames; settle it on its result.

        Returns False while the attempt is still working.  A worker that
        died without a result is buried (retried or degraded) unless
        ``bury`` is off.
        """
        att = self.running[idx]
        name = self.entries[idx].name
        try:
            while (frame := att.worker.poll()) is not None:
                if isinstance(frame, dict) and frame.get("kind") == KIND_RESULT:
                    del self.running[idx]
                    self._settle(idx, att, frame.get("payload"))
                    return True
                att.last_signal = time.perf_counter()
                self._absorb(name, frame)
        except WorkerCrashed:
            if bury:
                self._died(idx, stalled=False)
            return bury
        return False

    def _settle(self, idx: int, att: _InFlight, payload) -> None:
        """Record one finished attempt's report; track race deciders."""
        wall = self.spent_wall.get(idx, 0.0) + time.perf_counter() - att.started
        self.idle.append(att.worker)
        result = _result_from_payload(self.entries[idx].name, payload, wall,
                                      attempts=att.attempt)
        if result.status == STATUS_UNKNOWN and payload.get("deadline_exceeded"):
            # The interrupt thread stopped this attempt at the race's
            # deadline: that unknown is the race timing out.
            result.status = STATUS_TIMEOUT
        self.results[idx] = result
        if self.winner is None and result.status == STATUS_SAT:
            self.winner = (idx, payload, wall)
        if (self.prover is None and result.status == STATUS_UNSAT
                and self.entries[idx].is_complete):
            self.prover = idx

    def _bury(self, idx: int) -> Tuple[_InFlight, float]:
        """Take an attempt off its worker; salvage its streamed knowledge."""
        att = self.running.pop(idx)
        name = self.entries[idx].name
        try:
            while (frame := att.worker.poll()) is not None:
                if not (isinstance(frame, dict)
                        and frame.get("kind") == KIND_RESULT):
                    self._absorb(name, frame)
        except WorkerCrashed:
            pass
        att.worker.close()
        now = time.perf_counter()
        self.spent_wall[idx] = self.spent_wall.get(idx, 0.0) + now - att.started
        return att, now

    # -- supervision -----------------------------------------------------------

    def _died(self, idx: int, stalled: bool) -> None:
        """A crash or stall: retry after backoff, or degrade, or give up."""
        att, now = self._bury(idx)
        strategy = self.entries[idx]
        name = strategy.name
        if stalled:
            self.supervisor.note_stall(name)
        else:
            self.supervisor.note_crash(name)
        inline = att.worker.mode == "inline"
        used = self.crash_retries.get(idx, 0)
        # Past the race deadline no retry is left to grant.
        budget = (strategy.max_crash_retries
                  if self.deadline is None or now < self.deadline else used)
        delay = self.supervisor.crash_retry(name, used, budget)
        if delay is not None:
            self.crash_retries[idx] = used + 1
            # The retry is re-seeded from the pool at launch and keeps
            # the dead attempt's schedule position.
            not_before = now + delay
            if self.deadline is not None:
                not_before = min(not_before, self.deadline)
            retry = (idx, att.attempt + 1, att.sched, not_before)
            self.pending.insert(0 if inline else len(self.pending), retry)
            return
        if inline:
            self.results[idx] = StrategyResult(
                name=name, status=STATUS_ERROR,
                wall_time=self.spent_wall[idx], attempts=att.attempt,
                error=(f"crashed on every attempt ({used + 1} tried, "
                       f"{strategy.max_crash_retries} retries allowed)"))
            return
        # The process backend keeps failing this strategy: degrade.  Stop
        # spawning (a systemic fault like OOM pressure would grind every
        # launch through the same budget) and hand this strategy, with a
        # fresh crash budget, and all remaining work to the inline worker.
        self.supervisor.note_degraded(name)
        self.inline = self.degraded = True
        self.crash_retries[idx] = 0
        self.pending.insert(0, (idx, att.attempt + 1, att.sched, now))

    def _expire(self, idx: int, now: float) -> None:
        """Kill an attempt at its per-strategy deadline; maybe re-queue."""
        # A result may have landed after the last wait: honor it (it
        # could be the winning sat) instead of discarding it.
        if self._harvest(idx):
            return
        att, _ = self._bury(idx)
        strategy = self.entries[idx]
        has_budget = att.sched - 1 < len(strategy.restarts)
        if has_budget and (self.deadline is None or now < self.deadline):
            self.pending.append((idx, att.attempt + 1, att.sched + 1, now))
        else:
            self.results[idx] = StrategyResult(
                name=strategy.name, status=STATUS_TIMEOUT,
                wall_time=self.spent_wall[idx], attempts=att.attempt)

    # -- the verdict -----------------------------------------------------------

    def _result(self) -> PortfolioResult:
        # Stop whoever is still working and account for everyone; a
        # loser's streamed mid-check exports are still knowledge.
        loser = STATUS_TIMEOUT if self.timed_out else STATUS_CANCELLED
        for idx in sorted(self.running):
            att, _ = self._bury(idx)
            self.results[idx] = StrategyResult(
                name=self.entries[idx].name, status=loser,
                wall_time=self.spent_wall[idx], attempts=att.attempt)
        for idx, attempt, _sched, _not_before in self.pending:
            # Queued work only "timed out" if the race did; a strategy
            # parked on a crash-retry backoff, or handed to a degraded
            # race's inline phase, lost it; one never launched was skipped.
            if self.timed_out:
                status = STATUS_TIMEOUT
            elif attempt > 1 or self.degraded:
                status = STATUS_CANCELLED
            else:
                status = STATUS_SKIPPED
            self.results[idx] = StrategyResult(
                name=self.entries[idx].name, status=status,
                wall_time=self.spent_wall.get(idx, 0.0),
                attempts=max(1, attempt - 1))
        self.pending.clear()
        total = time.perf_counter() - self.t0
        solution = winner_name = None
        if self.winner is not None:
            idx, payload, wall = self.winner
            winner_name = self.entries[idx].name
            solution = _solution_from_payload(self.problem, payload, wall)
        for idx, sr in self.results.items():
            extra = self.supervisor.strategy_statistics(self.entries[idx].name)
            if extra:
                sr.statistics = {**sr.statistics, **extra}
        ordered = [self.results[i] for i in sorted(self.results)]
        status, verdict_by = _final_verdict(self.entries, ordered, winner_name,
                                            self.timed_out)
        return PortfolioResult(
            status=status,
            winner=winner_name,
            solution=solution,
            total_time=total,
            strategy_results=ordered,
            verdict_by=verdict_by,
            pool_statistics=(self.pool.statistics
                             if self.pool is not None else {}),
            degraded_to_serial=self.inline_launched and not self.serial,
            supervision_statistics=self.supervisor.statistics,
        )
