"""Chaos matrix: the supervised race under deterministic fault injection.

Every scenario here drives :mod:`repro.portfolio.faults` through the
real engine — process workers really get SIGKILLed, really hang, really
ship corrupt frames — and checks the supervision contract of
``docs/robustness.md``: crashes are retried with backoff, stalls are
detected by missed heartbeats, malformed artifacts are quarantined (not
raised), exhausted crash budgets degrade to the serial backend, and no
scenario leaks a process or changes a verdict.
"""

import multiprocessing
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import collect_violations
from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import gm_case_study, sharing_problem
from repro.portfolio import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    Strategy,
    SupervisionPolicy,
    synthesize_portfolio,
)
from repro.portfolio.faults import (
    CORRUPT,
    CRASH,
    DROP_RESULT,
    HANG,
    SLOW_START,
    WorkerFaults,
    corrupt_frame,
)
from repro.portfolio.sharing import KnowledgePool, validate_artifact
from repro.portfolio.supervision import Supervisor

#: Fast supervision for tests: tight heartbeats, sub-second stall
#: detection, near-instant backoff, short kill grace.
FAST = SupervisionPolicy(heartbeat_interval=0.02, stall_timeout=0.6,
                         backoff_base=0.01, backoff_factor=2.0,
                         backoff_cap=0.05, kill_grace=0.3)


def mono() -> list:
    return [Strategy("monolithic", SynthesisOptions())]


def assert_no_leaked_workers() -> None:
    for proc in multiprocessing.active_children():
        proc.join(timeout=2.0)
    assert multiprocessing.active_children() == []


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec(CRASH, attempt=-1)
        with pytest.raises(ValueError):
            FaultSpec(CRASH, at_conflicts=-1)

    def test_for_attempt_targets_strategy_and_attempt(self):
        plan = FaultPlan([FaultSpec(CRASH, strategy="a", attempt=2),
                          FaultSpec(CORRUPT, strategy="b", attempt=0)])
        assert plan.for_attempt("a", 1, harsh=True) is None
        hit = plan.for_attempt("a", 2, harsh=True)
        assert hit.crash is not None and hit.harsh
        # attempt=0 matches every attempt of its strategy
        for attempt in (1, 2, 5):
            assert plan.for_attempt("b", attempt, harsh=False).corrupt_frames

    def test_chaos_plan_is_deterministic_and_recoverable(self):
        names = ["monolithic", "routes-1", "routes-2"]
        one = FaultPlan.chaos(seed=42, strategy_names=names,
                              crashes=2, hangs=1, corruptions=2)
        two = FaultPlan.chaos(seed=42, strategy_names=names,
                              crashes=2, hangs=1, corruptions=2)
        assert one.specs == two.specs
        # Kill-type specs never target more than attempts {1, 2} of one
        # strategy, so the default max_crash_retries=2 always recovers.
        per_strategy = {}
        for spec in one.specs:
            if spec.kind in (CRASH, HANG, DROP_RESULT):
                assert spec.attempt in (1, 2)
                per_strategy.setdefault(spec.strategy, set()).add(spec.attempt)
        assert all(len(hits) <= 2 for hits in per_strategy.values())

    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = SupervisionPolicy(backoff_base=0.05, backoff_factor=2.0,
                                   backoff_cap=0.3)
        assert policy.backoff_schedule(5) == [0.05, 0.1, 0.2, 0.3, 0.3]
        assert policy.backoff_schedule(5) == policy.backoff_schedule(5)

    def test_crash_retry_grants_backoff_until_the_budget_is_spent(self):
        sup = Supervisor(SupervisionPolicy(backoff_base=0.05, backoff_cap=0.3))
        delays = [sup.crash_retry("s", used, 2) for used in range(3)]
        assert delays == [0.05, 0.1, None]
        assert sup.strategy_statistics("s") == {
            "crash_retries": 2, "crash_budget_exhausted": 1}
        assert sup.crash_retry("t", 0, 0) is None
        assert sup.statistics["crash_budget_exhausted"] == 2


class TestQuarantine:
    """Malformed artifacts are counted and dropped at the pool boundary."""

    def _clean_artifact(self) -> dict:
        # Produce a real artifact by racing the sharing funnel serially.
        pool_probe = {}

        def capture(artifact):
            pool_probe.setdefault("artifact", artifact)

        from repro.portfolio.engine import _execute_strategy
        _execute_strategy(sharing_problem(),
                          Strategy("routes-1", SynthesisOptions(routes=1)),
                          emit=capture)
        assert "artifact" in pool_probe
        return pool_probe["artifact"]

    def test_corrupt_frame_fails_validation_but_clean_passes(self):
        artifact = self._clean_artifact()
        assert validate_artifact(artifact) is None
        assert validate_artifact(corrupt_frame(artifact, 0)) is not None

    def test_pool_quarantines_instead_of_raising(self):
        artifact = self._clean_artifact()
        pool = KnowledgePool()
        assert pool.absorb(artifact, source="clean")
        for junk in (corrupt_frame(artifact, 0), None, 42,
                     {"kind": "clauses"}, {"no": "kind"}):
            assert not pool.absorb(junk, source="junk")
        assert pool.counters["quarantined_artifacts"] == 5

    def test_corrupt_frame_in_race_is_quarantined_not_fatal(self):
        plan = FaultPlan([FaultSpec(CORRUPT, strategy="routes-1",
                                    attempt=0, frame=0)])
        res = synthesize_portfolio(
            sharing_problem(),
            [Strategy("monolithic", SynthesisOptions()),
             Strategy("routes-1", SynthesisOptions(routes=1))],
            timeout=60, supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.supervision_statistics["quarantined_artifacts"] >= 1
        assert res.pool_statistics.get("quarantined_artifacts", 0) >= 1
        assert_no_leaked_workers()


class TestCrashSupervision:
    def test_sigkill_mid_race_is_retried_and_race_wins(self):
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=1)])
        res = synthesize_portfolio(sharing_problem(), mono(), timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        sr = res.result_for("monolithic")
        assert sr.attempts == 2
        assert sr.statistics["crashes"] == 1
        assert res.supervision_statistics["crash_retries"] == 1
        assert not res.degraded_to_serial
        assert_no_leaked_workers()

    def test_hang_is_detected_by_missed_heartbeats(self):
        plan = FaultPlan([FaultSpec(HANG, strategy="monolithic", attempt=1)])
        res = synthesize_portfolio(sharing_problem(), mono(), timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.supervision_statistics["stalls_detected"] == 1
        assert res.supervision_statistics["crash_retries"] == 1
        assert_no_leaked_workers()

    def test_drop_result_is_a_crash_despite_clean_exit(self):
        plan = FaultPlan([FaultSpec(DROP_RESULT, strategy="monolithic",
                                    attempt=1)])
        res = synthesize_portfolio(sharing_problem(), mono(), timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.supervision_statistics["crashes"] == 1
        assert res.result_for("monolithic").attempts == 2
        assert_no_leaked_workers()

    def test_crash_budget_exhaustion_degrades_to_serial(self):
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=a)
                          for a in (1, 2, 3)])
        res = synthesize_portfolio(sharing_problem(), mono(), timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.degraded_to_serial
        stats = res.supervision_statistics
        assert stats["crash_budget_exhausted"] == 1
        assert stats["degradations"] == 1
        assert res.result_for("monolithic").attempts == 4
        assert_no_leaked_workers()

    def test_crash_on_every_attempt_ends_in_error_never_unsat(self):
        # attempt=0 crashes the strategy in the process race AND the
        # serial rescue: both budgets exhaust, and the race must report
        # error/unknown — never a fabricated verdict.
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=0)])
        res = synthesize_portfolio(sharing_problem(), mono(), timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "unknown"
        assert res.result_for("monolithic").status == "error"
        assert res.degraded_to_serial
        assert res.supervision_statistics["crash_budget_exhausted"] >= 2
        assert_no_leaked_workers()

    def test_crash_with_empty_restart_schedule_is_retried(self):
        # Regression: crash retries must not advance the restart-schedule
        # position — a crash with ``timeout`` set and ``restarts=()``
        # used to index past the schedule and crash the whole race.
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=1)])
        strategies = [Strategy("monolithic", SynthesisOptions(),
                               timeout=60.0)]
        res = synthesize_portfolio(sharing_problem(), strategies, timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.result_for("monolithic").attempts == 2
        assert res.supervision_statistics["crash_retries"] == 1
        assert not res.degraded_to_serial
        assert_no_leaked_workers()

    def test_crash_retry_keeps_budget_after_schedule_rerun(self):
        # timeout=0 expires attempt 1 instantly; the schedule grants one
        # more budget; a crash on that rerun is relaunched with the same
        # (last) budget instead of consuming a nonexistent third entry.
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=2)])
        strategies = [Strategy("monolithic", SynthesisOptions(),
                               timeout=0.0, restarts=(120.0,))]
        res = synthesize_portfolio(sharing_problem(), strategies, timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.result_for("monolithic").attempts == 3
        assert res.supervision_statistics["crash_retries"] == 1
        assert_no_leaked_workers()

    def test_crash_backoff_loser_is_cancelled_not_timeout(self):
        # A strategy parked on crash-retry backoff when another strategy
        # wins lost the race — it must not be labeled "timeout" (the
        # race didn't time out), which would skew _final_verdict.
        parked = SupervisionPolicy(heartbeat_interval=0.02,
                                   backoff_base=30.0, backoff_cap=30.0,
                                   kill_grace=0.3)
        plan = FaultPlan([FaultSpec(CRASH, strategy="crasher", attempt=0)])
        strategies = [
            Strategy("monolithic", SynthesisOptions()),
            Strategy("crasher", SynthesisOptions(routes=1)),
        ]
        res = synthesize_portfolio(sharing_problem(), strategies, timeout=60,
                                   supervision=parked, fault_plan=plan)
        assert res.status == "sat"
        assert res.winner == "monolithic"
        assert res.result_for("crasher").status == "cancelled"
        assert_no_leaked_workers()

    def test_non_native_backend_is_exempt_from_stall_detection(self):
        # Only native-backend workers heartbeat (the on_restart hook);
        # a serialization-backend worker quiet past stall_timeout is
        # working, not stalled, and must not be killed.
        policy = SupervisionPolicy(heartbeat_interval=0.02,
                                   stall_timeout=0.15, backoff_base=0.01,
                                   backoff_cap=0.05, kill_grace=0.3)
        plan = FaultPlan([FaultSpec(SLOW_START, strategy="ser",
                                    attempt=0, delay=0.5)])
        strategies = [Strategy("ser",
                               SynthesisOptions(backend="serialization"))]
        res = synthesize_portfolio(sharing_problem(), strategies, timeout=60,
                                   supervision=policy, fault_plan=plan)
        assert res.status == "sat"
        assert res.supervision_statistics["stalls_detected"] == 0
        assert res.result_for("ser").attempts == 1
        assert not res.degraded_to_serial
        assert_no_leaked_workers()

    def test_slow_start_is_not_mistaken_for_a_stall(self):
        plan = FaultPlan([FaultSpec(SLOW_START, strategy="monolithic",
                                    attempt=1, delay=0.2)])
        res = synthesize_portfolio(sharing_problem(), mono(), timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.supervision_statistics["stalls_detected"] == 0
        assert res.supervision_statistics["crashes"] == 0
        assert_no_leaked_workers()


class TestAcceptanceChaos:
    """The ISSUE's acceptance scenario on both reference workloads."""

    def _chaos(self, problem, strategies, plan):
        base = synthesize_portfolio(problem, strategies, timeout=60,
                                    supervision=FAST)
        chaos = synthesize_portfolio(problem, strategies, timeout=60,
                                     supervision=FAST, fault_plan=plan)
        assert chaos.status == base.status
        # Which sat entrant wins is a timing race; its schedule must be valid.
        assert not chaos.ok or collect_violations(chaos.solution) == []
        assert chaos.supervision_statistics["crash_retries"] >= 1
        assert_no_leaked_workers()
        return chaos

    def test_sharing_problem_survives_kill_hang_corrupt(self):
        strategies = [
            Strategy("monolithic", SynthesisOptions()),
            Strategy("routes-1", SynthesisOptions(routes=1)),
            Strategy("routes-2", SynthesisOptions(routes=2)),
            Strategy("stages-2", SynthesisOptions(routes=3, stages=2)),
        ]
        plan = FaultPlan([
            FaultSpec(CRASH, strategy="routes-2", attempt=1),
            FaultSpec(HANG, strategy="stages-2", attempt=1),
            FaultSpec(CORRUPT, strategy="routes-1", attempt=0, frame=0),
        ], seed=11)
        chaos = self._chaos(sharing_problem(), strategies, plan)
        assert chaos.status == "sat"
        assert chaos.supervision_statistics["quarantined_artifacts"] >= 1

    def test_gm_case_study_survives_kill_hang_corrupt(self):
        strategies = [
            Strategy("monolithic", SynthesisOptions(max_conflicts=150)),
            Strategy("routes-1", SynthesisOptions(routes=1)),
            Strategy("stages-2", SynthesisOptions(routes=3, stages=2)),
        ]
        plan = FaultPlan([
            FaultSpec(CRASH, strategy="routes-1", attempt=1),
            FaultSpec(HANG, strategy="stages-2", attempt=1),
            FaultSpec(CORRUPT, strategy="monolithic", attempt=0, frame=0),
        ], seed=13)
        assert self._chaos(gm_case_study(4), strategies, plan).status == "sat"


class TestSerialSupervision:
    def test_serial_injected_crash_is_retried(self):
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=1)])
        res = synthesize_portfolio(sharing_problem(), mono(),
                                   backend="serial", timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "sat"
        assert res.result_for("monolithic").attempts == 2
        assert res.supervision_statistics["crash_retries"] == 1

    def test_serial_exhaustion_is_error_not_crash(self):
        plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=0)])
        res = synthesize_portfolio(sharing_problem(), mono(),
                                   backend="serial", timeout=60,
                                   supervision=FAST, fault_plan=plan)
        assert res.status == "unknown"
        assert res.result_for("monolithic").status == "error"
        assert res.supervision_statistics["crash_budget_exhausted"] == 1

    def test_injected_crash_never_becomes_an_error_payload(self):
        # The blanket except in _execute_strategy must let InjectedCrash
        # through to the supervisor — swallowing it would skip the retry.
        from repro.portfolio.engine import _execute_strategy
        faults = WorkerFaults(strategy="monolithic", attempt=1, harsh=False,
                              crash=FaultSpec(CRASH, strategy="monolithic"))
        crashed = Strategy("monolithic", SynthesisOptions(faults=faults))
        with pytest.raises(InjectedCrash):
            _execute_strategy(sharing_problem(), crashed)

    def test_serial_global_deadline_enforced_mid_strategy(self):
        # One heavy native strategy, a deadline far below its solve
        # time: the watchdog must interrupt the engine mid-check instead
        # of letting the attempt run to completion.
        t0 = time.perf_counter()
        res = synthesize_portfolio(gm_case_study(6), mono(),
                                   backend="serial", timeout=0.3)
        wall = time.perf_counter() - t0
        assert res.status == "timeout"
        assert res.strategy_results[0].status == "timeout"
        # Generous bound: encoding isn't preemptible, solving is.
        assert wall < 30.0


class TestVerdictPreservation:
    """Property: a recoverable FaultPlan changes cost, never the verdict."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           crashes=st.integers(min_value=0, max_value=2),
           hangs=st.integers(min_value=0, max_value=1),
           corruptions=st.integers(min_value=0, max_value=2))
    def test_chaos_plans_never_change_the_verdict(self, seed, crashes,
                                                  hangs, corruptions):
        strategies = [
            Strategy("monolithic", SynthesisOptions()),
            Strategy("routes-1", SynthesisOptions(routes=1)),
        ]
        plan = FaultPlan.chaos(
            seed=seed, strategy_names=[s.name for s in strategies],
            crashes=crashes, hangs=hangs, corruptions=corruptions)
        base = synthesize_portfolio(sharing_problem(), strategies,
                                    timeout=60, supervision=FAST)
        chaos = synthesize_portfolio(sharing_problem(), strategies,
                                     timeout=60, supervision=FAST,
                                     fault_plan=plan)
        assert chaos.status == base.status
        assert chaos.winner == base.winner
        assert_no_leaked_workers()
