"""Supervision for portfolio workers: heartbeats, retry, degradation.

The race in :mod:`repro.portfolio.engine` and the synthesis service
both run solver workers (:mod:`repro.portfolio.worker`) that may die
*rudely*.  This module supplies the policy and the accounting that
survive such deaths — see ``docs/robustness.md`` for the full protocol:

* **Heartbeats** — workers emit ``{"kind": "heartbeat"}`` frames from
  the engine's ``on_restart`` hook (throttled to one per
  ``heartbeat_interval``), carrying the conflict/propagation counters,
  plus one frame at attempt start.  The parent timestamps them; a
  worker silent for longer than ``stall_timeout`` (when set) is
  declared stalled and killed.  Only native-backend strategies are
  eligible — no other backend wires the ``on_restart`` hook, so their
  workers heartbeat only once at start and the engine exempts them
  from stall detection (deadlines still bound them).
* **Crash retry with backoff** — a worker that dies without a result
  (SIGKILL, OOM, a dropped result frame) or stalls is relaunched up to
  ``Strategy.max_crash_retries`` times, with capped exponential backoff
  between launches.  Respawns go through the race's knowledge-pool
  seeding, so each retry starts warmer than the original.
* **Degradation accounting** — the :class:`Supervisor` tracks, per
  strategy and in total, crashes, stalls, retries, heartbeats, and
  quarantined frames; the engine folds these into per-strategy
  ``StrategyResult.statistics`` and the race-level
  ``PortfolioResult.supervision_statistics``.
* **Deadlines** — in-process attempts are bounded mid-check by the
  worker's interrupt thread (:class:`repro.portfolio.worker.Interrupter`):
  the engine checks its interrupt flag at every conflict, answers
  ``unknown``, and the race reports that attempt as ``timeout``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .frames import KIND_HEARTBEAT

#: Counter keys every supervisor report carries (zero-filled).
_COUNTERS = (
    "crashes",              # attempts that died without a result
    "stalls_detected",      # attempts killed for missed heartbeats
    "crash_retries",        # relaunches granted after a crash/stall
    "crash_budget_exhausted",  # strategies that ran out of retries
    "heartbeats_seen",
    "quarantined_artifacts",  # frames rejected at a validation boundary
    "degradations",         # strategies re-routed to the serial backend
)

#: Heartbeat counters forwarded into per-strategy statistics (the last
#: value seen wins — it is a progress gauge, not an accumulator).
_HEARTBEAT_STATS = ("conflicts", "propagations")


@dataclass(frozen=True)
class SupervisionPolicy:
    """Tunables of the supervision layer (all deterministic).

    ``stall_timeout`` is None by default: heartbeats are still emitted
    and counted, but nobody is killed for silence — restart boundaries
    are conflict-driven, so a legitimately propagation-heavy solve can
    be quiet for a long time.  Chaos tests (and latency-sensitive
    services) opt in with a timeout matched to their workload.
    """

    heartbeat_interval: float = 0.2     # min seconds between heartbeats
    stall_timeout: Optional[float] = None   # None = stall detection off
    backoff_base: float = 0.05          # first retry delay (seconds)
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0            # ceiling on any single delay
    kill_grace: float = 1.0             # terminate -> join(grace) -> kill

    def __post_init__(self) -> None:
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.kill_grace < 0:
            raise ValueError("kill_grace must be >= 0")

    def backoff(self, retry_no: int) -> float:
        """Delay before retry ``retry_no`` (1-based), capped exponential."""
        if retry_no < 1:
            raise ValueError("retry_no is 1-based")
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** (retry_no - 1))

    def backoff_schedule(self, retries: int) -> List[float]:
        """The full deterministic delay schedule for ``retries`` retries."""
        return [self.backoff(i + 1) for i in range(retries)]


def heartbeat_frame(strategy: str, statistics: Dict[str, int],
                    phase: str = "solve") -> dict:
    """A worker-side heartbeat frame carrying progress counters."""
    frame = {"kind": KIND_HEARTBEAT, "strategy": strategy, "phase": phase}
    for key in _HEARTBEAT_STATS:
        frame[key] = int(statistics.get(key, 0))
    return frame


def valid_heartbeat(frame) -> bool:
    """Pool-boundary validation of a heartbeat frame (quarantine gate)."""
    if not isinstance(frame, dict) or frame.get("kind") != KIND_HEARTBEAT:
        return False
    return all(isinstance(frame.get(key), int) for key in _HEARTBEAT_STATS)


class Supervisor:
    """Parent-side accounting of one race's supervision events.

    Mostly bookkeeping — the engine makes the kill/degrade decisions and
    reports them here, so both race backends (process and serial) and
    the service share one counter vocabulary.  The one decision it owns
    is the crash-retry policy (:meth:`crash_retry`).
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None) -> None:
        self.policy = policy or SupervisionPolicy()
        self.counters: Dict[str, int] = {key: 0 for key in _COUNTERS}
        self._per_strategy: Dict[str, Dict[str, int]] = {}
        self._heartbeat_gauges: Dict[str, Dict[str, int]] = {}

    def _bump(self, strategy: str, key: str, n: int = 1) -> None:
        self.counters[key] += n
        bucket = self._per_strategy.setdefault(strategy, {})
        bucket[key] = bucket.get(key, 0) + n

    # -- event reports ---------------------------------------------------

    def note_heartbeat(self, strategy: str, frame: dict) -> bool:
        """Record one heartbeat; False (and quarantine) when malformed."""
        if not valid_heartbeat(frame):
            self.note_quarantined(strategy)
            return False
        self._bump(strategy, "heartbeats_seen")
        self._heartbeat_gauges[strategy] = {
            key: frame[key] for key in _HEARTBEAT_STATS
        }
        return True

    def note_crash(self, strategy: str) -> None:
        self._bump(strategy, "crashes")

    def note_stall(self, strategy: str) -> None:
        self._bump(strategy, "stalls_detected")

    def crash_retry(self, strategy: str, retries_used: int,
                    max_retries: int) -> Optional[float]:
        """After a crash or stall: the backoff before the next attempt.

        Grants retry ``retries_used + 1`` (recorded as ``crash_retries``)
        while fewer than ``max_retries`` were used, and returns its
        delay; otherwise records ``crash_budget_exhausted`` and returns
        None.  The race and the service both decide through here.
        """
        if retries_used < max_retries:
            self._bump(strategy, "crash_retries")
            return self.policy.backoff(retries_used + 1)
        self._bump(strategy, "crash_budget_exhausted")
        return None

    def note_quarantined(self, strategy: str) -> None:
        self._bump(strategy, "quarantined_artifacts")

    def note_degraded(self, strategy: str) -> None:
        self._bump(strategy, "degradations")

    # -- reports ---------------------------------------------------------

    def strategy_statistics(self, strategy: str) -> Dict[str, int]:
        """Supervision counters to merge into a StrategyResult.

        Keys are only emitted when nonzero, so undisturbed strategies
        keep their statistics dict free of supervision noise; heartbeat
        progress gauges are prefixed ``heartbeat_``.
        """
        stats = {key: value
                 for key, value in self._per_strategy.get(strategy, {}).items()
                 if value}
        for key, value in self._heartbeat_gauges.get(strategy, {}).items():
            stats[f"heartbeat_{key}"] = value
        return stats

    @property
    def statistics(self) -> Dict[str, int]:
        return dict(self.counters)
