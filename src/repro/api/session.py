"""The unified solving session: one declarative context, pluggable engines.

:class:`Session` is the public solving surface of the reproduction.  It
owns the declarative state — terms, assertions, scopes — and per-session
accounting, and fronts a :class:`~repro.api.backends.SolverBackend` that
does the solving.  Compared to driving the engine
(:class:`repro.smt.SolverEngine`) directly it adds:

* **Pluggable backends** — ``Session(backend="native")`` solves with the
  in-process DPLL(T) engine; ``backend="serialization"`` renders each
  check as SMT-LIB2/DIMACS (optionally solving via z3 or a native
  replay).  Any object satisfying the backend protocol plugs in.
* **Rich outcomes** — ``check()`` returns a :class:`CheckOutcome`
  carrying status, model, per-check statistics, wall time, and (on
  unsat under assumptions) the failed-assumption core.
* **First-class unsat cores** — deletion-minimized by default; an empty
  core means the assertions alone are unsatisfiable.

Quickstart::

    from repro.api import Session
    from repro.smt import Bool, Real, Or, Not

    x, a, b = Real("x"), Bool("a"), Bool("b")
    with Session() as s:
        s.add(Or(Not(a), x >= 4), Or(Not(b), x <= 1))
        out = s.check(a, b)          # assumption probing
        if out == "unsat":
            print(out.unsat_core)    # e.g. (a, b)

See ``docs/api.md`` for the full tour and the migration table from the
legacy surface.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import SolverError
from ..smt.solver import Model
from ..smt.terms import BoolConst, BoolExpr
from .backends import SolverBackend, make_backend
from .outcome import CheckOutcome

#: Session-level counters reported by :attr:`Session.statistics`.
_SESSION_COUNTERS = (
    "checks",
    "sat",
    "unsat",
    "unknown",
    "assumption_checks",
    "cores_extracted",
)


class Session:
    """A solving context: assertions, scopes, statistics, one backend.

    Args:
        backend: a backend name (``"native"``, ``"serialization"``) or a
            ready :class:`SolverBackend` instance.
        minimize_cores: deletion-minimize unsat cores (default on; turn
            off to get the cheaper raw final-conflict core).
        **backend_options: forwarded to the backend factory when
            ``backend`` is a name (e.g. ``theory_propagation=False``,
            ``max_conflicts=10_000`` or ``on_restart=callback`` for
            native, ``dump_dir=...`` for serialization).  With the
            native backend, ``on_restart`` fires with the engine at
            every SAT restart inside a check — the mid-check
            knowledge-export hook — and ``max_conflicts`` bounds each
            check's conflicts, answering ``unknown`` on exhaustion.
    """

    def __init__(self, backend: Union[str, SolverBackend] = "native", *,
                 minimize_cores: bool = True,
                 **backend_options: object) -> None:
        if isinstance(backend, str):
            self._backend: SolverBackend = make_backend(
                backend, **backend_options)
        else:
            if backend_options:
                raise SolverError(
                    "backend_options are only valid with a backend name"
                )
            self._backend = backend
        self.minimize_cores = minimize_cores
        self._frames: List[List[BoolExpr]] = [[]]
        self._counters: Dict[str, int] = {k: 0 for k in _SESSION_COUNTERS}
        self._wall_time = 0.0
        self._last_outcome: Optional[CheckOutcome] = None

    # -- context management ---------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    # -- introspection ----------------------------------------------------

    @property
    def backend(self) -> SolverBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def assertions(self) -> List[BoolExpr]:
        """All live assertions, outermost scope first."""
        return [e for frame in self._frames for e in frame]

    @property
    def num_scopes(self) -> int:
        return len(self._frames) - 1

    @property
    def last_outcome(self) -> Optional[CheckOutcome]:
        return self._last_outcome

    @property
    def statistics(self) -> Dict[str, int]:
        """Session counters plus the backend's cumulative statistics.

        Backend keys are prefixed with the backend name so reports can
        attribute work per backend.
        """
        stats: Dict[str, int] = dict(self._counters)
        stats["wall_time_ms"] = int(self._wall_time * 1000)
        for key, value in self._backend.statistics().items():
            stats[f"{self._backend.name}.{key}"] = value
        return stats

    # -- declarative state -------------------------------------------------

    def add(self, *exprs: BoolExpr | bool | Iterable) -> "Session":
        """Assert formulas in the current scope (lists/tuples flatten).

        Returns ``self`` so construction chains:
        ``Session().add(f).check()``.
        """
        for expr in self._flatten(exprs):
            self._frames[-1].append(expr)
            self._backend.add(expr)
        return self

    def push(self) -> None:
        """Open a retractable assertion scope."""
        self._frames.append([])
        self._backend.push()

    def pop(self, n: int = 1) -> None:
        """Retract the ``n`` innermost scopes and their assertions.

        Raises :class:`SolverError` when ``n`` exceeds the number of
        open scopes (the scope stack is left untouched in that case).
        """
        if n < 0 or n > self.num_scopes:
            raise SolverError(
                f"cannot pop {n} scope(s); {self.num_scopes} pushed"
            )
        self._backend.pop(n)
        for _ in range(n):
            self._frames.pop()

    # -- solving -----------------------------------------------------------

    def check(self, *assumptions: BoolExpr | bool | Iterable) -> CheckOutcome:
        """Decide satisfiability under optional one-shot ``assumptions``.

        Always returns a :class:`CheckOutcome`; on unsat with
        assumptions its ``unsat_core`` is the failed subset (deletion-
        minimized when the session's ``minimize_cores`` is on).
        """
        flat = tuple(self._flatten(assumptions))
        t0 = time.perf_counter()
        answer = self._backend.check(flat, minimize_core=self.minimize_cores)
        wall = time.perf_counter() - t0
        self._wall_time += wall
        self._counters["checks"] += 1
        name = answer.status.name if answer.status.name in (
            "sat", "unsat", "unknown") else "unknown"
        self._counters[name] += 1
        if flat:
            self._counters["assumption_checks"] += 1
        core: Optional[Tuple[BoolExpr, ...]] = None
        if answer.unsat_core is not None:
            core = tuple(answer.unsat_core)
            if core:
                self._counters["cores_extracted"] += 1
        outcome = CheckOutcome(
            status=answer.status,
            model=answer.model,
            statistics=dict(answer.statistics),
            unsat_core=core,
            assumptions=flat,
            backend=self._backend.name,
            wall_time=wall,
        )
        self._last_outcome = outcome
        return outcome

    def interrupt(self) -> None:
        """Abort a running :meth:`check` from another thread.

        The interrupted check answers ``unknown`` and the session stays
        usable.  Only backends exposing an interruptible engine support
        this (the native backend does); others raise
        :class:`SolverError` — callers bounding arbitrary backends
        should gate on the session's ``can_interrupt``.
        """
        interrupt = getattr(self._backend, "interrupt", None)
        if interrupt is None:
            raise SolverError(
                f"backend {self.backend_name!r} is not interruptible"
            )
        interrupt()

    @property
    def can_interrupt(self) -> bool:
        """Does this session's backend support :meth:`interrupt`?"""
        return getattr(self._backend, "interrupt", None) is not None

    def model(self) -> "Model":
        """The last outcome's model (compatibility convenience)."""
        if self._last_outcome is None:
            raise SolverError("model is only available after a sat check()")
        return self._last_outcome.require_model()

    # -- helpers -----------------------------------------------------------

    def _flatten(self, exprs: Iterable[object]) -> Iterable[BoolExpr]:
        for expr in exprs:
            if isinstance(expr, (list, tuple)):
                yield from self._flatten(expr)
                continue
            if isinstance(expr, bool):
                expr = BoolConst(expr)
            if not isinstance(expr, BoolExpr):
                raise SolverError(f"expected a Boolean formula, got {expr!r}")
            yield expr
