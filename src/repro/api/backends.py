"""Solving engines behind :class:`repro.api.Session`.

A backend is anything satisfying the small :class:`SolverBackend`
protocol: it receives assertions and scope operations as the session
applies them, and answers ``check(assumptions)`` with a
:class:`BackendAnswer`.  Two implementations prove the seam:

* :class:`NativeBackend` — the in-process DPLL(T) engine
  (:class:`repro.smt.SolverEngine`): fully incremental, produces models,
  per-check statistics, and deletion-minimized unsat cores.
* :class:`SerializationBackend` — renders every check as a standalone
  SMT-LIB2 script (or DIMACS CNF for propositional sessions).  The
  script can be written to a directory for offline solving; the status
  it reports comes from a configurable *engine*: ``"z3"`` passes the
  session through the z3 Python bindings when installed, ``"native"``
  (the fallback of ``"auto"``) replays the serialized assertion set on a
  fresh native engine per check — deliberately stateless, which
  cross-checks that the declarative session log is complete — and
  ``"none"`` just serializes and answers ``unknown``.

Backends are looked up by name through :func:`make_backend`, the seam a
third-party engine would register through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Protocol,
                    Sequence, runtime_checkable)

from ..errors import SolverError
from ..smt.solver import CheckResult, Model, SolverEngine, sat, unknown, unsat
from ..smt.terms import BoolExpr
from . import smtlib


@dataclass
class BackendAnswer:
    """One backend's reply to ``check``."""

    status: CheckResult
    model: Optional[Model] = None
    statistics: Dict[str, int] = field(default_factory=dict)
    #: Failed-assumption subset on unsat (None = not computed).
    unsat_core: Optional[List[BoolExpr]] = None
    #: Backend-specific artifacts (e.g. the serialized script path).
    artifacts: Dict[str, str] = field(default_factory=dict)


@runtime_checkable
class SolverBackend(Protocol):
    """What a solving engine must provide to power a session."""

    name: str

    def add(self, expr: BoolExpr) -> None:
        """Assert ``expr`` in the current scope."""

    def push(self) -> None:
        """Open a retractable assertion scope."""

    def pop(self, n: int = 1) -> None:
        """Retract the ``n`` innermost scopes."""

    def check(
        self,
        assumptions: Sequence[BoolExpr],
        minimize_core: bool = True,
    ) -> BackendAnswer:
        """Decide satisfiability under ``assumptions``."""

    def statistics(self) -> Dict[str, int]:
        """Cumulative counters for this backend instance."""


class NativeBackend:
    """The incremental DPLL(T) engine as a session backend.

    ``engine`` injects a prebuilt :class:`SolverEngine` (tests and the
    synthesizer's one-engine-per-run contract use this); by default a
    fresh engine is created from the keyword options.
    """

    name = "native"

    def __init__(self, theory_propagation: bool = True,
                 dl_propagation: bool = True,
                 dl_effort: Optional[int] = None,
                 on_restart: Optional[Callable[[SolverEngine], None]] = None,
                 max_conflicts: Optional[int] = None,
                 engine: Optional[SolverEngine] = None) -> None:
        self._engine = engine if engine is not None else SolverEngine(
            theory_propagation=theory_propagation,
            dl_propagation=dl_propagation,
            dl_effort=dl_effort,
            on_restart=on_restart,
            max_conflicts=max_conflicts)

    @property
    def engine(self) -> SolverEngine:
        """The underlying engine (escape hatch for advanced callers)."""
        return self._engine

    def interrupt(self) -> None:
        """Abort a running check at its next conflict (thread-safe).

        The aborted check answers ``unknown``; the engine stays usable.
        This is the supervision layer's handle for bounding a
        non-preemptible in-process solve by wall clock (see
        :class:`repro.portfolio.worker.Interrupter`).
        """
        self._engine.interrupt()

    def add(self, expr: BoolExpr) -> None:
        self._engine.add(expr)

    def push(self) -> None:
        self._engine.push()

    def pop(self, n: int = 1) -> None:
        self._engine.pop(n)

    def check(
        self,
        assumptions: Sequence[BoolExpr],
        minimize_core: bool = True,
    ) -> BackendAnswer:
        status = self._engine.check(*assumptions)
        stats = self._engine.last_check_statistics
        if status == sat:
            return BackendAnswer(status, self._engine.model(), stats)
        core: Optional[List[BoolExpr]] = None
        # unknown (budget/interrupt abort) has no core to extract.
        if assumptions and status == unsat:
            before = self._engine.core_minimization_checks
            core = self._engine.unsat_core(minimize=minimize_core)
            stats["core_minimization_checks"] = (
                self._engine.core_minimization_checks - before
            )
        return BackendAnswer(status, None, stats, unsat_core=core)

    def statistics(self) -> Dict[str, int]:
        stats = dict(self._engine.statistics)
        stats["core_minimization_checks"] = (
            self._engine.core_minimization_checks
        )
        return stats


class SerializationBackend:
    """Serialize every check; delegate the verdict to a pluggable engine.

    Args:
        engine: ``"auto"`` (z3 when importable, else native replay),
            ``"z3"``, ``"native"``, or ``"none"``.
        dump_dir: when set, each check's script is written there as
            ``check_<n>.smt2`` (or ``.cnf``).
        fmt: ``"smt2"`` (default) or ``"dimacs"`` (propositional
            sessions only).
    """

    name = "serialization"

    def __init__(self, engine: str = "auto",
                 dump_dir: Optional[str | Path] = None,
                 fmt: str = "smt2") -> None:
        if fmt not in ("smt2", "dimacs"):
            raise SolverError(f"unknown serialization format {fmt!r}")
        if engine == "auto":
            engine = "z3" if _z3_module() is not None else "native"
        if engine not in ("z3", "native", "none"):
            raise SolverError(
                f"unknown serialization engine {engine!r} "
                "(use 'auto', 'z3', 'native', or 'none')"
            )
        if engine == "z3" and _z3_module() is None:
            raise SolverError("z3 engine requested but z3 is not installed")
        self.engine = engine
        self.fmt = fmt
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._frames: List[List[BoolExpr]] = [[]]
        self._checks = 0
        self._serialized_bytes = 0
        self._replay_totals: Dict[str, int] = {}
        self.last_script: Optional[str] = None

    # -- session state mirroring ----------------------------------------

    def add(self, expr: BoolExpr) -> None:
        self._frames[-1].append(expr)

    def push(self) -> None:
        self._frames.append([])

    def pop(self, n: int = 1) -> None:
        if n < 0 or n > len(self._frames) - 1:
            raise SolverError(
                f"cannot pop {n} scope(s); {len(self._frames) - 1} pushed"
            )
        for _ in range(n):
            self._frames.pop()

    @property
    def assertions(self) -> List[BoolExpr]:
        return [e for frame in self._frames for e in frame]

    # -- checking --------------------------------------------------------

    def check(
        self,
        assumptions: Sequence[BoolExpr],
        minimize_core: bool = True,
    ) -> BackendAnswer:
        assertions = self.assertions
        if self.fmt == "dimacs" and not assumptions:
            script = smtlib.to_dimacs(assertions)
            suffix = "cnf"
        else:
            script, _terms = smtlib.to_smt2(assertions, assumptions)
            suffix = "smt2"
        self.last_script = script
        self._checks += 1
        self._serialized_bytes += len(script)
        artifacts = {"format": suffix}
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / f"check_{self._checks:04d}.{suffix}"
            path.write_text(script)
            artifacts["path"] = str(path)

        if self.engine == "none":
            return BackendAnswer(unknown, artifacts=artifacts)
        if self.engine == "z3":
            answer = self._check_z3(assertions, assumptions)
        else:
            answer = self._check_replay(assertions, assumptions, minimize_core)
        answer.artifacts.update(artifacts)
        return answer

    def _check_replay(
        self,
        assertions: Sequence[BoolExpr],
        assumptions: Sequence[BoolExpr],
        minimize_core: bool,
    ) -> BackendAnswer:
        """Fresh native engine over the recorded assertion log."""
        engine = SolverEngine()
        for expr in assertions:
            engine.add(expr)
        status = engine.check(*assumptions)
        stats = engine.last_check_statistics
        for key, value in stats.items():
            self._replay_totals[key] = self._replay_totals.get(key, 0) + value
        if status == sat:
            return BackendAnswer(status, engine.model(), stats)
        core = engine.unsat_core(minimize=minimize_core) if assumptions else None
        return BackendAnswer(status, None, stats, unsat_core=core)

    def _check_z3(
        self,
        assertions: Sequence[BoolExpr],
        assumptions: Sequence[BoolExpr],
    ) -> BackendAnswer:
        """Pass the serialized script through the z3 Python bindings."""
        z3 = _z3_module()
        assert z3 is not None  # guarded in __init__
        script, terms = smtlib.to_smt2(
            assertions, assumptions, produce_unsat_assumptions=False
        )
        # Strip the check command: z3's from_string only takes assertions.
        body = "\n".join(
            line for line in script.splitlines()
            if not line.startswith("(check-sat")
            and not line.startswith("(set-option")
        )
        solver = z3.Solver()
        solver.from_string(body)
        guards = []
        for term in terms:
            name = term[1:-1] if term.startswith("|") else term
            if term.startswith("(not "):
                inner = term[len("(not "):-1]
                inner = inner[1:-1] if inner.startswith("|") else inner
                guards.append(z3.Not(z3.Bool(inner)))
            else:
                guards.append(z3.Bool(name))
        res = solver.check(*guards)
        if res == z3.sat:
            model = _model_from_z3(z3, solver.model(), assertions, assumptions)
            return BackendAnswer(sat, model)
        if res == z3.unsat:
            # Match core members against the exact guard ASTs we passed
            # to check() — string matching would miss negated literals
            # (z3 prints ``Not(a)`` where the script says ``(not a)``).
            core_refs = list(solver.unsat_core())
            core = [
                expr for guard, expr in zip(guards, assumptions)
                if any(guard.eq(ref) for ref in core_refs)
            ]
            return BackendAnswer(unsat, unsat_core=core)
        return BackendAnswer(unknown)

    def statistics(self) -> Dict[str, int]:
        stats = dict(self._replay_totals)
        stats["serialized_checks"] = self._checks
        stats["serialized_bytes"] = self._serialized_bytes
        return stats


def _model_from_z3(z3: Any, z3_model: Any,
                   assertions: Sequence[BoolExpr],
                   assumptions: Sequence[BoolExpr]) -> Model:
    """Convert a z3 model into the native :class:`Model`.

    Only the session's own variables are read back (with model
    completion, so unconstrained ones get defaults); values come out as
    exact rationals.
    """
    from fractions import Fraction

    from ..smt.terms import BoolVar, RealVar

    bools: Dict[str, BoolVar] = {}
    reals: Dict[str, RealVar] = {}
    for expr in list(assertions) + list(assumptions):
        smtlib._collect_vars(expr, bools, reals)
    bool_values = {}
    for name, var in bools.items():
        value = z3_model.eval(z3.Bool(name), model_completion=True)
        bool_values[var] = z3.is_true(value)
    real_values = {}
    for name, var in reals.items():
        value = z3_model.eval(z3.Real(name), model_completion=True)
        real_values[var] = Fraction(
            value.numerator_as_long(), value.denominator_as_long()
        )
    return Model(bool_values, real_values)


def _z3_module() -> Any:
    try:
        import z3  # type: ignore
    except ImportError:
        return None
    return z3


#: Backend registry: name -> factory taking keyword options.
BACKENDS: Dict[str, Callable[..., SolverBackend]] = {
    "native": NativeBackend,
    "serialization": SerializationBackend,
}


def make_backend(name: str, **options: object) -> SolverBackend:
    """Instantiate a registered backend by name."""
    factory = BACKENDS.get(name)
    if factory is None:
        raise SolverError(
            f"unknown solver backend {name!r} (have {sorted(BACKENDS)})"
        )
    return factory(**options)
