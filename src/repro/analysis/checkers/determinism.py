"""``determinism``: result-determining modules must be reproducible.

The service's knowledge cache is keyed by a canonical problem
fingerprint, and the eval workload generators feed the benchmark's
recorded input digests and search-counter ceilings — a wall-clock
read, an unseeded RNG, or iteration over an unordered set in either
would quietly change results between runs (or python processes, under
hash randomization).  Inside the declared
modules this rule flags:

* module-level ``random.*`` calls (``random.Random(seed)`` instances
  are the sanctioned idiom; a bare ``random.Random()`` is still
  unseeded and flagged),
* wall-clock reads whose value can reach a result: ``time.time``,
  ``time.time_ns``, ``datetime.now`` / ``utcnow``, ``date.today``,
* direct iteration over a set expression (``for x in set(...)``,
  set-literal or set-comprehension iterables) — wrap in ``sorted()``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Tuple

from ..core import Checker, Finding, ModuleUnit

RULE = "determinism"

_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}


class DeterminismChecker(Checker):
    rule = RULE
    description = "unseeded randomness / wall clock / set iteration"
    scope = ("repro.service.fingerprint", "repro.eval.workloads")

    def __init__(self, scope: Optional[Tuple[str, ...]] = None) -> None:
        if scope is not None:
            self.scope = scope

    def check_module(self, unit: ModuleUnit) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(unit, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(unit, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iter(unit, gen.iter)

    def _check_call(self, unit: ModuleUnit,
                    node: ast.Call) -> Iterable[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if isinstance(func.value, ast.Name) and func.value.id == "random":
            if func.attr == "Random" and node.args:
                return  # random.Random(seed): the sanctioned idiom
            yield Finding(
                rule=RULE, path=unit.path, line=node.lineno,
                message=f"random.{func.attr}() uses process-global or "
                        "unseeded randomness in a result-determining "
                        "module; thread a seeded random.Random through")
        elif isinstance(func.value, ast.Name) \
                and (func.value.id, func.attr) in _WALL_CLOCK:
            yield Finding(
                rule=RULE, path=unit.path, line=node.lineno,
                message=f"{func.value.id}.{func.attr}() reads the wall "
                        "clock in a result-determining module")

    @staticmethod
    def _check_iter(unit: ModuleUnit, it: ast.AST) -> Iterable[Finding]:
        unordered = (
            isinstance(it, (ast.Set, ast.SetComp))
            or (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset"))
            or (isinstance(it, ast.BinOp)
                and isinstance(it.op, (ast.BitAnd, ast.BitOr, ast.BitXor))
                and any(isinstance(side, ast.Call)
                        and isinstance(side.func, ast.Name)
                        and side.func.id in ("set", "frozenset")
                        for side in (it.left, it.right)))
        )
        if unordered:
            yield Finding(
                rule=RULE, path=unit.path, line=it.lineno,
                message="iteration over an unordered set expression in a "
                        "result-determining module; wrap in sorted()")
