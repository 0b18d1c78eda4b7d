"""Checks every verdict against its instance's known answer.

A sat verdict must come with a schedule that the exact validator
accepts and that the network simulator replays with the same end-to-end
delays.  The functions are looked up on their modules at call time, so
the tracer's wrappers see these calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from repro.core import validator
from repro.core.solution import MessageSchedule, Solution
from repro.errors import ReproError
from repro.sim import netsim

from instances import SAT, UNSAT, Instance

OK, FAILED, WRONG = "ok", "failed", "wrong"


def schedule_problems(solution: Solution, mode: str) -> list:
    """Validator violations plus simulator mismatches ([] = certified)."""
    problems = list(validator.collect_violations(
        solution, check_stability=mode == "stability"))
    if problems:
        return problems
    try:
        netsim.cross_check_e2e(solution, netsim.simulate_solution(solution))
    except ReproError as exc:
        problems.append(f"simulator: {exc}")
    return problems


def judge(instance: Instance, status: str,
          solution: Optional[Solution]) -> tuple:
    """(outcome, detail): ``ok``, ``failed`` (no decided verdict, or a
    staged unsat on a feasible instance) or ``wrong``."""
    if status == SAT:
        if solution is None:
            return WRONG, "sat without a schedule"
        problems = schedule_problems(solution, instance.options.mode)
        if problems:
            return WRONG, "; ".join(problems[:3])
        if instance.expected == UNSAT:
            return WRONG, f"certified schedule on a known-infeasible instance ({instance.reason})"
        return OK, ""
    if status == UNSAT:
        if instance.expected == UNSAT:
            return OK, ""
        if instance.exact:
            return WRONG, f"exact unsat contradicts the known answer ({instance.reason})"
        return FAILED, "staged unsat on a feasible instance"
    return FAILED, f"no verdict ({status})"


def solution_from_wire(instance: Instance, schedules: Iterable[dict]) -> Solution:
    """Rebuild a :class:`Solution` from a service reply's schedules."""
    out = {}
    for entry in schedules:
        out[entry["uid"]] = MessageSchedule(
            uid=entry["uid"], app=entry["app"], route=list(entry["route"]),
            gammas={node: Fraction(value)
                    for node, value in entry["gammas"].items()},
            release=Fraction(entry["release"]), e2e=Fraction(entry["e2e"]))
    return Solution(instance.problem, out, mode=instance.options.mode)
