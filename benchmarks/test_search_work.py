"""Search-work gate: verdicts and deterministic solver counters.

Each case runs one fixed, CI-sized workload through the public entry
points (``solve``, ``synthesize_portfolio``, ``Session``), asserts every
verdict it reaches, and bounds the summed ``conflicts``, ``decisions``
and ``propagations`` at ``TOLERANCE`` times the value recorded for the
current solver.  The solver is single-threaded and seeded, so these
counters are machine-independent: a search change that spends more than
25% extra work on any of them fails here, on any hardware.  Wall time is
measured by ``ctlbench/run.py`` instead.

The counters come from the results themselves
(``SynthesisResult.statistics``, ``StrategyResult.statistics``,
``CheckOutcome.statistics``).  After a deliberate search change,
re-record a ceiling from the ``work`` printed by ``pytest -s`` and say
why in CHANGES.md.

Run: ``python -m pytest benchmarks/test_search_work.py`` (~1 min).
"""

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

import pytest

from repro.api import Session
from repro.core import validate_solution
from repro.core.synthesizer import MODE_DEADLINE, MODE_STABILITY, SynthesisOptions, solve
from repro.eval import workloads
from repro.portfolio import Strategy, synthesize_portfolio

WORK_KEYS = ("conflicts", "decisions", "propagations")
TOLERANCE = 1.25

Statuses = Dict[str, str]
Work = Dict[str, int]


def _sum_work(stats: Iterable[Mapping[str, int]]) -> Work:
    work = dict.fromkeys(WORK_KEYS, 0)
    for entry in stats:
        for key in WORK_KEYS:
            work[key] += entry.get(key, 0)
    return work


def _certified(result) -> None:
    if result.ok:
        validate_solution(result.solution,
                          check_stability=result.solution.mode == MODE_STABILITY)


# ---------------------------------------------------------------------------
# Workloads: each returns (statuses, work)
# ---------------------------------------------------------------------------


def table1() -> Tuple[Statuses, Work]:
    """Table I, 4-app GM case, both columns."""
    problem = workloads.gm_case_study(n_apps=4)
    statuses, results = {}, []
    for mode in (MODE_STABILITY, MODE_DEADLINE):
        result = solve(problem, SynthesisOptions(mode=mode, routes=3, stages=5))
        _certified(result)
        statuses[mode] = result.status
        results.append(result.statistics)
    return statuses, _sum_work(results)


def fig4() -> Tuple[Statuses, Work]:
    """Fig. 4 cells: two random 5-app problems at stages 3 and 5."""
    statuses, results = {}, []
    for stages in (3, 5):
        for seed in (0, 1):
            result = solve(workloads.random_problem(seed, n_apps=5),
                           SynthesisOptions(routes=3, stages=stages))
            _certified(result)
            statuses[f"stages={stages}/seed={seed}"] = result.status
            results.append(result.statistics)
    return statuses, _sum_work(results)


def backends() -> Tuple[Statuses, Work]:
    """The same synthesis through both registered session backends."""
    problem = workloads.gm_case_study(n_apps=3)
    statuses, results = {}, []
    for backend in ("native", "serialization"):
        result = solve(problem, SynthesisOptions(routes=2, stages=3,
                                                 backend=backend))
        _certified(result)
        statuses[backend] = result.status
        results.append(result.statistics)
    return statuses, _sum_work(results)


def unsat_core() -> Tuple[Statuses, Work]:
    """Probe conflict, infeasible funnel, staged trap and its repair."""
    runs = {
        "probe_conflict": (workloads.bottleneck_problem(3, islands=1),
                           SynthesisOptions(routes=2)),
        "infeasible": (workloads.bottleneck_problem(3, period=Fraction(35, 10000)),
                       SynthesisOptions(routes=2)),
        "staged_trap": (workloads.bottleneck_repair_problem(),
                        SynthesisOptions(routes=2, stages=2)),
        "staged_repaired": (workloads.bottleneck_repair_problem(),
                            SynthesisOptions(routes=2, stages=2, repair=True)),
    }
    statuses, results = {}, []
    for label, (problem, options) in runs.items():
        result = solve(problem, options)
        _certified(result)
        statuses[label] = result.status
        results.append(result.statistics)
    cores = sum(r.get("cores_extracted", 0) for r in results)
    statuses["cores_seen"] = "yes" if cores > 0 else "NO"
    return statuses, _sum_work(results)


def dl_propagation() -> Tuple[Statuses, Work]:
    """Difference-chain formulas and line problems, DL propagation off/on."""
    statuses, results = {}, []
    decisions = {False: 0, True: 0}
    dl_propagations = 0

    def absorb(label: str, dl: bool, status, stats: Mapping[str, int]) -> None:
        nonlocal dl_propagations
        statuses[f"{label}/{'on' if dl else 'off'}"] = str(status)
        results.append(stats)
        decisions[dl] += stats.get("decisions", 0)
        if dl:
            dl_propagations += stats.get("dl_propagations", 0)

    for seed in range(3):
        clauses = workloads.difference_chain_formulas(seed)
        for dl in (False, True):
            with Session(dl_propagation=dl) as session:
                session.add(clauses)
                out = session.check()
                if out == "sat":
                    model = out.require_model()
                    assert all(model.eval_bool(c) for c in clauses)
                absorb(f"chains{seed}", dl, out.status, out.statistics)
    for label, period in (("sat", Fraction(95, 10000)),
                          ("unsat", Fraction(9, 1000))):
        problem = workloads.chain_problem(n_apps=4, n_switches=5, period=period)
        for dl in (False, True):
            result = solve(problem, SynthesisOptions(dl_propagation=dl))
            _certified(result)
            absorb(f"line_{label}", dl, result.status, result.statistics)
    statuses["decisions_reduced"] = (
        "yes" if decisions[True] < decisions[False] else "NO")
    statuses["dl_propagations_nonzero"] = "yes" if dl_propagations > 0 else "NO"
    return statuses, _sum_work(results)


def portfolio() -> Tuple[Statuses, Work]:
    """Serial races with knowledge sharing off and on, and a mid-check race.

    Sharing must strictly reduce summed conflicts + decisions at
    identical statuses; the budget-killed monolithic worker's mid-check
    exports must reach the ``routes-1`` winner.
    """
    # dl_propagation off: it prunes the funnels' doomed subtrees on its
    # own, leaving the sharing channel nothing measurable to reduce.
    def strat(name: str, **kw) -> Strategy:
        return Strategy(name, SynthesisOptions(dl_propagation=False, **kw))

    races = {
        "sat": (workloads.sharing_problem(n_apps=4, islands=2),
                [strat("routes-1", routes=1), strat("routes-2", routes=2)]),
        "unsat": (workloads.sharing_unsat_problem(),
                  [strat("routes-2", routes=2), strat("routes-1", routes=1),
                   strat("monolithic", routes=None)]),
    }
    statuses, results = {}, []
    for label, (problem, strategies) in races.items():
        conflicts, work = {}, {}
        for share in (False, True):
            res = synthesize_portfolio(problem, strategies, backend="serial",
                                       share_knowledge=share)
            _certified(res)
            mode = "share" if share else "solo"
            statuses[f"{label}/{mode}/race"] = res.status
            stats = [sr.statistics for sr in res.strategy_results]
            for sr in res.strategy_results:
                statuses[f"{label}/{mode}/{sr.name}"] = sr.status
            results.extend(stats)
            summed = _sum_work(stats)
            conflicts[share] = summed["conflicts"]
            work[share] = summed["conflicts"] + summed["decisions"]
        statuses[f"{label}/sharing_reduces_work"] = (
            "yes" if work[True] < work[False]
            and conflicts[True] <= conflicts[False] else "NO")

    res = synthesize_portfolio(
        workloads.gm_case_study(n_apps=4),
        [strat("monolithic", routes=None, max_conflicts=150),
         strat("routes-1", routes=1)],
        backend="serial", share_knowledge=True)
    _certified(res)
    statuses["midcheck/race"] = res.status
    for sr in res.strategy_results:
        statuses[f"midcheck/{sr.name}"] = sr.status
    results.extend(sr.statistics for sr in res.strategy_results)
    imported = sum(sr.statistics.get("clauses_imported", 0)
                   for sr in res.strategy_results)
    statuses["midcheck/import_seen"] = (
        "yes" if imported > 0
        and res.pool_statistics.get("midcheck_clauses_pooled", 0) > 0 else "NO")
    return statuses, _sum_work(results)


def serial_fallback() -> Tuple[Statuses, Work]:
    """The solve a race degraded to serial runs: sharing funnel, monolithic."""
    res = synthesize_portfolio(workloads.sharing_problem(n_apps=4),
                               [Strategy("monolithic", SynthesisOptions())],
                               backend="serial")
    _certified(res)
    return ({"race": res.status, "monolithic": res.strategy_results[0].status},
            _sum_work(sr.statistics for sr in res.strategy_results))


# ---------------------------------------------------------------------------
# Recorded verdicts and counters
# ---------------------------------------------------------------------------

CASES = {
    "table1": (table1, {"stability": "sat", "deadline": "sat"},
               {"conflicts": 594, "decisions": 144308, "propagations": 218122}),
    "fig4": (fig4, {"stages=3/seed=0": "sat", "stages=3/seed=1": "sat",
                    "stages=5/seed=0": "sat", "stages=5/seed=1": "sat"},
             {"conflicts": 2561, "decisions": 597302, "propagations": 1386531}),
    "backends": (backends, {"native": "sat", "serialization": "sat"},
                 {"conflicts": 184, "decisions": 18407, "propagations": 25262}),
    "unsat_core": (unsat_core, {
        "probe_conflict": "sat", "infeasible": "unsat", "staged_trap": "unsat",
        "staged_repaired": "sat", "cores_seen": "yes"},
        {"conflicts": 8, "decisions": 253, "propagations": 1182}),
    "dl_propagation": (dl_propagation, {
        **{f"chains{s}/{m}": "sat" for s in range(3) for m in ("off", "on")},
        "line_sat/off": "sat", "line_sat/on": "sat",
        "line_unsat/off": "unsat", "line_unsat/on": "unsat",
        "decisions_reduced": "yes", "dl_propagations_nonzero": "yes"},
        {"conflicts": 43, "decisions": 193, "propagations": 655}),
    "portfolio": (portfolio, {
        **{f"sat/{m}/{k}": v for m in ("solo", "share") for k, v in
           (("race", "sat"), ("routes-1", "unsat"), ("routes-2", "sat"))},
        **{f"unsat/{m}/{k}": "unsat" for m in ("solo", "share")
           for k in ("race", "routes-1", "routes-2", "monolithic")},
        "sat/sharing_reduces_work": "yes", "unsat/sharing_reduces_work": "yes",
        "midcheck/race": "sat", "midcheck/monolithic": "unknown",
        "midcheck/routes-1": "sat", "midcheck/import_seen": "yes"},
        {"conflicts": 440, "decisions": 33915, "propagations": 99290}),
    "serial_fallback": (serial_fallback, {"race": "sat", "monolithic": "sat"},
                        {"conflicts": 1, "decisions": 36, "propagations": 160}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_search_work(name):
    run, expected, ceiling = CASES[name]
    statuses, work = run()
    print(f"\n{name}: work={work}")
    assert statuses == expected
    for key in WORK_KEYS:
        assert work[key] <= ceiling[key] * TOLERANCE, (
            f"{name}: {key} {work[key]} > {TOLERANCE} x {ceiling[key]}")
