"""Assumption probing and core-driven stage repair in the driver.

The funnel workloads are constructed so the probe ladder is exercised
deterministically: shortest-route probing must fail on the contended
funnel (sat overall), the shrunk-period variant is infeasible outright,
and the repair problem is the staged-heuristic trap — stage-0 freezes
block stage 1 — that unsat cores recover.
"""

from fractions import Fraction

import pytest

from repro.core import (
    SynthesisOptions,
    collect_violations,
    solve,
)
from repro.eval.workloads import (
    bottleneck_problem,
    bottleneck_repair_problem,
    gm_case_study,
)


class TestRouteProbing:
    def test_probe_failure_extracts_core_then_solves(self):
        result = solve(bottleneck_problem(3), SynthesisOptions(routes=2))
        assert result.ok
        assert collect_violations(result.solution) == []
        stats = result.statistics
        assert stats["assumption_probes"] >= 1
        assert stats["cores_extracted"] >= 1

    def test_core_guided_relaxation_keeps_innocent_choices(self):
        """With an independent island, the core names only the funnel's
        selectors, so the relaxed re-probe (island stays greedy) wins."""
        result = solve(bottleneck_problem(3, islands=1),
                       SynthesisOptions(routes=2))
        assert result.ok
        stats = result.statistics
        assert stats["assumption_probes"] == 2  # failed probe + relaxed probe
        assert stats["cores_extracted"] == 1
        # the island app kept its shortest route
        island = next(s for s in result.solution.schedules.values()
                      if s.app == "island0")
        assert island.route == ["I0.S", "I0.A", "I0.B", "I0.C"]

    def test_probing_off_matches_status(self):
        on = solve(bottleneck_problem(3), SynthesisOptions(routes=2))
        off = solve(bottleneck_problem(3),
                    SynthesisOptions(routes=2, probe_routes=False))
        assert on.status == off.status == "sat"
        assert off.statistics["assumption_probes"] == 0

    def test_infeasible_instance_stays_unsat(self):
        result = solve(
            bottleneck_problem(3, period=Fraction(35, 10000)),
            SynthesisOptions(routes=2))
        assert not result.ok
        assert result.failed_stage == 0


class TestStageRepair:
    def test_trap_fails_without_repair(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2))
        assert not result.ok
        assert result.failed_stage == 1

    def test_monolithic_solves_the_trap(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=1))
        assert result.ok

    def test_repair_recovers_the_trap(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2, repair=True))
        assert result.ok
        assert collect_violations(result.solution) == []
        stats = result.statistics
        assert stats["stage_repairs"] >= 1
        assert stats["cores_extracted"] >= 1
        # every message still scheduled exactly once
        problem = bottleneck_repair_problem()
        assert set(result.solution.schedules) == {
            m.uid for m in problem.messages
        }

    def test_repair_does_not_change_sat_instances(self):
        plain = solve(bottleneck_problem(3),
                      SynthesisOptions(routes=2, stages=2))
        repaired = solve(bottleneck_problem(3),
                         SynthesisOptions(routes=2, stages=2, repair=True))
        assert plain.status == repaired.status == "sat"

    def test_repair_cannot_fix_genuine_infeasibility(self):
        result = solve(
            bottleneck_problem(3, period=Fraction(35, 10000)),
            SynthesisOptions(routes=2, stages=2, repair=True))
        assert not result.ok

    @pytest.mark.parametrize("backend", ["native", "serialization"])
    def test_backends_agree_on_the_trap(self, backend):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2, backend=backend))
        assert result.status == "unsat"
        # The automotive case is sat, with a clean schedule, on both.
        result = solve(gm_case_study(3),
                       SynthesisOptions(routes=2, stages=3, backend=backend))
        assert result.status == "sat"
        assert collect_violations(result.solution) == []

    def test_max_repair_rounds_bounds_work(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2, repair=True,
                                        max_repair_rounds=0))
        # zero rounds = repair disabled in effect
        assert not result.ok
