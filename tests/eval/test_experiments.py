"""Smoke tests for the experiment runners (tiny scales; the benchmarks
exercise the real scales)."""

import pytest

from repro.core import Solution
from repro.core.synthesizer import MODE_DEADLINE, SynthesisResult
from repro.errors import ValidationError
from repro.eval import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
)
from repro.eval import experiments
from repro.portfolio import PortfolioResult


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(n_points=7, n_segments=2)

    def test_curve_and_bound(self, result):
        assert len(result.curve.latencies) == 7
        assert len(result.bound.segments) == 2

    def test_render(self, result):
        text = result.render()
        assert "L (ms)" in text
        assert "piecewise" in text


class TestSynthesisRunners:
    def test_fig4_small(self):
        res = run_fig4(n_problems=1, stages_list=(2, 4), routes=3, n_apps=3)
        assert set(res.points) == {2, 4}
        assert all(len(pts) == 1 for pts in res.points.values())
        assert "Fig. 4" in res.render()

    def test_fig5_small(self):
        res = run_fig5(n_problems=1, stages_list=(2, 4), routes=3, n_apps=3)
        assert [s for s, _ in res.unsolved_pct] == [2, 4]
        assert all(0 <= pct <= 100 for _, pct in res.unsolved_pct)
        assert "Fig. 5" in res.render()

    def test_fig6_small(self):
        res = run_fig6(n_problems=1, routes_list=(1, 3), stages=2, n_apps=3)
        assert set(res.points) == {1, 3}
        assert set(res.unsolved_pct) == {1, 3}
        assert "Fig. 6" in res.render()

    def test_fig7_small(self):
        res = run_fig7(switch_counts=(5, 8), n_messages=14, n_apps=3,
                       routes=3, stages=2)
        assert len(res.times) == 2
        assert "Fig. 7" in res.render()

    def test_table1_small(self):
        res = run_table1(n_apps=4, routes=3, stages=2)
        assert res.stability_status == "sat"
        assert res.n_apps == 4
        assert res.stability_stable_count == 4
        text = res.render()
        assert "Stability-Aware" in text and "Deadline" in text


def _unscheduled(problem, mode="stability"):
    """A "sat" schedule that leaves every message unscheduled."""
    return Solution(problem, {}, mode=mode)


class TestRunnersCertifyEverySchedule:
    """A schedule the validator rejects must fail the run (also under -O)."""

    @pytest.mark.parametrize("bad_mode", ["stability", MODE_DEADLINE])
    def test_table1_raises_on_a_violating_schedule(self, monkeypatch, bad_mode):
        real_solve = experiments.solve

        def stub(problem, options):
            if options.mode != bad_mode:
                return real_solve(problem, options)
            return SynthesisResult("sat", _unscheduled(problem, bad_mode), 0.0, 1)

        monkeypatch.setattr(experiments, "solve", stub)
        with pytest.raises(ValidationError, match="not scheduled"):
            run_table1(n_apps=3, routes=2, stages=2)

    def test_portfolio_raises_on_a_violating_winner(self, monkeypatch):
        def stub(problem, strategies, **kwargs):
            return PortfolioResult("sat", "stub", _unscheduled(problem), 0.0, [])

        monkeypatch.setattr(experiments, "synthesize_portfolio", stub)
        with pytest.raises(ValidationError, match="not scheduled"):
            experiments.run_portfolio(n_problems=1, n_apps=3)
