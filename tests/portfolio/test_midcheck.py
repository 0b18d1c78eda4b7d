"""Mid-check clause export: restart artifacts and unit round-trips.

PR 4 gave portfolio workers terminal clause export (ship the learnt DB
with the final verdict).  These tests cover the paths added on top: the
``on_restart`` hook that flushes exportable clauses from *inside* a
check — so a worker killed mid-search still contributes — and root-level
(level-0) facts exported as unit clauses, which the learned-clause
export cannot see because unit learnts live on the trail, not in the DB.
"""

from repro.core.synthesizer import SynthesisOptions
from repro.eval import workloads
from repro.portfolio import Strategy, synthesize_portfolio
from repro.portfolio.sharing import (
    KnowledgePool,
    restart_artifacts,
    schedule_vocabulary,
    signature_of,
)
from repro.smt import Bool, Or
from repro.smt.solver import SolverEngine


def _vocab_bool(name_suffix: str):
    """A Boolean inside the cross-strategy stable vocabulary."""
    return Bool(f"ns/R[{name_suffix}]")


class TestUnitExport:
    def test_root_facts_export_as_unit_artifacts(self):
        engine = SolverEngine()
        x, y = _vocab_bool("m0][0"), _vocab_bool("m1][0")
        engine.add(x)                  # root-level fact
        engine.add(Or(x, y))           # non-unit, irrelevant here
        assert engine.check().name == "sat"
        units = engine.export_unit_clauses(vocabulary=schedule_vocabulary)
        assert len(units) == 1
        assert len(units[0]) == 1      # serialized as a 1-tuple

    def test_vocabulary_excludes_stage_guards(self):
        engine = SolverEngine()
        guard = Bool("ns/R[m0][0]!freeze")   # "!" marks a solver-local var
        engine.add(guard)
        assert engine.check().name == "sat"
        assert engine.export_unit_clauses(
            vocabulary=schedule_vocabulary) == []

    def test_units_round_trip_through_the_pool(self):
        exporter = SolverEngine()
        x, y = _vocab_bool("m0][0"), _vocab_bool("m1][0")
        exporter.add(x, Or(x, y))
        assert exporter.check().name == "sat"

        options = SynthesisOptions(routes=1)
        pool = KnowledgePool()
        for artifact in restart_artifacts(options, exporter):
            pool.absorb(artifact, source="exporter")
        assert pool.statistics["midcheck_clauses_pooled"] >= 1

        seed = pool.seed_for(options)
        assert seed is not None
        importer = SolverEngine()
        # Without the unit, phase saving picks x=False (y carries Or).
        importer.add(Or(x, y))
        installed = sum(
            importer.import_clauses(batch.clauses)
            for batch in seed.clause_batches
        )
        assert installed >= 1
        assert importer.clauses_imported == installed
        assert importer.check().name == "sat"
        assert importer.model().eval_bool(x) is True

    def test_incremental_strategies_never_export_midcheck(self):
        engine = SolverEngine()
        engine.add(_vocab_bool("m0][0"))
        assert engine.check().name == "sat"
        staged = SynthesisOptions(routes=1, stages=3)
        assert restart_artifacts(staged, engine) == []

    def test_restart_artifact_is_tagged_midcheck(self):
        engine = SolverEngine()
        engine.add(_vocab_bool("m0][0"))
        assert engine.check().name == "sat"
        options = SynthesisOptions(routes=1)
        artifacts = restart_artifacts(options, engine)
        assert len(artifacts) == 1
        assert artifacts[0]["origin"] == "mid-check"
        assert artifacts[0]["kind"] == "clauses"
        assert artifacts[0]["signature"] == signature_of(options)


class TestMidCheckRace:
    def test_budget_killed_monolithic_seeds_the_winner(self):
        """The mid-check race, end to end on the serial backend.

        The monolithic worker hits ``max_conflicts`` inside its first
        long check and answers unknown — but its restart-boundary
        exports must reach the pool, and the routes-1 winner must
        measurably import them.
        """
        problem = workloads.gm_case_study(n_apps=4)
        strategies = [
            Strategy("monolithic", SynthesisOptions(
                routes=None, dl_propagation=False, max_conflicts=150)),
            Strategy("routes-1", SynthesisOptions(
                routes=1, dl_propagation=False)),
        ]
        res = synthesize_portfolio(problem, strategies, backend="serial",
                                   share_knowledge=True)
        by_name = {sr.name: sr for sr in res.strategy_results}
        assert by_name["monolithic"].status == "unknown"
        assert by_name["routes-1"].status == "sat"
        assert res.status == "sat" and res.winner == "routes-1"
        assert res.pool_statistics["midcheck_clauses_pooled"] > 0
        assert by_name["routes-1"].statistics.get("clauses_imported", 0) > 0

    def test_unknown_is_never_a_race_verdict(self):
        """A budget-killed complete strategy must not decide the race."""
        problem = workloads.gm_case_study(n_apps=4)
        strategies = [
            Strategy("monolithic", SynthesisOptions(
                routes=None, dl_propagation=False, max_conflicts=150)),
        ]
        res = synthesize_portfolio(problem, strategies, backend="serial",
                                   share_knowledge=True)
        assert res.strategy_results[0].status == "unknown"
        assert res.status == "unknown"
        assert res.winner is None
