"""The benchmark's inputs: instance pools, known answers and digests.

Every workload draws on a fixed pool of problems built with the paper's
generators in ``repro.eval.workloads``.  The workload seed permutes:
the order of the applications inside each problem, and the order in
which the pool is solved, afresh for every round.  The program receives
the applications in another order, but the search work of a round stays
the same (conflict and decision counts do not change), which is what
keeps the run-to-run spread inside the bounds: the pool problems differ
from one another by up to 40x in solve time.

Every pool entry carries its expected verdict and the reason it is
known, and whether the run's verdict is exact (single stage over every
simple route, so an answer is a proof) or heuristic (staged).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from repro.core.problem import SynthesisProblem
from repro.core.synthesizer import SynthesisOptions
from repro.eval import workloads as gen

SAT, UNSAT = "sat", "unsat"


@dataclass(frozen=True)
class Instance:
    """One problem with its options and known answer."""

    family: str
    problem: SynthesisProblem
    options: SynthesisOptions
    expected: str
    exact: bool
    reason: str

    def permuted(self, rng: random.Random, prefix: str = "") -> "Instance":
        """The same problem with its applications shuffled (and renamed
        with ``prefix``, which keeps their relative order)."""
        apps = list(self.problem.apps)
        rng.shuffle(apps)
        if prefix:
            apps = [replace(app, name=prefix + app.name) for app in apps]
        problem = SynthesisProblem(self.problem.network, apps,
                                   self.problem.delays)
        return replace(self, problem=problem)


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

#: Apps of the Table I case study: 3 of the 20 (the first three published
#: rows), so a 25 s run holds about a dozen verdicts.
GM_APPS = 3

#: Base seeds of the random 35-node problems and their app count: at 3
#: apps a round of six takes about 1.5 s, so a 25 s run holds over a
#: dozen rounds (at 4 apps two, and solve times of 0.1-4.5 s).
RANDOM35_SEEDS = (0, 1, 2, 3, 4, 5)
RANDOM35_APPS = 3

#: The service stream's slow requests: single-stage random problems, a
#: third of the stream, so the median reply is a small instance and the
#: 90th percentile a random one.
SERVICE_RANDOM_SEEDS = (1, 5)

_FEASIBLE_STAGED = ("feasible: the staged run finds a schedule that the "
                    "validator and the simulator certify")


def gm_pool() -> List[Instance]:
    problem = gen.gm_case_study(n_apps=GM_APPS)
    return [
        Instance(f"gm{GM_APPS}-{mode}", problem,
               SynthesisOptions(mode=mode, routes=3, stages=5), SAT, False,
               f"{mode} mode, routes=3, stages=5: {_FEASIBLE_STAGED}")
        for mode in ("stability", "deadline")
    ]


def random35_pool(seeds: Sequence[int] = RANDOM35_SEEDS,
                  n_apps: int = RANDOM35_APPS, stages: int = 3) -> List[Instance]:
    return [
        Instance(f"random35-s{seed}-a{n_apps}",
               gen.random_problem(seed, n_apps=n_apps),
               SynthesisOptions(routes=3, stages=stages), SAT, False,
               f"routes=3, stages={stages}: {_FEASIBLE_STAGED}")
        for seed in seeds
    ]


def small_pool() -> List[Instance]:
    """Small instances, half of them infeasible by a counting argument."""
    ms = Fraction(1, 1000)
    two = SynthesisOptions(routes=2)
    return [
        Instance("funnel-probe", gen.bottleneck_problem(3, islands=1), two,
               SAT, True, "the relief path carries the third message; the "
               "shortest-route probe fails and its core is relaxed"),
        Instance("funnel-2apps", gen.bottleneck_problem(2), two, SAT, True,
               "two messages fit the direct link's 4.5 ms window"),
        Instance("funnel-3.5ms",
               gen.bottleneck_problem(3, period=Fraction(35, 10) * ms), two,
               UNSAT, True, "a 3.5 ms period is below the relief path's "
               "latency, so link capacity admits too few messages"),
        Instance("funnel-4apps", gen.bottleneck_problem(4), two, UNSAT, True,
               "the direct link holds two and the relief path one "
               "message per 4.5 ms; four do not fit"),
        Instance("chain-9.5ms", gen.chain_problem(), SynthesisOptions(), SAT,
               True, "four messages serialize on the 5-hop line"),
        Instance("chain-9ms", gen.chain_problem(period=9 * ms),
               SynthesisOptions(), UNSAT, True,
               "the single 5-hop route cannot serialize four messages "
               "within 9 ms"),
        Instance("sharing-unsat", gen.sharing_unsat_problem(), two, UNSAT, True,
               "the funnel period is below the relief path's latency"),
        Instance("repair", gen.bottleneck_repair_problem(),
               SynthesisOptions(routes=2, stages=2, repair=True), SAT, False,
               "the monolithic formulation is sat; core-driven repair "
               "recovers the staged trap"),
    ]


def service_pool() -> List[Instance]:
    small = {i.family: i for i in small_pool()}
    return (random35_pool(SERVICE_RANDOM_SEEDS, stages=1)
            + [small[name] for name in ("funnel-probe", "funnel-3.5ms",
                                        "chain-9.5ms", "chain-9ms")])


POOLS = {
    "gm_table1": gm_pool,
    "random35": random35_pool,
    "small_batch": small_pool,
    "service_stream": service_pool,
}


def round_instances(pool: Sequence[Instance], seed: int, index: int,
                    prefix: str = "") -> List[Instance]:
    """Round ``index`` of a seed: every pool entry once, permuted."""
    rng = random.Random(f"{seed}/{index}")
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [pool[i].permuted(rng, prefix) for i in order]


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def _frac(value) -> str:
    return str(Fraction(value))


def _canonical(problem: SynthesisProblem, options: SynthesisOptions,
               ordered: bool) -> dict:
    net = problem.network
    apps = [{
        "name": app.name, "sensor": app.sensor,
        "controller": app.controller, "period": _frac(app.period),
        "frame_bytes": app.frame_bytes,
        "stability": None if app.stability is None else [
            [_frac(s.alpha), _frac(s.beta), _frac(s.l_lo), _frac(s.l_hi)]
            for s in app.stability.segments],
    } for app in problem.apps]
    if not ordered:
        apps.sort(key=lambda a: a["name"])
    return {
        "nodes": sorted((name, net.kind(name).value) for name in net.nodes),
        "links": sorted(sorted(link) for link in net.links),
        "delays": [_frac(problem.delays.sd), _frac(problem.delays.ld)],
        "apps": apps,
        "options": [options.mode, options.routes, options.stages,
                    options.path_cutoff, options.repair],
    }


def digest(items: Sequence[Tuple[SynthesisProblem, SynthesisOptions, str]],
           ordered: bool) -> str:
    """SHA-256 prefix over problems, options and expected verdicts.

    ``ordered`` keeps the application order (the seed's permutation);
    without it the digest names the pool whatever the seed.
    """
    blob = json.dumps([[_canonical(p, o, ordered), e] for p, o, e in items],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def pool_digest(pool: Sequence[Instance]) -> str:
    return digest([(i.problem, i.options, i.expected) for i in pool], False)


def round_digest(instances: Sequence[Instance]) -> str:
    return digest([(i.problem, i.options, i.expected) for i in instances],
                  True)


def recorded_digests(path) -> Dict[str, str]:
    with open(path) as fh:
        return json.load(fh)
