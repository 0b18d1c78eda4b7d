#!/usr/bin/env python3
"""Steadiness, repeatability and input-digest reports for the benchmark.

    python3 ctlbench/report.py spread --workload random35 --runs 10 --sets 2
    python3 ctlbench/report.py repeat --workload small_batch --seed 4
    python3 ctlbench/report.py digests [--write]

``spread`` runs one workload ``--runs`` times per set, seeds
``--seed0``, ``--seed0 + 1``, ..., and prints for every end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, against the metric's bound in
``BENCHMARK.json``.  With ``--sets 2`` or more it also prints how far
each later set's median moved from the first set's, in the worse
direction, against the bound, and flags runs of one seed whose input
digests differ between sets as incomparable.

``repeat`` makes two traced runs with the same seed and checks that the
deterministic counters agree exactly; a later change may only claim a
count that repeats.

``digests`` prints the pool digest of every workload; ``--write``
records them in ``digests.json``, which ``run.py`` checks its inputs
against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

#: Counters of the traced run that must repeat exactly for one seed.
DETERMINISTIC = (
    "sat.conflicts", "sat.decisions", "sat.propagations", "sat.restarts",
    "smt.theory.theory_propagations",
    "smt.difflogic.dl_propagations_per_call",
    "smt.solver.core_minimization_checks",
    "core.assumption_probes", "core.cores_extracted", "core.stage_repairs",
    "smt.simplex.check.calls", "smt.theory.on_assert.calls",
    "smt.difflogic.implied_bounds.calls", "smt.solver.unsat_core.calls",
)


def run_once(workload, seed, seconds, trace):
    """One benchmark run: (result dict, seed digest)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((line.split()[2] for line in lines
                   if line.startswith("inputs ")), "")
    if proc.returncode != 0:
        print(f"  run {workload} seed {seed} exited {proc.returncode}: "
              f"correct={result.get('correct')}")
    return result, digest


def definition():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spread(args):
    spec_file = definition()
    specs = spec_file["end_to_end"]
    seconds = args.seconds or spec_file["run_seconds"]
    sets = []
    digests = {}
    for k in range(args.sets):
        values = {spec["name"]: [] for spec in specs}
        for i in range(args.runs):
            seed = args.seed0 + i
            result, digest = run_once(args.workload, seed, seconds, 0)
            if digests.setdefault(seed, digest) != digest:
                print(f"  INCOMPARABLE: seed {seed} inputs differ between "
                      f"sets ({digests[seed]} vs {digest})")
            if not result["correct"] or result["failed"]:
                print(f"  seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"  set {k} seed {seed}: " + " ".join(
                f"{name}={entry['value']:.5g}"
                for name, entry in result["metrics"].items()), flush=True)
        sets.append(values)
    steady = True
    print(f"{args.workload}: {args.runs} runs x {args.sets} sets")
    print(f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for spec in specs:
        name, bound = spec["name"], spec["bound"]
        for k, values in enumerate(sets):
            vals = values[name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            verdict = ("steady" if share < bound / 3 else
                       "within bound" if share <= bound else "WIDE")
            if name != "setup_s" and share > bound / 3:
                steady = False
            print(f"  {name:16s} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{share:7.3f} {bound:6.3f}  set {k}: {verdict}")
        first = statistics.median(sets[0][name])
        for k, values in enumerate(sets[1:], start=1):
            later = statistics.median(values[name])
            worse = ((later - first) / first if spec["better"] == "lower"
                     else (first - later) / first)
            verdict = "agrees" if worse <= bound else "DISAGREES"
            if worse > bound:
                steady = False
            print(f"  {name:16s} set {k} vs set 0: worse by {worse:+.3f} "
                  f"(bound {bound}) {verdict}")
    return 0 if steady else 1


def repeat(args):
    runs = [run_once(args.workload, args.seed, None, 1)[0]
            for _ in range(2)]
    ok = True
    for name in DETERMINISTIC:
        a, b = (r["metrics"][name]["value"] for r in runs)
        same = a == b
        ok &= same
        print(f"  {name:42s} {a!s:>14s} {b!s:>14s} "
              f"{'repeats' if same else 'DOES NOT REPEAT'}")
    return 0 if ok else 1


def digests(args):
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(ROOT / "src"))
    from instances import POOLS, pool_digest
    out = {name: pool_digest(make()) for name, make in POOLS.items()}
    for name, value in out.items():
        print(f"  {name:16s} {value}")
    if args.write:
        with open(HERE / "digests.json", "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None):
    from run import pin_hash_seed
    pin_hash_seed(Path(__file__).resolve(), argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed0", type=int, default=100)
    p.add_argument("--seconds", type=float, default=None)
    p = sub.add_parser("repeat")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("digests")
    p.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    return {"spread": spread, "repeat": repeat, "digests": digests}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
