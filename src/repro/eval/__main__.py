"""Command-line experiment runner: ``python -m repro.eval <experiment>``.

Regenerates any of the paper's tables/figures from the terminal::

    python -m repro.eval fig3
    python -m repro.eval fig4 --problems 5 --apps 6 --jobs 4
    python -m repro.eval table1 --apps 20
    python -m repro.eval all

The sweep experiments (fig4/fig5/fig6) accept ``--jobs N`` to fan their
(seed, configuration) grid out over a process pool; results are identical
to the serial run.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "experiment",
        choices=("fig3", "fig4", "fig5", "fig6", "fig7", "table1",
                 "portfolio", "all"),
        help="which artifact to regenerate",
    )
    parser.add_argument("--problems", type=int, default=5,
                        help="number of random problems (figs 4-6)")
    parser.add_argument("--apps", type=int, default=6,
                        help="control applications per problem")
    parser.add_argument("--routes", type=int, default=4,
                        help="candidate routes per application")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the fig4-6 sweeps "
                             "(default: serial)")
    args = parser.parse_args(argv)

    runners = {
        "fig3": lambda: experiments.run_fig3(),
        "fig4": lambda: experiments.run_fig4(
            n_problems=args.problems, n_apps=args.apps, routes=args.routes,
            jobs=args.jobs),
        "fig5": lambda: experiments.run_fig5(
            n_problems=args.problems, n_apps=args.apps, routes=args.routes,
            jobs=args.jobs),
        "fig6": lambda: experiments.run_fig6(
            n_problems=args.problems, n_apps=args.apps, jobs=args.jobs),
        "fig7": lambda: experiments.run_fig7(
            switch_counts=(6, 10, 14, 18), n_messages=24, n_apps=5),
        "table1": lambda: experiments.run_table1(n_apps=args.apps),
        "portfolio": lambda: experiments.run_portfolio(
            n_problems=args.problems, n_apps=args.apps),
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"\n===== {name} =====")
        result = runners[name]()
        print(result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
