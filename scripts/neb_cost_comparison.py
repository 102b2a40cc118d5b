#!/usr/bin/env python3
"""Total-cost comparison of the four neighbourhood investment strategies.

For each margin eps, runs NEB-3 at theta = (4b-2)+eps, NEB-4 at
theta = (4b-3)+eps, and the fitness-observation strategies NEB-i / NEB-ii at
the same eps, deterministic update, and writes the replicate-mean total
costs to a CSV (columns: eps, strategy, mean_total_cost).
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticecoop.analysis import cost_comparison
from latticecoop.cli import positive_int, staged_outputs
from latticecoop.dynamics import Deterministic
from latticecoop.engine import RunConfig
from latticecoop.game import PayoffParams
from latticecoop.interference import Neb, NebI, NebII


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/neb_cost_comparison.csv")
    parser.add_argument("--side-length", type=int, default=100)
    parser.add_argument("--b", type=float, default=1.8)
    parser.add_argument("--replicates", type=positive_int, default=50)
    parser.add_argument("--base-seed", type=int, default=2024)
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument(
        "--eps", type=float, nargs="+", default=[0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    )
    args = parser.parse_args(argv)

    def cfg(scheme):
        return RunConfig(
            side_length=args.side_length,
            payoff=pay,
            scheme=scheme,
            rule=Deterministic(),
            seed=args.base_seed,
        )

    def labelled(eps):
        return [
            ("neb3", cfg(Neb(n_c=3, theta=4 * args.b - 2 + eps))),
            ("neb4", cfg(Neb(n_c=4, theta=4 * args.b - 3 + eps))),
            ("neb_i", cfg(NebI(eps=eps))),
            ("neb_ii", cfg(NebII(eps=eps))),
        ]

    try:
        pay = PayoffParams(b=args.b)
        comparisons = [(eps, labelled(eps)) for eps in args.eps]
    except ValueError as exc:
        parser.error(str(exc))

    out = Path(args.out)
    with staged_outputs(out.parent) as stage, open(stage(out.name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("eps", "strategy", "mean_total_cost"))
        for eps, configs in comparisons:
            table = cost_comparison(configs, n=args.replicates, workers=args.workers)
            for label, cost in table:
                writer.writerow((repr(eps), label, repr(cost)))
            summary = "  ".join(f"{label}={cost:.0f}" for label, cost in table)
            print(f"eps={eps}: {summary}")
    print(f"table written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
