#!/usr/bin/env python3
"""Typical stochastic-update runs: per-generation cooperation and cost series.

Runs NEB-3 and POP(p_c = 1.0) at theta = 3 under the Fermi rule (K = 0.3, no
mutation) with a shared seed, and writes one metrics CSV per scheme. With
matched seeds the two strategy trajectories coincide; only the money spent
differs, which is the point of the comparison.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticecoop.cli import positive_int, staged_outputs
from latticecoop.dynamics import Fermi
from latticecoop.engine import RunConfig, run_replicates, write_metrics_csv
from latticecoop.game import PayoffParams
from latticecoop.interference import Neb, Pop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/stochastic")
    parser.add_argument("--side-length", type=int, default=100)
    parser.add_argument("--b", type=float, default=1.8)
    parser.add_argument("--theta", type=float, default=3.0)
    parser.add_argument("--k", type=float, default=0.3)
    parser.add_argument("--replicates", type=positive_int, default=5)
    parser.add_argument("--base-seed", type=int, default=2024)
    parser.add_argument("--workers", type=positive_int, default=1)
    args = parser.parse_args(argv)

    try:
        pay = PayoffParams(b=args.b)
        rule = Fermi(K=args.k, mu=0.0)
        schemes = {"neb3": Neb(n_c=3, theta=args.theta), "pop_full": Pop(p_c=1.0, theta=args.theta)}
        configs = {
            name: RunConfig(
                side_length=args.side_length,
                payoff=pay,
                scheme=scheme,
                rule=rule,
                seed=args.base_seed,
            )
            for name, scheme in schemes.items()
        }
    except ValueError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out)
    with staged_outputs(out_dir) as stage:
        for name, cfg in configs.items():
            results = run_replicates(cfg, args.replicates, workers=args.workers)
            write_metrics_csv(
                stage(f"{name}_metrics.csv"),
                [(f"rep{i:03d}", r) for i, r in enumerate(results)],
            )
            costs = [r.total_cost for r in results]
            full = sum(r.termination.value == "homogeneous_C" for r in results)
            print(
                f"{name}: mean total cost {sum(costs) / len(costs):.3g} over "
                f"{args.replicates} replicates ({full} reached full cooperation)"
            )
    print(f"series written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
