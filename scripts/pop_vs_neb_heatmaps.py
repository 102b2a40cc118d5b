#!/usr/bin/env python3
"""Sweep tables comparing population-triggered vs neighbourhood-triggered investment.

Produces two CSVs (pop_sweep.csv, neb_sweep.csv) holding the stationary
cooperation frequency and total interference cost over a (theta x threshold)
grid, deterministic update, plus JSON metadata sidecars. The default grid is
a light version; --full runs the dense grid (theta 0.5..8 step 0.5, pop
thresholds 0.1..1.0, 50 replicates), which takes a while on one core.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticecoop.cli import positive_int, staged_outputs
from latticecoop.dynamics import Deterministic
from latticecoop.engine import RunConfig
from latticecoop.game import PayoffParams
from latticecoop.interference import NoInterference
from latticecoop.sweep import SweepSpec, write_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/heatmaps", help="output directory")
    parser.add_argument("--side-length", type=int, default=100)
    parser.add_argument("--b", type=float, default=1.8)
    parser.add_argument("--replicates", type=positive_int, default=5)
    parser.add_argument("--base-seed", type=int, default=2024)
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument("--full", action="store_true", help="dense full-resolution grid")
    args = parser.parse_args(argv)

    if args.full:
        thetas = tuple(0.5 * k for k in range(1, 17))  # 0.5 .. 8.0
        pop_thresholds = tuple(k / 10 for k in range(1, 11))
        replicates = max(args.replicates, 50)
    else:
        thetas = tuple(float(k) for k in range(1, 9))
        pop_thresholds = (0.2, 0.4, 0.6, 0.8, 0.9, 1.0)
        replicates = args.replicates

    try:
        base = RunConfig(
            side_length=args.side_length,
            payoff=PayoffParams(b=args.b),
            scheme=NoInterference(),
            rule=Deterministic(),
            seed=args.base_seed,
        )
        specs = {
            kind: SweepSpec(
                base=base,
                scheme_kind=kind,
                theta_values=thetas,
                threshold_values=thresholds,
                replicates=replicates,
            )
            for kind, thresholds in (("pop", pop_thresholds), ("neb", (0.0, 1.0, 2.0, 3.0, 4.0)))
        }
    except ValueError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out)
    with staged_outputs(out_dir) as stage:
        for kind, spec in specs.items():
            t0 = time.perf_counter()
            cells = write_sweep(
                spec,
                stage(f"{kind}_sweep.metadata.json"),
                stage(f"{kind}_sweep.csv"),
                workers=args.workers,
                progress=lambda done, total, cell, kind=kind: print(
                    f"{kind} cell {done}/{total}: theta={cell.theta} "
                    f"threshold={cell.threshold} coop={cell.mean_coop_fraction:.3f}"
                ),
            )
            print(f"{kind}: {len(cells)} cells in {time.perf_counter() - t0:.1f}s")
    print(f"tables written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
