"""Command-line surface: run, sweep, verify, snapshot.

Exit codes: 0 success, 1 verification contradiction or run failure,
2 config error, 3 I/O error. All outputs of one invocation land under
``<output.directory>/<label>-<config hash>/``; identical inputs reproduce
identical data files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .analysis import SWEEP_HEADER, sweep_row, verify_thresholds
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    emit_config,
    load_config,
    with_overrides,
)
from .engine import run_replicates, write_metrics_csv
from .grid import format_snapshot, parse_snapshot

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _default_workers() -> int:
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecoop",
        description=(
            "Spatial Prisoner's Dilemma with external investment in cooperators: "
            "seeded runs, parameter sweeps, and threshold verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured run/replicates")
    p_run.add_argument("--config", required=True, help="experiment config file (YAML)")
    p_run.add_argument("--seed", type=int, default=None, help="override protocol.base_seed")
    p_run.add_argument("--out", default=None, help="override output.directory")
    p_run.add_argument("--workers", type=int, default=_default_workers())

    p_sweep = sub.add_parser("sweep", help="run the configured (theta x threshold) sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seed", type=int, default=None, help="override protocol.base_seed")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=_default_workers())

    p_verify = sub.add_parser(
        "verify", help="check one-step simulations against the closed-form thresholds"
    )
    p_verify.add_argument("b_values", type=float, nargs="+", metavar="B")
    p_verify.add_argument("--points", type=int, default=50, help="theta grid size per b")

    p_snap = sub.add_parser("snapshot", help="re-emit a stored grid snapshot as text")
    p_snap.add_argument("path", help="snapshot file to read")
    return parser


def _prepare_run_dir(config: ExperimentConfig) -> Path:
    run_dir = Path(config.output_dir) / f"{config.label}-{config_hash(config)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(emit_config(config))
    return run_dir


def cmd_run(args) -> int:
    config = with_overrides(load_config(args.config), seed=args.seed, output_dir=args.out)
    run_config = config.run_config()
    run_dir = _prepare_run_dir(config)

    results = run_replicates(run_config, config.replicates, run_config.seed, workers=args.workers)
    labelled = [(f"rep{i:03d}", result) for i, result in enumerate(results)]
    # Data files are written under .incomplete names and renamed only once all
    # of them are written, so an aborted run leaves nothing that looks final.
    partials = [run_dir / "metrics.csv.incomplete"]
    write_metrics_csv(partials[0], labelled)
    for run_id, result in labelled:
        partials.append(run_dir / f"final_grid_{run_id}.txt.incomplete")
        partials[-1].write_text(format_snapshot(result.final_grid))
    for partial in partials:
        partial.replace(partial.with_suffix(""))
    for run_id, result in labelled:
        print(
            f"{run_id}: coop={result.stationary_coop_fraction} "
            f"total_cost={result.total_cost} termination={result.termination.value}"
        )
    if len(results) > 1:
        mean_coop = sum(r.stationary_coop_fraction for r in results) / len(results)
        mean_cost = sum(r.total_cost for r in results) / len(results)
        print(f"mean over {len(results)} replicates: coop={mean_coop} total_cost={mean_cost}")
    print(f"outputs written to {run_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .sweep import run_sweep, write_metadata_json

    config = with_overrides(load_config(args.config), seed=args.seed, output_dir=args.out)
    spec = config.sweep_spec()
    run_dir = _prepare_run_dir(config)
    write_metadata_json(run_dir / "metadata.json", spec)

    # Rows stream into a file suffixed .incomplete, renamed only on success,
    # so an aborted sweep is clearly marked.
    partial = run_dir / "sweep.csv.incomplete"
    final = run_dir / "sweep.csv"
    if final.exists():
        final.unlink()
    with open(partial, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)

        def progress(done, total, cell):
            writer.writerow(sweep_row(cell))
            fh.flush()
            print(
                f"cell {done}/{total}: theta={cell.theta} threshold={cell.threshold} "
                f"coop={cell.mean_coop_fraction} cost={cell.mean_total_cost}"
            )

        run_sweep(spec, workers=args.workers, progress=progress)
    partial.rename(final)
    print(f"outputs written to {run_dir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0
    for b in args.b_values:
        try:
            result = verify_thresholds(b, n_points=args.points)
        except ValueError as exc:
            raise ConfigError(f"b={b}: {exc}") from exc
        rep = result.report
        band = rep.pop_stable_band
        status = "OK" if result.passed else f"{len(result.mismatches)} CONTRADICTIONS"
        print(
            f"b={b}: pop_escape={rep.pop_escape_threshold} "
            f"stable_band=({band[0]}, {band[1]}] neb3_escape={rep.neb3_escape_threshold} "
            f"checked={len(result.checked_thetas)} skipped={len(result.skipped_thetas)} "
            f"[{status}]"
        )
        for miss in result.mismatches:
            failures += 1
            print(
                f"  contradiction: b={miss.b} theta={miss.theta} "
                f"expected={miss.expected.value} observed={miss.observed.value}"
            )
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_snapshot(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    try:
        g = parse_snapshot(text)
    except ValueError as exc:
        raise ConfigError(f"snapshot {args.path}: {exc}") from exc
    sys.stdout.write(format_snapshot(g))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "snapshot": cmd_snapshot,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
