"""Command-line surface: run, sweep, verify, snapshot.

Exit codes: 0 success, 1 verification contradiction (or nothing checked)
or run failure, 2 config error, 3 I/O error. All outputs of one invocation land under
``<output.directory>/<label>-<config hash>/``; identical inputs reproduce
identical data files.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .analysis import verify_thresholds
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    emit_config,
    load_config,
    read_utf8,
    with_overrides,
)
from .engine import run_replicates, write_metrics_csv
from .grid import format_snapshot, parse_snapshot
from .sweep import write_sweep

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecoop",
        description=(
            "Spatial Prisoner's Dilemma with external investment in cooperators: "
            "seeded runs, parameter sweeps, and threshold verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = argparse.ArgumentParser(add_help=False)  # the options run and sweep share
    experiment.add_argument("--config", required=True, help="experiment config file (YAML)")
    experiment.add_argument("--seed", type=int, default=None, help="override protocol.base_seed")
    experiment.add_argument("--out", default=None, help="override output.directory")
    experiment.add_argument("--workers", type=positive_int, default=_default_workers())
    sub.add_parser("run", parents=[experiment], help="execute the configured run/replicates")
    sub.add_parser(
        "sweep", parents=[experiment], help="run the configured (theta x threshold) sweep"
    )

    p_verify = sub.add_parser(
        "verify", help="check one-step simulations against the closed-form thresholds"
    )
    p_verify.add_argument("b_values", type=float, nargs="+", metavar="B")
    p_verify.add_argument("--points", type=positive_int, default=50, help="theta grid size per b")

    p_snap = sub.add_parser("snapshot", help="re-emit a stored grid snapshot as text")
    p_snap.add_argument("path", help="snapshot file to read")
    return parser


@contextmanager
def staged_outputs(directory: Path):
    """Yield ``stage(name) -> path`` for outputs in ``directory``, made if missing.

    Each output is written as ``<name>.incomplete`` and all are renamed to
    their final names only once the block completes, so an aborted block
    leaves nothing that looks final.
    """
    directory.mkdir(parents=True, exist_ok=True)
    staged: list[Path] = []

    def stage(name: str) -> Path:
        staged.append(directory / f"{name}.incomplete")
        return staged[-1]

    yield stage
    for path in staged:
        path.replace(path.with_suffix(""))


@contextmanager
def _staged(config: ExperimentConfig):
    """``staged_outputs`` in the command's run directory, ``config.yaml`` staged
    first, so an unwritable output directory fails before any run starts."""
    run_dir = Path(config.output_dir) / f"{config.label}-{config_hash(config)}"
    with staged_outputs(run_dir) as stage:
        stage("config.yaml").write_text(emit_config(config), encoding="utf-8")
        yield stage
    print(f"outputs written to {run_dir}")


def cmd_run(args) -> int:
    config = with_overrides(load_config(args.config), seed=args.seed, output_dir=args.out)
    run_config = config.run_config()
    with _staged(config) as stage:
        results = run_replicates(run_config, config.replicates, args.workers)
        labelled = [(f"rep{i:03d}", result) for i, result in enumerate(results)]
        write_metrics_csv(stage("metrics.csv"), labelled)
        for run_id, result in labelled:
            stage(f"final_grid_{run_id}.txt").write_text(
                format_snapshot(result.final_grid), encoding="utf-8"
            )
        for run_id, result in labelled:
            print(
                f"{run_id}: coop={result.stationary_coop_fraction} "
                f"total_cost={result.total_cost} termination={result.termination.value}"
            )
        if len(results) > 1:
            mean_coop = sum(r.stationary_coop_fraction for r in results) / len(results)
            mean_cost = sum(r.total_cost for r in results) / len(results)
            print(f"mean over {len(results)} replicates: coop={mean_coop} total_cost={mean_cost}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = with_overrides(load_config(args.config), seed=args.seed, output_dir=args.out)
    spec = config.sweep_spec()

    def progress(done, total, cell):
        print(
            f"cell {done}/{total}: theta={cell.theta} threshold={cell.threshold} "
            f"coop={cell.mean_coop_fraction} cost={cell.mean_total_cost}"
        )

    with _staged(config) as stage:
        write_sweep(spec, stage("metadata.json"), stage("sweep.csv"), args.workers, progress)
    return EXIT_OK


def cmd_verify(args) -> int:
    passed = True
    for b in args.b_values:
        try:
            result = verify_thresholds(b, n_points=args.points)
        except ValueError as exc:
            raise ConfigError(f"b={b}: {exc}") from exc
        rep = result.report
        band = rep.pop_stable_band
        status = "OK" if result.passed else "NOTHING CHECKED"
        if result.mismatches:
            status = f"{len(result.mismatches)} CONTRADICTIONS"
        print(
            f"b={b}: pop_escape={rep.pop_escape_threshold} "
            f"stable_band=({band[0]}, {band[1]}] neb3_escape={rep.neb3_escape_threshold} "
            f"checked={len(result.checked_thetas)} skipped={len(result.skipped_thetas)} "
            f"[{status}]"
        )
        for miss in result.mismatches:
            print(
                f"  contradiction: b={miss.b} theta={miss.theta} "
                f"expected={miss.expected.value} observed={miss.observed.value}"
            )
        passed = passed and result.passed
    return EXIT_OK if passed else EXIT_FAIL


def cmd_snapshot(args) -> int:
    text = read_utf8(args.path, f"snapshot {args.path}")
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
