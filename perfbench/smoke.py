"""Smoke check of the benchmark harness at tiny L and a few generations.

    python3 perfbench/smoke.py

For every workload, at L <= 16: records digests from one pass, then runs the
timed and the traced modes against them and asserts that no job fails and
that every metric named in BENCHMARK.json, and every per-layer metric the
full report promises, is emitted with its unit. Finally it corrupts one
stored digest and asserts that ``failed_frac`` becomes greater than 0.
"""

import shutil
import tempfile
from functools import partial
from pathlib import Path

import run
import workloads as wl

# Per-layer metrics of the full report (BENCHMARK.json carries a subset).
REPORTED = [
    f"{fn}.{m}"
    for fn in ("dynamics.step_deterministic", "dynamics.step_fermi", "game.compute_scores",
               *(f"interference.{a}" for a in run.APPLY_FNS))
    for m in ("calls", "self_ms", "us_per_call")
] + [
    "grid.neighbour_field.calls_per_gen", "grid.neighbour_field.self_ms", "interference.zero_frac",
    "grid.Grid.calls", "grid.Grid.self_ms", "engine.run.calls", "engine.run.self_ms",
    "engine.generations", "grid.grid_hash.calls", "grid.grid_hash.self_ms",
    "engine.is_homogeneous.self_ms", "engine.cycle_bytes_retained", "sweep.run_sweep.self_ms",
    "analysis.aggregate.self_ms", "analysis.verify_thresholds.self_ms",
    "analysis.verify_thresholds.checks", "config.load_config.self_ms", "config.emit_config.self_ms",
    "config.config_hash.self_ms", "engine.write_metrics_csv.self_ms", "engine.write_metrics_csv.bytes",
    "grid.format_snapshot.self_ms", "grid.format_snapshot.bytes", "trace.overhead_frac",
    "trace.coverage_frac", "failed_frac",
] + ["game.compute_scores.peak_alloc_bytes"] + [
    f"{layer}.{fn}.peak_alloc_bytes"
    for layer, fns in (("interference", run.APPLY_FNS), ("dynamics", run.STEP_FNS))
    for fn in fns
]
SWEEP_ONLY = ["sweep.cell_ms_p50", "sweep.pool_utilisation"]
TIME_UNITS = ("s", "ms", "us")


def emitted(metrics: dict, wanted: list[str]) -> None:
    missing = [name for name in wanted if name not in metrics]
    assert not missing, f"not emitted: {missing}"


def main() -> None:
    spec = run.benchmark_spec()
    (run.HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.HERE / ".work"))
    tempfile.tempdir = str(work)
    try:
        lc = wl.load_program(run.ROOT)
        for name in wl.WORKLOADS:
            workload = wl.build(lc, name, run.DEFAULT_SEED, small=True, workers=run.workers(), work=work)
            digests = {r.job: r.outcome.digest for r in run.run_pass(lc, workload, work)}
            probe = partial(run.setup_probe, name, run.DEFAULT_SEED, True)

            with run.Calibrator(workload.side_length, workload.processes) as calibrator:
                metrics, attempted, failed, problems, _ = run.timed(
                    lc, workload, 0, digests, work, probe, calibrator)
            assert failed == 0 and attempted == len(workload.jobs), problems
            run.select(metrics, spec["end_to_end"])  # raises on a missing metric or another unit
            assert metrics["failed_frac"] == (0.0, "ratio")

            metrics, _, failed, problems, detail, _ = run.traced(
                lc, name, run.DEFAULT_SEED, True, digests, work)
            assert failed == 0, problems
            assert not detail["absent"], detail["absent"]
            listed = run.select(metrics, spec["per_layer"])
            # BENCHMARK.json lists only times of layers that every workload calls.
            zero = [k for k, v in listed.items() if v["unit"] in TIME_UNITS and v["value"] == 0]
            assert not zero, f"listed times that read 0: {zero}"
            emitted(metrics, REPORTED + (SWEEP_ONLY if name == "sweep_cli" else []))

            corrupted = dict(digests, **{workload.jobs[0].id: "0" * 32})
            with run.Calibrator(workload.side_length, workload.processes) as calibrator:
                metrics, _, failed, _, _ = run.timed(
                    lc, workload, 0, corrupted, work, probe, calibrator)
            assert failed == 1 and metrics["failed_frac"][0] > 0, metrics["failed_frac"]
            print(f"{name}: ok ({len(workload.jobs)} jobs)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke OK")


if __name__ == "__main__":
    main()
