"""latticecoop benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload fermi_paper --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` times the workload's fixed job list in repeated passes for
``--seconds`` (at least one pass) and reports the end-to-end metrics of
BENCHMARK.json. ``--trace 1`` runs each job untraced, traced with every layer
wrapped (workers=1, so all spans live in this process) and untraced again,
then a tracemalloc pass, and reports the per-layer metrics. Every job's outputs
are checked in both modes. Human-readable lines come first; the last line
of standard output is the JSON result. The full report, including layers
that BENCHMARK.json leaves out, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable

import workloads as wl
from calibrate import Calibrator
from tracer import AllocProbe, Patcher, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEFAULT_SEED = 0
ALLOC_GENERATIONS = 3  # the allocation pass runs this many generations + 1 per config
APPLY_FNS = ("apply_pop", "apply_neb", "apply_neb_i", "apply_neb_ii")
STEP_FNS = ("step_deterministic", "step_fermi")
# The program's third-party imports, timed in a fresh process next to each
# set-up sample. Import speed on a shared host drifts by a quarter within
# minutes, and this reference drifts with it, so setup_s is reported in
# seconds on a host where the reference takes REFERENCE_IMPORT_S.
REFERENCE_IMPORT = (
    "import time; s = time.perf_counter(); import numpy, scipy.special; print(time.perf_counter() - s)"
)
REFERENCE_IMPORT_S = 0.4


def pin_allocator() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process and its forks.

    By default glibc adapts both thresholds as blocks are freed, so whether a
    job's temporary arrays come back from the heap or cost fresh page faults
    depends on what else the process allocated before: the same Fermi pass
    took 877k minor faults and about 10 s in one heap state, none and about
    7.5 s in another, and runs flipped between the two. Fixed thresholds
    keep every run in the second state. Returns whether they were set.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 1 << 30))


def workers() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass
class JobRun:
    job: str
    elapsed_ns: int
    outcome: wl.Outcome


# -- one pass over a job list ----------------------------------------------------


def run_pass(lc, workload: wl.Workload, work: Path, tracer: Tracer | None = None, counters=None,
             between: Callable[[], None] | None = None) -> list[JobRun]:
    """Run every job once, timing only the call into the program.

    ``between`` runs before each job and after the last, outside the timing.
    """
    taps = workload.taps
    patcher = Patcher()
    if taps is not None:
        taps.install(lc, patcher, None if tracer is None else tracer.wrap)
    if tracer is not None:
        trace_program(tracer, lc, counters)
    runs = []
    try:
        for job in workload.jobs:
            if between is not None:
                between()
            out = Path(tempfile.mkdtemp(prefix=f"{job.id}-", dir=work))
            tapped_ns = taps.check_ns if taps else 0
            start = time.perf_counter_ns()
            try:
                value = job.call(out)
                elapsed = time.perf_counter_ns() - start - ((taps.check_ns if taps else 0) - tapped_ns)
                outcome = job.check(value, out)
            except Exception as exc:  # a failing job is counted, and the others still run
                traceback.print_exc(file=sys.stderr)
                elapsed = time.perf_counter_ns() - start
                outcome = wl.Outcome("", [f"raised {exc!r}"], 0, 0)
                if taps is not None:
                    taps.take()
            finally:
                shutil.rmtree(out, ignore_errors=True)
            runs.append(JobRun(job.id, elapsed, outcome))
        if between is not None:
            between()
    finally:
        if tracer is not None:
            tracer.uninstall()
        patcher.restore()
    return runs


def judge(passes: list[list[JobRun]], expected: dict | None, reference: dict[str, str] | None = None):
    """(attempted, failed, problems) over all passes.

    A job fails when it broke an invariant, when its digest differs from
    ``reference`` (the same job in the first or the untraced pass), or, at the
    default seed, from the digest stored with the benchmark.
    """
    reference = reference or {r.job: r.outcome.digest for r in passes[0]}
    attempted, problems_by_run = 0, []
    for runs in passes:
        for r in runs:
            attempted += 1
            problems = list(r.outcome.problems)
            if r.outcome.digest != reference.get(r.job):
                problems.append("outputs differ from the same job's reference pass")
            if expected is not None and r.outcome.digest != expected.get(r.job):
                problems.append(f"digest {r.outcome.digest} != stored {expected.get(r.job)}")
            if problems:
                problems_by_run.append((r.job, problems))
    return attempted, len(problems_by_run), problems_by_run


def wall_ns(runs: list[JobRun]) -> int:
    return sum(r.elapsed_ns for r in runs)


# -- --trace 0: end-to-end metrics ---------------------------------------------


def setup_probe(name: str, seed: int, small: bool) -> tuple[float, float]:
    """(set-up time of the workload, reference import time), each in a fresh process."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)]
    argv += ["--small"] if small else []

    def seconds(command: list[str]) -> float:
        return float(subprocess.run(command, capture_output=True, text=True, check=True).stdout.split()[-1])

    reference = seconds([sys.executable, "-c", REFERENCE_IMPORT])
    return seconds(argv), reference


def timed(lc, workload, seconds: float, expected, work: Path,
          probe: Callable[[], tuple[float, float]], calibrator: Calibrator):
    """Passes over the job list until ``seconds`` would be exceeded (at least one).

    ``probe`` times one set-up and one reference import, each in a fresh
    process. It runs before each pass and after the last, so that the set-up
    samples spread over the run.
    """
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        setup.append(probe())
        passes.append(run_pass(lc, workload, work, between=calibrator))
        elapsed = time.perf_counter() - start
        if elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    setup.append(probe())
    attempted, failed, problems = judge(passes, expected)
    # Per-job median over passes, summed: one slow pass of one job moves it little.
    wall_s = sum(statistics.median(p[i].elapsed_ns for p in passes) for i in range(len(passes[0]))) / 1e9
    kernel_s = statistics.median(calibrator.samples) / 1e9
    wall_ref = wall_s / kernel_s
    updates = sum(r.outcome.updates for r in passes[0])
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": (REFERENCE_IMPORT_S * statistics.median(s / r for s, r in setup), "s"),
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s"),
        "setup_reference_s": (statistics.median(r for _, r in setup), "s"),
        "wall_ref": (wall_ref, "ref"),
        "agent_updates_per_ref": (updates / wall_ref, "1/ref"),
        "wall_s": (wall_s, "s"),
        "agent_updates_per_s": (updates / wall_s, "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
        "calibrate.kernel_ms": (kernel_s * 1e3, "ms"),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [wall_ns(p) / 1e9 for p in passes],
        "setup_and_reference_samples_s": setup,
        "kernel_samples_ms": [k / 1e6 for k in calibrator.samples],
        "agent_updates": updates,
        "generations": sum(r.outcome.generations for r in passes[0]),
        "jobs": {r.job: {"digest": r.outcome.digest, "ms": [p[i].elapsed_ns / 1e6 for p in passes]}
                 for i, r in enumerate(passes[0])},
    }
    return metrics, attempted, failed, problems, detail


# -- --trace 1: per-layer metrics ------------------------------------------------


def trace_program(tracer: Tracer, lc, counters: dict) -> None:
    """Wrap each layer's functions where their callers look them up."""

    def on_run(result, args):
        n = len(result.records)
        counters["generations"] += n
        if type(args[0].rule).__name__ == "Deterministic":
            counters["cycle_bytes"] = max(counters["cycle_bytes"], n * result.final_grid.size)

    def on_apply(outcome, _args):
        counters["scheme_apply_calls"] += 1
        counters["scheme_apply_zero"] += outcome.generation_cost == 0.0

    def on_csv(_result, args):
        counters["metrics_csv_bytes"] += os.path.getsize(args[0])

    def on_snapshot(text, _args):
        counters["snapshot_bytes"] += len(text.encode())

    def on_verify(report, _args):
        counters["verify_checks"] += len(report.checked_thetas)

    e = lc.engine
    tracer.install(e, "run", "engine.run", on_run)
    tracer.install(lc.sweep, "run", "engine.run", on_run)
    for attr, name in (
        ("compute_scores", "game.compute_scores"),
        ("apply", "interference.apply"),
        ("step", "dynamics.step"),
        ("grid_hash", "grid.grid_hash"),
        ("is_homogeneous", "engine.is_homogeneous"),
        ("coop_count", "grid.coop_count"),
        ("random_grid", "grid.random_grid"),
    ):
        tracer.install(e, attr, name)
    for fn in STEP_FNS:
        tracer.install(lc.dynamics, fn, f"dynamics.{fn}")
    for fn in APPLY_FNS:
        tracer.install(lc.interference, fn, f"interference.{fn}", on_apply)
    for module in (lc.game, lc.interference, lc.dynamics):
        tracer.install(module, "neighbour_field", "grid.neighbour_field")
    tracer.install(lc.grid.Grid, "__post_init__", "grid.Grid")
    for attr, name, observe in (
        ("main", "cli.main", None),
        ("load_config", "config.load_config", None),
        ("emit_config", "config.emit_config", None),
        ("config_hash", "config.config_hash", None),
        ("run_replicates", "engine.run_replicates", None),
        ("write_metrics_csv", "engine.write_metrics_csv", on_csv),
        ("format_snapshot", "grid.format_snapshot", on_snapshot),
        ("verify_thresholds", "analysis.verify_thresholds", on_verify),
    ):
        tracer.install(lc.cli, attr, name, observe)
    tracer.install(lc.sweep, "aggregate", "analysis.aggregate")
    tracer.install(lc.sweep, "run_sweep", "sweep.run_sweep")


def alloc_pass(lc, configs) -> tuple[dict[str, int], list[str]]:
    probe = AllocProbe()
    probe.install(lc.engine, "compute_scores", "game.compute_scores")
    for fn in APPLY_FNS:
        probe.install(lc.interference, fn, f"interference.{fn}")
    for fn in STEP_FNS:
        probe.install(lc.dynamics, fn, f"dynamics.{fn}")
    calls = [partial(lc.engine.run, replace(c, generations=ALLOC_GENERATIONS, measure_window=1))
             for c in configs]
    return probe.run(calls), probe.absent


def traced(lc, name: str, seed: int, small: bool, expected, work: Path):
    serial = wl.build(lc, name, seed, small, workers=1, work=work)
    tracer = Tracer()
    counters = dict.fromkeys(
        ("generations", "cycle_bytes", "scheme_apply_calls", "scheme_apply_zero",
         "metrics_csv_bytes", "snapshot_bytes", "verify_checks"), 0
    )
    # Each job runs untraced, traced and untraced again, back to back, and the
    # two untraced times are averaged, so that a steady drift in the host's
    # speed does not show up as tracing overhead.
    untraced, traced_runs, again = [], [], []
    for job in serial.jobs:
        alone = replace(serial, jobs=[job])
        untraced += run_pass(lc, alone, work)
        traced_runs += run_pass(lc, alone, work, tracer, counters)
        again += run_pass(lc, alone, work)
    reference = {r.job: r.outcome.digest for r in untraced}
    passes = [untraced, traced_runs, again]
    metrics: dict[str, tuple[float, str]] = {}
    if serial.taps is not None:
        # The workload's own worker count, untraced, for cell times and pool use.
        pooled = wl.build(lc, name, seed, small, workers=workers(), work=work)
        passes.append(run_pass(lc, pooled, work))
        (sweep_start, sweep_end), cell_ends = pooled.taps.last_sweep
        edges = [sweep_start, *cell_ends]
        cells_ms = [(b - a) / 1e6 for a, b in zip(edges, edges[1:])]
        metrics["sweep.cells"] = (len(cells_ms), "count")
        metrics["sweep.cell_ms_p50"] = (statistics.median(cells_ms), "ms")
        metrics["sweep.run_sweep.untraced_ms"] = ((sweep_end - sweep_start) / 1e6, "ms")
        metrics["sweep.workers"] = (workers(), "count")
    attempted, failed, problems = judge(passes, expected, reference)
    metrics["failed_frac"] = (failed / attempted, "ratio")

    peaks, alloc_absent = alloc_pass(lc, serial.alloc_configs())
    for fn, peak in peaks.items():
        metrics[f"{fn}.peak_alloc_bytes"] = (peak, "bytes")

    for span in tracer.names:
        calls, total, own = tracer.stats(span)
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_ms"] = (own / 1e6, "ms")
        metrics[f"{span}.total_ms"] = (total / 1e6, "ms")
        metrics[f"{span}.us_per_call"] = (total / 1e3 / calls if calls else 0.0, "us")
    gens = counters["generations"]
    apply_calls = counters["scheme_apply_calls"]
    metrics.update({
        "engine.generations": (gens, "count"),
        "engine.cycle_bytes_retained": (counters["cycle_bytes"], "bytes"),
        "grid.neighbour_field.calls_per_gen": (
            tracer.stats("grid.neighbour_field")[0] / gens if gens else 0.0, "ratio"),
        "interference.scheme_apply_calls": (apply_calls, "count"),
        "interference.zero_frac": (
            counters["scheme_apply_zero"] / apply_calls if apply_calls else 0.0, "ratio"),
        "analysis.verify_thresholds.checks": (counters["verify_checks"], "count"),
        "engine.write_metrics_csv.bytes": (counters["metrics_csv_bytes"], "bytes"),
        "grid.format_snapshot.bytes": (counters["snapshot_bytes"], "bytes"),
    })
    untraced_ns, traced_ns = (wall_ns(untraced) + wall_ns(again)) / 2, wall_ns(traced_runs)
    check_ns = tracer.stats("perfbench.check")[1]
    in_sweep_ns = tracer.total_ns_within("engine.run", "sweep.run_sweep")
    sweep_ms = metrics.get("sweep.run_sweep.untraced_ms", (0.0,))[0]
    metrics.update({
        "trace.untraced_wall_ms": (untraced_ns / 1e6, "ms"),
        "trace.traced_wall_ms": (traced_ns / 1e6, "ms"),
        "trace.overhead_frac": ((traced_ns - untraced_ns) / untraced_ns, "ratio"),
        # Top-level spans (their self times summed) against the traced wall;
        # the benchmark's own checks inside the CLI commands are left out of both.
        "trace.coverage_frac": ((tracer.root_ns() - check_ns) / traced_ns, "ratio"),
        "sweep.pool_utilisation": (
            in_sweep_ns / 1e6 / (workers() * sweep_ms) if sweep_ms else 0.0, "ratio"),
    })
    detail = {
        "absent": sorted(set(tracer.absent() + alloc_absent)),
        "largest_L": serial.side_length,
        "spans": len(tracer.spans),
        "jobs": {r.job: {"digest": r.outcome.digest, "untraced_ms": r.elapsed_ns / 1e6,
                         "traced_ms": t.elapsed_ns / 1e6} for r, t in zip(untraced, traced_runs)},
    }
    return metrics, attempted, failed, problems, detail, tracer


# -- provenance and output -------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _kib(size: str | None) -> int | None:
    if not size:
        return None
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size) // 1024


def provenance(name: str, seed: int, side: int, n_workers: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(f"{index}/type") != "Instruction":
            caches[f"L{_read(f'{index}/level')}_KiB_per_instance"] = _kib(_read(f"{index}/size"))
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip()
              for line in cpuinfo.splitlines() if line.startswith("model name")]
    revision, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = partial(subprocess.run, capture_output=True, text=True, cwd=ROOT)
        revision = git(["git", "rev-parse", "HEAD"]).stdout.strip() or "unknown"
        dirty = bool(git(["git", "status", "--porcelain", "--untracked-files=no"]).stdout.strip())
    field_kib = side * side * 8 / 1024
    llc_kib = max((v for k, v in caches.items() if v), default=None)
    return {
        "workload": name,
        "seed": seed,
        "workers": n_workers,
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else "unknown",
        "caches": caches,
        "python": platform.python_version(),
        **{dist: metadata.version(dist) for dist in ("numpy", "scipy", "PyYAML")},
        "git_revision": revision,
        "git_dirty": dirty,
        "largest_L": side,
        "float64_field_KiB": field_kib,
        "neighbour_stack_KiB": 4 * field_kib,
        "llc_KiB": llc_kib,
        "cache_resident": None if llc_kib is None else 4 * field_kib < llc_kib,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def stored_digests(name: str, seed: int) -> dict | None:
    """Digests to compare against: those stored with the benchmark, at its default seed only."""
    if seed != DEFAULT_SEED:
        return None
    stored = json.loads((HERE / "digests.json").read_text())
    return stored["workloads"].get(name, {}) if stored["seed"] == seed else {}


def select(metrics: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def report(prov, metrics, problems, absent=()) -> None:
    print(f"# latticecoop benchmark: workload {prov['workload']}, seed {prov['seed']}")
    for key, value in prov.items():
        print(f"#   {key}: {value}")
    if prov["cache_resident"]:
        print(f"#   every array of this workload fits in the last-level cache "
              f"({prov['neighbour_stack_KiB']:.0f} KiB stack < {prov['llc_KiB']} KiB): "
              "it is cache-resident, not a DRAM-bandwidth test")
    for key, (value, unit) in sorted(metrics.items()):
        name = key.rsplit(".", 1)[0]
        mark = "  (absent in this version)" if name in absent else ""
        print(f"{key:48s} {value:>16.6g} {unit}{mark}")
    for job, job_problems in problems[:20]:
        print(f"FAILED {job}: {'; '.join(job_problems[:3])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pinned = pin_allocator()
    try:
        spec = benchmark_spec()
        lc = wl.load_program(ROOT)
    except (wl.MissingProgram, OSError) as exc:
        print(f"cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    tempfile.tempdir = str(work)
    try:
        expected = stored_digests(args.workload, args.seed)
        if args.trace == 0:
            workload = wl.build(lc, args.workload, args.seed, workers=workers(), work=work)
            probe = partial(setup_probe, args.workload, args.seed, False)
            with Calibrator(workload.side_length, workload.processes) as calibrator:
                metrics, attempted, failed, problems, detail = timed(
                    lc, workload, args.seconds, expected, work, probe, calibrator)
            side, wanted, absent = workload.side_length, spec["end_to_end"], ()
        else:
            metrics, attempted, failed, problems, detail, tracer = traced(
                lc, args.workload, args.seed, False, expected, work)
            RESULTS.mkdir(exist_ok=True)
            tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
            side, wanted, absent = detail["largest_L"], spec["per_layer"], detail["absent"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(args.workload, args.seed, side, workers() if args.trace == 0 else 1)
    prov["malloc_thresholds_pinned"] = pinned
    report(prov, metrics, problems, absent)
    RESULTS.mkdir(exist_ok=True)
    full = {
        "provenance": prov,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1, default=str) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": select(metrics, wanted)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
