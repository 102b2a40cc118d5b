"""The benchmark's workloads: fixed job lists against latticecoop's public API.

fermi_paper  30 serial ``run()`` jobs at L=100 under the Fermi rule (K=0.3):
             5 schemes x b in {1.5, 1.8, 2.0} x mu in {0, 0.01}. Paper-scale
             stochastic regime; small arrays, so per-call overhead shows. No
             deterministic step and no cycle check: the bypass for changes to
             those. b=1.5 and b=2.0 are the score-tie cases.
large_det    2 serial ``run()`` jobs at L=400 under the deterministic rule,
             b=1.8: pop(p_c=0.5, theta=4) and neb(n_c=3, theta=3), both run to
             the 250-generation horizon. Imitate-best, scoring and cycle
             memory at scale; no Fermi step and no neb_i/neb_ii: the bypass
             for changes to those.
sweep_cli    ``latticecoop.cli.main`` in-process: the pop (theta x p_c) sweep
             on the process pool, a deterministic and a Fermi ``run``, and
             ``verify``. The only workload that drives config parsing, the
             pool, aggregation, CSV and snapshot writes.

Job seeds come from the benchmark's own ``--seed`` through
``numpy.random.SeedSequence`` and reach the program as ``RunConfig.seed`` or
the CLI's ``--seed``. Every job returns an ``Outcome``: a digest of its
outputs, the invariants it broke, and the agent updates it performed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import struct
import sys
import time
import types
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

WORKLOADS = ("fermi_paper", "large_det", "sweep_cli")
LAYERS = ("grid", "game", "interference", "dynamics", "engine", "sweep", "analysis", "config", "cli")
CONFIGS = {
    "sweep-pop": "pop_sweep.yaml",
    "run-neb3-det": "neb3_deterministic.yaml",
    "run-fermi-neb3": "fermi_neb3.yaml",
}
VERIFY_B = ("1.4", "1.6", "1.8", "2.0")


class MissingProgram(RuntimeError):
    """The checkout does not hold the latticecoop sources the benchmark drives."""


def load_program(root: Path) -> types.SimpleNamespace:
    """Import latticecoop from ``root/src`` and return its layer modules."""
    src = root / "src"
    if not (src / "latticecoop" / "__init__.py").is_file():
        raise MissingProgram(f"no latticecoop package under {src}")
    for name in CONFIGS.values():
        if not (root / "configs" / name).is_file():
            raise MissingProgram(f"missing config configs/{name}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("latticecoop")
    if Path(package.__file__).resolve().parent != (src / "latticecoop").resolve():
        raise MissingProgram(f"latticecoop imported from {package.__file__}, not {src}")
    modules = {name: importlib.import_module(f"latticecoop.{name}") for name in LAYERS}
    return types.SimpleNamespace(package=package, **modules)


def job_seeds(seed: int, workload: str, n: int) -> list[int]:
    entropy = [seed, zlib.crc32(workload.encode())]
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(n, np.uint64)]


@dataclass
class Outcome:
    digest: str
    problems: list[str]
    updates: int  # agents updated: generations run x L^2, summed over runs
    generations: int


@dataclass
class Job:
    id: str
    call: Callable[[Path], Any]  # the timed call; gets an empty output directory
    check: Callable[[Any, Path], Outcome]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    side_length: int
    # Builds the configs whose first generations feed the allocation pass.
    alloc_configs: Callable[[], list[Any]]
    taps: "Taps | None" = None
    processes: int = 1  # processes the jobs keep busy


# -- RunResult digests and invariants ---------------------------------------


def result_digest(result) -> str:
    """blake2b over records, termination, cycle period and final-grid bytes."""
    h = hashlib.blake2b(digest_size=16)
    for rec in result.records:
        h.update(
            struct.pack(
                "<qqdd", rec.generation, rec.coop_count, rec.generation_cost, rec.cumulative_cost
            )
        )
    h.update(str(result.termination.value).encode())
    h.update(struct.pack("<q", -1 if result.cycle_period is None else result.cycle_period))
    h.update(grid_bytes(result.final_grid))
    return h.hexdigest()


def grid_bytes(grid) -> bytes:
    cells = np.ascontiguousarray(grid.cells, dtype=np.uint8)
    return struct.pack("<q", cells.shape[0]) + cells.tobytes()


def result_problems(result) -> list[str]:
    """Invariants every RunResult keeps, whatever its config."""
    problems = []
    records = result.records
    z = result.final_grid.size
    running = 0.0
    for i, rec in enumerate(records):
        running += rec.generation_cost
        if rec.generation != i:
            problems.append(f"record {i} has generation {rec.generation}")
        if not 0 <= rec.coop_count <= z:
            problems.append(f"record {i} coop_count {rec.coop_count} outside [0, {z}]")
        if rec.cumulative_cost != running:
            problems.append(f"record {i} cumulative cost {rec.cumulative_cost} != running sum {running}")
    if not records:
        problems.append("no generation records")
    elif result.total_cost != records[-1].cumulative_cost:
        problems.append(f"total_cost {result.total_cost} != last cumulative cost")
    cells = np.asarray(result.final_grid.cells)
    term = result.termination.value
    if term == "homogeneous_C" and not (cells == 1).all():
        problems.append("homogeneous_C termination but final grid has defectors")
    if term == "homogeneous_D" and not (cells == 0).all():
        problems.append("homogeneous_D termination but final grid has cooperators")
    if term.startswith("homogeneous") and records and records[-1].coop_count != int(cells.sum()):
        problems.append("last record's coop_count disagrees with the final grid")
    if (term == "cycle_detected") != (result.cycle_period is not None):
        problems.append(f"termination {term} with cycle_period {result.cycle_period}")
    if result.cycle_period is not None and result.cycle_period < 1:
        problems.append(f"cycle period {result.cycle_period} < 1")
    return problems


def horizon_problems(
    n_records: int, termination: str, generations: int, window: int, stops: bool
) -> list[str]:
    """Invariants tying the generation count to the protocol."""
    horizon = generations + window
    problems = []
    if n_records > horizon:
        problems.append(f"{n_records} generations exceed the horizon {horizon}")
    if termination == "completed" and n_records != horizon:
        problems.append(f"completed after {n_records} of {horizon} generations")
    if not stops and termination != "completed":
        problems.append(f"a run that cannot stop early ended with {termination}")
    return problems


def run_job(lc, job_id: str, config) -> Job:
    """One serial ``engine.run`` call, looked up at call time so tracing sees it."""
    # Deterministic runs may end on a cycle; Fermi runs only on absorption, without mutation.
    stops = type(config.rule).__name__ == "Deterministic" or (
        config.early_stop_on_homogeneous and config.rule.mu == 0.0
    )

    def check(result, _out: Path) -> Outcome:
        n = len(result.records)
        problems = result_problems(result) + horizon_problems(
            n, result.termination.value, config.generations, config.measure_window, stops
        )
        if type(config.scheme).__name__ == "NoInterference" and result.total_cost != 0.0:
            problems.append(f"no-interference run paid {result.total_cost}")
        return Outcome(result_digest(result), problems, n * config.side_length**2, n)

    return Job(job_id, lambda _out: lc.engine.run(config), check)


# -- fermi_paper and large_det ------------------------------------------------


def fermi_paper(lc, seed: int, small: bool) -> Workload:
    pkg = lc.package
    side, generations, window = (12, 6, 2) if small else (100, 200, 50)
    schemes = (
        ("none", pkg.NoInterference()),
        ("pop", pkg.Pop(p_c=1.0, theta=3.0)),
        ("neb", pkg.Neb(n_c=3, theta=3.0)),
        ("neb_i", pkg.NebI(eps=0.5)),
        ("neb_ii", pkg.NebII(eps=0.5)),
    )
    grid = [(label, scheme, b, mu)
            for label, scheme in schemes for b in (1.5, 1.8, 2.0) for mu in (0.0, 0.01)]
    jobs, alloc = [], []
    for (label, scheme, b, mu), job_seed in zip(grid, job_seeds(seed, "fermi_paper", len(grid))):
        config = pkg.RunConfig(
            side_length=side,
            payoff=pkg.PayoffParams(b=b),
            scheme=scheme,
            rule=pkg.Fermi(K=0.3, mu=mu),
            generations=generations,
            measure_window=window,
            seed=job_seed,
        )
        jobs.append(run_job(lc, f"{label}-b{b}-mu{mu}", config))
        if b == 1.8 and mu > 0:
            alloc.append(config)
    return Workload("fermi_paper", jobs, side, lambda: alloc)


def large_det(lc, seed: int, small: bool) -> Workload:
    pkg = lc.package
    side, generations, window = (16, 6, 2) if small else (400, 200, 50)
    schemes = (("pop-p0.5-t4", pkg.Pop(p_c=0.5, theta=4.0)), ("neb-n3-t3", pkg.Neb(n_c=3, theta=3.0)))
    configs = [
        (label, pkg.RunConfig(
            side_length=side,
            payoff=pkg.PayoffParams(b=1.8),
            scheme=scheme,
            rule=pkg.Deterministic(),
            generations=generations,
            measure_window=window,
            seed=job_seed,
        ))
        for (label, scheme), job_seed in zip(schemes, job_seeds(seed, "large_det", len(schemes)))
    ]
    jobs = [run_job(lc, label, c) for label, c in configs]
    return Workload("large_det", jobs, side, lambda: [c for _, c in configs])


# -- sweep_cli ------------------------------------------------------------------


@dataclass
class Tapped:
    """What the taps saw of one RunResult inside a CLI command."""

    n_records: int
    size: int
    termination: str
    problems: list[str]
    grid_digest: bytes


@dataclass
class Taps:
    """Result taps on the CLI's calls into the engine and the sweep.

    ``cli.run_replicates`` and ``sweep.aggregate`` hand RunResults to the
    taps, which check and summarise them on the spot, so no result outlives
    the program's own use of it. Time spent in the taps is kept in
    ``check_ns`` and left out of job times.
    """

    runs: list[list[Tapped]] = field(default_factory=list)
    cells: list[list[Tapped]] = field(default_factory=list)
    cell_end_ns: list[int] = field(default_factory=list)
    sweep_ns: list[tuple[int, int]] = field(default_factory=list)
    check_ns: int = 0
    # (run_sweep start and end, each cell's end) of the last sweep checked, in ns.
    last_sweep: tuple[tuple[int, int], list[int]] | None = None

    def take(self) -> "Taps":
        taken = Taps(self.runs, self.cells, self.cell_end_ns, self.sweep_ns)
        self.runs, self.cells, self.cell_end_ns, self.sweep_ns = [], [], [], []
        return taken

    def _summarise(self, results) -> list[Tapped]:
        return [
            Tapped(
                len(r.records),
                r.final_grid.size,
                r.termination.value,
                result_problems(r),
                hashlib.blake2b(grid_bytes(r.final_grid), digest_size=16).digest(),
            )
            for r in results
        ]

    def install(self, lc, patcher, wrap=None) -> None:
        """Tap the CLI's lookups; ``wrap(fn, name)`` lets a tracer span the checks."""
        clock = time.perf_counter_ns
        summarise = self._summarise if wrap is None else wrap(self._summarise, "perfbench.check")

        def tap_replicates(fn):
            def tapped(*args, **kwargs):
                results = fn(*args, **kwargs)
                start = clock()
                self.runs.append(summarise(results))
                self.check_ns += clock() - start
                return results

            return tapped

        def tap_aggregate(fn):
            def tapped(*args, **kwargs):
                start = clock()
                self.cell_end_ns.append(start)
                self.cells.append(summarise(args[0]))
                self.check_ns += clock() - start
                return fn(*args, **kwargs)

            return tapped

        def tap_sweep(fn):
            def tapped(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.sweep_ns.append((start, clock()))

            return tapped

        patcher.replace(lc.cli, "run_replicates", tap_replicates)
        patcher.replace(lc.sweep, "aggregate", tap_aggregate)
        patcher.replace(lc.sweep, "run_sweep", tap_sweep)


def _files_digest(out: Path, names: Callable[[str], bool]) -> tuple[str, dict[str, Path]]:
    files = {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file() and names(p.name)}
    h = hashlib.blake2b(digest_size=16)
    for rel, path in files.items():
        data = path.read_bytes()
        h.update(rel.encode() + b"\0" + struct.pack("<q", len(data)) + data)
    return h.hexdigest(), files


def _protocol(doc: dict) -> tuple[int, int, int, bool]:
    proto = doc["protocol"]
    rule = doc["rule"]
    stops = rule["kind"] == "deterministic" or (
        proto.get("early_stop_on_homogeneous", True) and rule.get("mu", 0.0) == 0.0
    )
    return proto["generations"], proto["measure_window"], proto["replicates"], stops


def _tapped_problems(tapped: list[Tapped], generations: int, window: int, stops: bool) -> list[str]:
    problems = []
    for i, t in enumerate(tapped):
        for p in t.problems + horizon_problems(t.n_records, t.termination, generations, window, stops):
            problems.append(f"replicate {i}: {p}")
    return problems


def _tapped_outcome(digest: str, problems: list[str], tapped: list[Tapped]) -> Outcome:
    generations = sum(t.n_records for t in tapped)
    return Outcome(digest, problems, sum(t.n_records * t.size for t in tapped), generations)


def _cli_call(lc, argv: list[str]):
    def call(out: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return lc.cli.main([*argv, "--out", str(out)] if argv[0] != "verify" else argv)

    return call


def sweep_cli(lc, seed: int, small: bool, workers: int, work: Path) -> Workload:
    config_dir = Path(lc.package.__file__).resolve().parents[2] / "configs"
    docs = {job: yaml.safe_load((config_dir / name).read_text()) for job, name in CONFIGS.items()}
    if small:
        config_dir = work / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        for job, doc in docs.items():
            doc["model"]["side_length"] = 12
            doc["protocol"].update(generations=4, measure_window=2, replicates=2)
            if "sweep" in doc:
                doc["sweep"] = {k: v[:2] for k, v in doc["sweep"].items()}
            (config_dir / CONFIGS[job]).write_text(yaml.safe_dump(doc))
    taps = Taps()
    seeds = dict(zip(CONFIGS, job_seeds(seed, "sweep_cli", len(CONFIGS))))

    def argv(job: str) -> list[str]:
        command = "sweep" if job.startswith("sweep") else "run"
        return [command, "--config", str(config_dir / CONFIGS[job]), "--seed", str(seeds[job]),
                "--workers", str(workers)]

    def check_sweep(rc, out: Path) -> Outcome:
        doc = docs["sweep-pop"]
        generations, window, replicates, stops = _protocol(doc)
        seen = taps.take()
        if len(seen.sweep_ns) == 1:
            taps.last_sweep = (seen.sweep_ns[0], seen.cell_end_ns)
        digest, files = _files_digest(out, lambda n: n == "sweep.csv")
        problems = [] if rc == 0 else [f"exit code {rc}"]
        n_cells = len(doc["sweep"]["theta_values"]) * len(doc["sweep"]["threshold_values"])
        if list(out.rglob("*.incomplete")):
            problems.append("sweep left an .incomplete table")
        if len(files) != 1:
            problems.append(f"expected one sweep.csv, found {len(files)}")
        else:
            with open(next(iter(files.values())), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if len(rows) != n_cells:
                problems.append(f"sweep.csv has {len(rows)} rows, expected {n_cells}")
            if any(row[-1] != str(replicates) for row in rows):
                problems.append(f"a sweep.csv row does not report {replicates} replicates")
        if len(seen.cells) != n_cells or any(len(c) != replicates for c in seen.cells):
            sizes = [len(c) for c in seen.cells]
            problems.append(f"aggregate saw {sizes}, expected {n_cells} x {replicates}")
        tapped = [t for cell in seen.cells for t in cell]
        problems += _tapped_problems(tapped, generations, window, stops)
        return _tapped_outcome(digest, problems, tapped)

    def check_run(job: str) -> Callable[[Any, Path], Outcome]:
        def check(rc, out: Path) -> Outcome:
            generations, window, replicates, stops = _protocol(docs[job])
            seen = taps.take()
            digest, files = _files_digest(
                out, lambda n: n == "metrics.csv" or n.startswith("final_grid_"))
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if len(seen.runs) != 1 or len(seen.runs[0]) != replicates:
                sizes = [len(r) for r in seen.runs]
                problems.append(f"run_replicates returned {sizes}, expected [{replicates}]")
                tapped = [t for r in seen.runs for t in r]
            else:
                tapped = seen.runs[0]
            problems += _tapped_problems(tapped, generations, window, stops)
            metrics = [p for rel, p in files.items() if rel.endswith("metrics.csv")]
            snapshots = sorted(p for rel, p in files.items() if "final_grid_" in rel)
            if len(metrics) != 1:
                problems.append(f"expected one metrics.csv, found {len(metrics)}")
            else:
                with open(metrics[0], newline="") as fh:
                    n_rows = sum(1 for _ in csv.reader(fh)) - 1
                recorded = sum(t.n_records for t in tapped)
                if n_rows != recorded:
                    problems.append(f"metrics.csv has {n_rows} rows, runs recorded {recorded}")
            if len(snapshots) != len(tapped):
                problems.append(f"{len(snapshots)} snapshots for {len(tapped)} replicates")
            for path, t in zip(snapshots, tapped):
                parsed = lc.grid.parse_snapshot(path.read_text())
                if hashlib.blake2b(grid_bytes(parsed), digest_size=16).digest() != t.grid_digest:
                    problems.append(f"{path.name} does not parse back to the final grid")
            return _tapped_outcome(digest, problems, tapped)

        return check

    def check_verify(rc, _out: Path) -> Outcome:
        taps.take()
        problems = [] if rc == 0 else [f"verify exit code {rc}"]
        digest = hashlib.blake2b(f"exit={rc}".encode(), digest_size=16).hexdigest()
        return Outcome(digest, problems, 0, 0)

    jobs = [Job("sweep-pop", _cli_call(lc, argv("sweep-pop")), check_sweep)]
    jobs += [Job(job, _cli_call(lc, argv(job)), check_run(job))
             for job in ("run-neb3-det", "run-fermi-neb3")]
    jobs.append(Job("verify", _cli_call(lc, ["verify", *VERIFY_B]), check_verify))

    def alloc_configs() -> list[Any]:
        configs = []
        for job, name in CONFIGS.items():
            config = lc.config.with_overrides(lc.config.load_config(config_dir / name), seed=seeds[job])
            if job.startswith("sweep"):
                spec = config.sweep_spec()
                scheme = spec.cell_scheme(spec.theta_values[0], spec.threshold_values[0])
                configs.append(replace(spec.base, scheme=scheme))
            else:
                configs.append(config.run_config())
        return configs

    side = max(doc["model"]["side_length"] for doc in docs.values())
    return Workload("sweep_cli", jobs, side, alloc_configs, taps, workers)


def build(
    lc, name: str, seed: int, small: bool = False, workers: int = 1, work: Path | None = None
) -> Workload:
    if name == "fermi_paper":
        return fermi_paper(lc, seed, small)
    if name == "large_det":
        return large_det(lc, seed, small)
    if name == "sweep_cli":
        return sweep_cli(lc, seed, small, workers, work)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
