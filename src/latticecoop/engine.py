"""Generation loop: scoring, interference gating, termination, replicates.

Each generation runs the fixed phase order

    interference (``none`` on homogeneous grids) -> record metrics ->
    strategy update (by code after none, pop, neb; on base + surplus after neb_i, neb_ii)

for ``generations + measure_window`` generations, stopping early when the
population is absorbed (homogeneous, no mutation) or, under the
deterministic rule, when a grid state repeats (cycle). The stationary
cooperation level averages the measurement window, the absorbed value, or
the detected cycle. Identical (config, seed) always produces an identical
RunResult, byte for byte, regardless of worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dynamics import Deterministic, Fermi, UpdateRule, step
from .game import PayoffParams, compute_scores, score_table
from .grid import MIN_SIDE_LENGTH, Grid, Strategy, check_field_types, coop_count, random_grid
from .grid import grid_hash  # noqa: F401 (perfbench looks grid.grid_hash up here only)
from .interference import InterferenceScheme, NoInterference, apply

MAX_SEED = 2**64  # seeds are 64-bit unsigned
# Largest L whose per-generation Fermi draw, Z = L * L rows of three float64
# (24 bytes), stays addressable.
MAX_SIDE_LENGTH = math.isqrt(np.iinfo(np.intp).max // 24)


class Termination(str, Enum):
    COMPLETED = "completed"
    HOMOGENEOUS_C = "homogeneous_C"
    HOMOGENEOUS_D = "homogeneous_D"
    CYCLE_DETECTED = "cycle_detected"


@dataclass(frozen=True)
class RunConfig:
    """Full parameterisation of one simulation run."""

    side_length: int
    payoff: PayoffParams
    scheme: InterferenceScheme
    rule: UpdateRule
    generations: int = 200
    measure_window: int = 50
    seed: int = 0
    initial_coop_probability: float = 0.5
    initial_exact_fraction: bool = False
    early_stop_on_homogeneous: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        if not MIN_SIDE_LENGTH <= self.side_length <= MAX_SIDE_LENGTH:
            raise ValueError(
                f"side_length must be in [{MIN_SIDE_LENGTH}, {MAX_SIDE_LENGTH}], "
                f"got {self.side_length}"
            )
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if self.measure_window < 1:
            raise ValueError(f"measure_window must be >= 1, got {self.measure_window}")
        if not 0.0 <= self.initial_coop_probability <= 1.0:
            raise ValueError(
                "initial_coop_probability must be in [0, 1], "
                f"got {self.initial_coop_probability}"
            )
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    coop_count: int
    generation_cost: float
    cumulative_cost: float


@dataclass(frozen=True)
class RunResult:
    records: tuple[GenerationRecord, ...]
    stationary_coop_fraction: float
    total_cost: float
    termination: Termination
    cycle_period: int | None
    final_grid: Grid


def is_homogeneous(g: Grid) -> Strategy | None:
    """The common strategy if every cell is equal, else None."""
    x_c = coop_count(g)
    return Strategy.C if x_c == g.size else Strategy.D if x_c == 0 else None


def step_generation(
    g: Grid,
    payoff: PayoffParams,
    scheme: InterferenceScheme,
    rule: UpdateRule,
    rng: np.random.Generator | None = None,
) -> tuple[Grid, float]:
    """Advance one generation; returns (next grid, interference cost paid).

    A homogeneous grid steps as a ``none`` generation: it is absorbing
    without mutation, so investing there is pure waste. After a flat
    investment (none, pop, neb: ``n_c`` set) a cell's score follows from its
    code, so the rule steps on the ten scores by code (``game.score_table``)
    and builds no float scores. ``neb_i`` and ``neb_ii`` step on the per-cell
    float scores ``base + surplus``.
    """
    if is_homogeneous(g) is not None:
        scheme = NoInterference()
    outcome = apply(scheme, g, payoff)
    if outcome.n_c is None:
        scores = compute_scores(g, payoff) + outcome.surplus
    else:
        if isinstance(rule, Deterministic):
            # The key path reads no base scores: they are computed there only while
            # perfbench taps compute_scores (ROADMAP item 1).
            compute_scores(g, payoff)
        scores = score_table(payoff, outcome.theta, outcome.n_c)
    return step(g, scores, rule, rng), outcome.generation_cost


def run(config: RunConfig) -> RunResult:
    """Execute one seeded run; see the module docstring for the protocol."""
    rng = np.random.default_rng(config.seed)
    g = random_grid(
        config.side_length,
        config.initial_coop_probability,
        rng,
        exact_fraction=config.initial_exact_fraction,
    )

    deterministic = isinstance(config.rule, Deterministic)
    # Homogeneity is absorbing only without mutation.
    mutates = isinstance(config.rule, Fermi) and config.rule.mu > 0.0
    stop_when_homogeneous = config.early_stop_on_homogeneous and not mutates
    total_generations = config.generations + config.measure_window

    records: list[GenerationRecord] = []
    cumulative = 0.0
    termination = Termination.COMPLETED
    cycle_period: int | None = None
    cycle_start: int | None = None
    # bit-packed cells (L is fixed within a run) -> first generation in that state
    seen: dict[bytes, int] = {}

    for generation in range(total_generations):
        if deterministic:
            state = np.packbits(g.cells).tobytes()
            if state in seen:
                termination = Termination.CYCLE_DETECTED
                cycle_start = seen[state]
                cycle_period = generation - cycle_start
                break
            seen[state] = generation

        # A grid is homogeneous exactly when it holds 0 or Z cooperators.
        x_c = coop_count(g)
        if stop_when_homogeneous and x_c in (0, g.size):
            records.append(GenerationRecord(generation, x_c, 0.0, cumulative))
            termination = Termination.HOMOGENEOUS_C if x_c else Termination.HOMOGENEOUS_D
            break

        next_grid, cost = step_generation(g, config.payoff, config.scheme, config.rule, rng)
        cumulative += cost
        records.append(GenerationRecord(generation, x_c, cost, cumulative))
        g = next_grid

    stationary = _stationary_fraction(
        records, termination, cycle_start, cycle_period, config.measure_window, g.size
    )
    return RunResult(
        records=tuple(records),
        stationary_coop_fraction=stationary,
        total_cost=records[-1].cumulative_cost if records else 0.0,
        termination=termination,
        cycle_period=cycle_period,
        final_grid=g,
    )


def _stationary_fraction(
    records: Sequence[GenerationRecord],
    termination: Termination,
    cycle_start: int | None,
    cycle_period: int | None,
    measure_window: int,
    z: int,
) -> float:
    if termination == Termination.HOMOGENEOUS_C:
        return 1.0
    if termination == Termination.HOMOGENEOUS_D:
        return 0.0
    if termination == Termination.CYCLE_DETECTED:
        # Average one full cycle, or the measure window if that is longer,
        # of the trajectory that repeats forever.
        assert cycle_start is not None and cycle_period is not None
        window = max(cycle_period, measure_window)
        counts = [
            records[cycle_start + (j % cycle_period)].coop_count for j in range(window)
        ]
        return float(np.mean(counts) / z)
    window = records[-measure_window:]
    return float(np.mean([rec.coop_count for rec in window]) / z)


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic 64-bit child seed from a parent seed and index path.

    Feeds (seed, *indices) into numpy's SeedSequence entropy mixer, so
    replicates and sweep cells get independent streams in any execution
    order.
    """
    ss = np.random.SeedSequence([seed, *indices])
    return int(ss.generate_state(1, np.uint64)[0])


def replicate_configs(config: RunConfig, n: int) -> list[RunConfig]:
    """The n per-replicate configs, seeded from (config.seed, replicate index)."""
    if n < 1:
        raise ValueError(f"replicate count must be >= 1, got {n}")
    return [replace(config, seed=derive_seed(config.seed, i)) for i in range(n)]


def run_many(configs: Sequence[RunConfig], workers: int = 1) -> Iterator[RunResult]:
    """Lazily yield each config's RunResult, in input order however the runs are scheduled.

    Serial when ``workers <= 1``, else on one process pool with one run per
    task, so a worker holds at most one finished result.
    """
    if workers <= 1 or len(configs) <= 1:
        yield from map(run, configs)
        return
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms of imports; serial use skips them
    with ProcessPoolExecutor(max_workers=min(workers, len(configs))) as pool:
        yield from pool.map(run, configs)


def run_replicates(config: RunConfig, n: int, workers: int = 1) -> list[RunResult]:
    """n independent runs seeded from config.seed, in replicate order however scheduled."""
    return list(run_many(replicate_configs(config, n), workers))


METRICS_HEADER = ("run_id", "generation", "coop_count", "coop_fraction", "gen_cost", "cum_cost")


def write_metrics_csv(path, runs: Iterable[tuple[str, RunResult]]) -> None:
    """Per-generation metrics CSV, one row per (run, generation).

    Floats are written with repr (shortest round-trip representation).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for run_id, result in runs:
            z = result.final_grid.size
            for rec in result.records:
                writer.writerow(
                    (
                        run_id,
                        rec.generation,
                        rec.coop_count,
                        repr(rec.coop_count / z),
                        repr(rec.generation_cost),
                        repr(rec.cumulative_cost),
                    )
                )
