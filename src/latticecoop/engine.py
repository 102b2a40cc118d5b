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
from .game import PayoffParams, compute_scores, key_table, needs_tie_order, score_table
from .grid import (
    MIN_SIDE_LENGTH,
    Grid,
    Strategy,
    best_strategy,
    check_field_types,
    cell_codes,
    coop_count,
    random_grid,
    wrap_halo,
)
from .grid import grid_hash  # noqa: F401 (perfbench looks grid.grid_hash up here only)
from .interference import (
    InterferenceScheme,
    Neb,
    NoInterference,
    Pop,
    apply,
    flat_payment,
    flat_surplus,
)

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
    without mutation, so investing there is pure waste. The rule steps on
    base score plus surplus, both in the surplus's form: after a flat
    investment (none, pop, neb) the ten by code (``game.score_table``), so no
    float scores are built; after ``neb_i`` and ``neb_ii`` one per cell.
    """
    if is_homogeneous(g) is not None:
        scheme = NoInterference()
    outcome = apply(scheme, g, payoff)
    if outcome.surplus.ndim == 1:  # by code
        if isinstance(rule, Deterministic):
            # The key path reads no base scores: they are computed there only while
            # perfbench taps compute_scores (ROADMAP item 1).
            compute_scores(g, payoff)
        base = score_table(payoff)
    else:
        base = compute_scores(g, payoff)
    return step(g, base + outcome.surplus, rule, rng), outcome.generation_cost


class _Protocol:
    """One run's protocol around its steps, shared by ``run`` and ``run_batch``:
    the cycle check, the homogeneous stop, the records and the stationary average."""

    def __init__(self, config: RunConfig) -> None:
        # Homogeneity is absorbing only without mutation.
        mutates = isinstance(config.rule, Fermi) and config.rule.mu > 0.0
        self.stops_when_homogeneous = config.early_stop_on_homogeneous and not mutates
        self.horizon = config.generations + config.measure_window
        self.measure_window = config.measure_window
        # bit-packed cells (L is fixed within a run) -> first generation in that state
        self.seen: dict[bytes, int] | None = {} if isinstance(config.rule, Deterministic) else None
        self.records: list[GenerationRecord] = []
        self.cumulative = 0.0
        self.termination = Termination.COMPLETED
        self.cycle_start: int | None = None
        self.cycle_period: int | None = None

    def stops_at(self, x_c: int, z: int, packed: bytes | None) -> bool:
        """Whether the run ends before it steps from Z = ``z`` cells that hold
        x_C ``x_c``, their bytes from ``np.packbits`` ``packed`` (None unless
        the rule is deterministic): at the horizon, on a repeated state, or
        absorbed, which records a last generation at cost 0.0."""
        generation = len(self.records)
        if generation == self.horizon:
            return True
        if self.seen is not None:
            first = self.seen.setdefault(packed, generation)
            if first != generation:
                self.termination = Termination.CYCLE_DETECTED
                self.cycle_start, self.cycle_period = first, generation - first
                return True
        # A grid is homogeneous exactly when it holds 0 or Z cooperators.
        if self.stops_when_homogeneous and x_c in (0, z):
            self.records.append(GenerationRecord(generation, x_c, 0.0, self.cumulative))
            self.termination = Termination.HOMOGENEOUS_C if x_c else Termination.HOMOGENEOUS_D
            return True
        return False

    def record(self, x_c: int, cost: float) -> None:
        """Record a generation stepped from x_C ``x_c`` at interference cost ``cost``."""
        self.cumulative += cost
        self.records.append(GenerationRecord(len(self.records), x_c, cost, self.cumulative))

    def result(self, final_grid: Grid) -> RunResult:
        return RunResult(
            records=tuple(self.records),
            stationary_coop_fraction=self._stationary_fraction(final_grid.size),
            total_cost=self.cumulative,
            termination=self.termination,
            cycle_period=self.cycle_period,
            final_grid=final_grid,
        )

    def _stationary_fraction(self, z: int) -> float:
        records, termination = self.records, self.termination
        if termination == Termination.HOMOGENEOUS_C:
            return 1.0
        if termination == Termination.HOMOGENEOUS_D:
            return 0.0
        if termination == Termination.CYCLE_DETECTED:
            # Average one full cycle, or the measure window if that is longer,
            # of the trajectory that repeats forever.
            start, period = self.cycle_start, self.cycle_period
            window = max(period, self.measure_window)
            counts = [records[start + (j % period)].coop_count for j in range(window)]
            return float(np.mean(counts) / z)
        window = records[-self.measure_window:]
        return float(np.mean([rec.coop_count for rec in window]) / z)


def _initial_grid(config: RunConfig, rng: np.random.Generator) -> Grid:
    return random_grid(
        config.side_length,
        config.initial_coop_probability,
        rng,
        exact_fraction=config.initial_exact_fraction,
    )


def run(config: RunConfig) -> RunResult:
    """Execute one seeded run; see the module docstring for the protocol."""
    rng = np.random.default_rng(config.seed)
    g = _initial_grid(config, rng)
    protocol = _Protocol(config)
    while True:
        x_c = coop_count(g)
        packed = np.packbits(g.cells).tobytes() if protocol.seen is not None else None
        if protocol.stops_at(x_c, g.size, packed):
            return protocol.result(g)
        next_grid, cost = step_generation(g, config.payoff, config.scheme, config.rule, rng)
        protocol.record(x_c, cost)
        g = next_grid


# Most cells in one run_many batch (26 replicates at L=100). A stack pays a
# generation's fixed call cost once, but its gain per replicate stops growing
# near 10**5 cells (README, Performance), while what it holds at once (its
# temporaries and every replicate's cycle states) grows with its cells.
BATCH_CELLS = 2**18


def _batchable(config: RunConfig) -> bool:
    """Whether ``run_batch`` takes ``config``: imitate-best under none, pop or neb."""
    return isinstance(config.rule, Deterministic) and isinstance(
        config.scheme, (NoInterference, Pop, Neb)
    )


def _same_but_seed(config: RunConfig, other: RunConfig) -> bool:
    return replace(other, seed=config.seed) == config


class _Stack:
    """The lattices of a batch in one (R, L+2, L+2) uint8 buffer, each inside a
    one-cell halo that wraps its torus, kept padded from one generation to the next.

    In the flat buffer a cell's N, E, S and W neighbours sit -(L+2), +1, +(L+2)
    and -1 bytes away, so each neighbour read is one contiguous slice over the
    span from the first interior cell to the last (``_span``). What the span
    computes at halo positions is garbage, which the next ``wrap_halo``
    overwrites. Keys come from the codes by one ``bytearray.translate``
    through a 256-byte table: the stacked key table by code for a lattice that
    is not paid (``none``, an unfired pop or a homogeneous grid) and by code +
    10 for one that ``interference.flat_payment`` pays ``flat_surplus(scheme)``,
    or its paid half by code when all are paid. The update skips the tie order
    unless the table in use needs it (``game.needs_tie_order``): the stacked
    table does if either half does.
    """

    def __init__(self, cells: np.ndarray, payoff: PayoffParams, scheme: InterferenceScheme):
        unpaid, paid = (score_table(payoff) + flat_surplus(s) for s in (NoInterference(), scheme))
        table = np.concatenate([key_table(unpaid), key_table(paid)])
        self.luts = [keys.tobytes().ljust(256, b"\0") for keys in (table, table[10:])]
        self.ordered = [needs_tie_order(unpaid) or needs_tie_order(paid), needs_tie_order(paid)]
        self.load(cells)

    def load(self, cells: np.ndarray) -> None:
        """Hold the (R, L, L) ``cells``, their halo wrapped anew."""
        layers, width = len(cells), cells.shape[-1] + 2
        self.padded = np.empty((layers, width, width), dtype=np.uint8)
        self.cells = self.padded[:, 1:-1, 1:-1]
        self.cells[...] = cells
        wrap_halo(self.padded)
        self._code_bytes = bytearray(self.padded.size)
        self.code = np.frombuffer(self._code_bytes, np.uint8).reshape(self.padded.shape)
        self._field = _span(self.padded, width)
        self._code_span = _span(self.code, width)[0]

    def codes(self) -> np.ndarray:
        """Each lattice's codes (``grid.cell_codes``), an (R, L, L) view of the code buffer."""
        cells, *field = self._field
        cell_codes(cells, field, out=self._code_span)
        return self.code[:, 1:-1, 1:-1]

    def step(self, invests: list[bool]) -> None:
        """Imitate-best from ``codes``: per cell the strategy of the first of self,
        N, E, S, W with the largest rank (``grid.best_strategy``, written straight
        into the cell buffer), each lattice that ``invests`` marks paid the surplus."""
        wrap_halo(self.code)
        lut = int(all(invests))  # the paid half alone, or the stacked table
        if not lut and any(invests):
            self.code += (np.array(invests, dtype=np.uint8) * np.uint8(10))[:, None, None]
        keys = np.frombuffer(self._code_bytes.translate(self.luts[lut]), np.uint8)
        best, *field = _span(keys, self.padded.shape[-1])
        best_strategy(best, field, self.ordered[lut], out=self._field[0])
        wrap_halo(self.padded)


def _span(padded: np.ndarray, width: int) -> list[np.ndarray]:
    """Self, N, E, S and W of each position from the first interior cell to the
    last of a padded stack ``width`` = L+2 wide, as five slices of its buffer."""
    flat = padded.reshape(-1)
    start, stop = width + 1, flat.size - width - 1
    return [flat[start + offset : stop + offset] for offset in (0, -width, 1, width, -1)]


def run_batch(configs: Sequence[RunConfig]) -> list[RunResult]:
    """``[run(c) for c in configs]``, byte for byte, with the runs stepped together.

    For two or more configs that differ only in ``seed``, under imitate-best and
    a none, pop or neb scheme; a ValueError names any other batch. Each
    replicate's initial grid is ``run``'s. The live replicates are the layers of
    one wrap-padded ``_Stack``. Each generation derives the stack's codes, looks
    each replicate's keys up in its half of one stacked key table, and takes
    the first maximum over self and the four neighbours. Whether a layer is
    paid, and its cost, come from ``interference.flat_payment`` on its codes,
    the rule ``apply`` uses for one lattice; a homogeneous layer steps as none.
    The cycle check, homogeneous stop and records are each replicate's own
    (``_Protocol``); their states are one ``np.packbits`` of the stack, sliced
    per layer. A replicate that finishes leaves the stack.
    """
    first = configs[0]
    if len(configs) < 2 or not _batchable(first) or not all(
        _same_but_seed(first, c) for c in configs
    ):
        raise ValueError(
            "run_batch takes two or more configs that differ only in seed, under the "
            "deterministic rule and none, pop or neb"
        )
    scheme, z = first.scheme, first.side_length**2
    protocols = [_Protocol(config) for config in configs]
    results: list[RunResult | None] = [None] * len(configs)
    stack = _Stack(
        np.stack([_initial_grid(c, np.random.default_rng(c.seed)).cells for c in configs]),
        first.payoff,
        scheme,
    )
    live = list(range(len(configs)))  # the replicate in each layer of the stack
    while True:
        cells = stack.cells.reshape(len(live), z)  # a contiguous copy
        packed = np.packbits(cells, axis=1)  # each row np.packbits(layer)
        going, counts = [], []
        for i, r in enumerate(live):
            count = int(np.count_nonzero(cells[i]))
            if protocols[r].stops_at(count, z, packed[i].tobytes()):
                results[r] = protocols[r].result(Grid(stack.cells[i]))
            else:
                going.append(i)
                counts.append(count)
        if not going:
            return results
        if len(going) < len(live):
            stack.load(stack.cells[going])
            live = [live[i] for i in going]
        invests = []
        for r, code, count in zip(live, stack.codes(), counts):
            # a homogeneous lattice steps as none, as in step_generation
            paid, cost = flat_payment(scheme, code, count) if 0 < count < z else (False, 0.0)
            invests.append(paid)
            protocols[r].record(count, cost)
        stack.step(invests)


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


def _batches(configs: Sequence[RunConfig], workers: int) -> list[tuple[RunConfig, ...]]:
    """``configs`` in order, in ``run_many``'s tasks: a run of consecutive configs
    that ``run_batch`` takes and that differ only in seed is split into batches
    of at most ceil(len(configs) / workers) runs and ``BATCH_CELLS`` cells;
    every other config is a batch of its own."""
    most = math.ceil(len(configs) / max(workers, 1))
    batches: list[list[RunConfig]] = []
    for config in configs:
        batch = batches[-1] if batches else None
        if (
            batch
            and len(batch) < min(most, BATCH_CELLS // config.side_length**2)
            and _batchable(config)
            and _same_but_seed(batch[0], config)
        ):
            batch.append(config)
        else:
            batches.append([config])
    return [tuple(batch) for batch in batches]


def _run_task(batch: tuple[RunConfig, ...]) -> list[RunResult]:
    return run_batch(batch) if len(batch) > 1 else [run(batch[0])]


def run_many(configs: Sequence[RunConfig], workers: int = 1) -> Iterator[RunResult]:
    """Lazily yield each config's RunResult, in input order however the runs are scheduled.

    The configs go in batches (``_batches``): consecutive deterministic
    none/pop/neb replicates that differ only in seed step together through
    ``run_batch``, and every other config runs alone through ``run``. Serial
    when ``workers <= 1``, else on one process pool with one batch per task, so
    a worker holds at most one batch's results.
    """
    batches = _batches(configs, workers)
    if workers <= 1 or len(batches) <= 1:
        for batch in batches:
            yield from _run_task(batch)
        return
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms of imports; serial use skips them
    with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
        for results in pool.map(_run_task, batches):
            yield from results


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
