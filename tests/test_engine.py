import csv
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticecoop.dynamics import Deterministic, Fermi, step
from latticecoop.engine import (
    BATCH_CELLS,
    MAX_SIDE_LENGTH,
    RunConfig,
    Termination,
    _batches,
    _Stack,
    derive_seed,
    is_homogeneous,
    replicate_configs,
    run,
    run_batch,
    run_many,
    run_replicates,
    step_generation,
    write_metrics_csv,
)
from latticecoop.game import PayoffParams, compute_scores
from latticecoop.grid import Grid, Strategy, grid_hash, random_grid
from latticecoop.interference import Neb, NebI, NebII, NoInterference, Pop

from conftest import (
    TIE_THETAS,
    diamond_lattice,
    flat_paid_bruteforce,
    flat_surplus_bruteforce,
    grids,
    homogeneous_grids,
    neb_i_bruteforce,
    neb_ii_bruteforce,
    neighbours,
    paid_score_table,
    pair_payoff,
    pop_fires_bruteforce,
    scores_bruteforce,
    step_deterministic_bruteforce,
    step_fermi_bruteforce,
)

PAY = PayoffParams(b=1.8)
# At b=1.5 and b=2.0 an invested cooperator's score k + theta equals a
# defector's k'*b for theta in TIE_THETAS; b=1.8 is the reference.
TIE_BS = (1.5, 1.8, 2.0)
# TIE_THETAS, whose cost a paid count gives exactly, and thetas whose cost
# is the per-cell surplus summed (interference.counts_exactly)
BATCH_THETAS = (*TIE_THETAS, 0.1, 0.3, 5.3)


def config(**kw):
    defaults = dict(
        side_length=12,
        payoff=PAY,
        scheme=Neb(n_c=3, theta=5.3),
        rule=Deterministic(),
        seed=7,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_config_validation_before_any_work():
    with pytest.raises(ValueError):
        config(side_length=2)
    with pytest.raises(ValueError):
        config(generations=0)
    with pytest.raises(ValueError):
        config(measure_window=0)
    with pytest.raises(ValueError):
        config(initial_coop_probability=1.2)
    with pytest.raises(ValueError):
        config(seed=-1)
    with pytest.raises(ValueError):
        config(seed=2**64)


@pytest.mark.parametrize("field", ["side_length", "generations", "measure_window", "seed"])
@pytest.mark.parametrize("value", [10.5, 12.0, True, np.float64(12.0), np.bool_(True), "12"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


def test_side_length_bound_keeps_the_fermi_draw_addressable():
    # rng.random((Z, 3)) holds 24 bytes per agent
    assert 24 * MAX_SIDE_LENGTH**2 <= np.iinfo(np.intp).max < 24 * (MAX_SIDE_LENGTH + 1) ** 2
    assert config(side_length=MAX_SIDE_LENGTH).side_length == MAX_SIDE_LENGTH
    for length in (MAX_SIDE_LENGTH + 1, 10**400):
        with pytest.raises(ValueError, match="side_length must be in"):
            config(side_length=length)


def test_config_accepts_numpy_integers_as_plain_ints():
    cfg = config(side_length=np.int64(12), generations=np.uint8(20), seed=np.uint64(2**63))
    assert cfg == config(generations=20, seed=2**63)
    assert type(cfg.side_length) is int and type(cfg.seed) is int


def test_is_homogeneous():
    assert is_homogeneous(Grid(np.ones((4, 4), dtype=np.uint8))) == Strategy.C
    assert is_homogeneous(Grid(np.zeros((4, 4), dtype=np.uint8))) == Strategy.D
    cells = np.ones((4, 4), dtype=np.uint8)
    cells[1, 1] = 0
    assert is_homogeneous(Grid(cells)) is None


def test_all_defector_start_is_absorbing():
    result = run(config(initial_coop_probability=0.0))
    assert result.termination == Termination.HOMOGENEOUS_D
    assert len(result.records) == 1
    assert result.records[0].generation == 0
    assert result.total_cost == 0.0
    assert result.stationary_coop_fraction == 0.0


def test_homogeneous_cooperators_trigger_no_interference():
    # all-C under an invest-all scheme: suppression means zero cost
    result = run(config(initial_coop_probability=1.0, scheme=Neb(n_c=4, theta=5.0)))
    assert result.termination == Termination.HOMOGENEOUS_C
    assert result.total_cost == 0.0
    assert result.stationary_coop_fraction == 1.0


def test_absorption_without_early_stop():
    # lone-defector start converts in one step; afterwards the state is
    # absorbing, costs vanish, and cycle detection reports a fixed point
    cfg = config(
        initial_coop_probability=1.0,
        scheme=Pop(p_c=1.0, theta=4.3),
        early_stop_on_homogeneous=False,
        generations=20,
        measure_window=5,
    )
    result = run(cfg)
    assert result.termination == Termination.CYCLE_DETECTED
    assert result.cycle_period == 1
    for rec in result.records:
        assert rec.generation_cost == 0.0
        assert rec.coop_count == result.final_grid.size


def test_cost_conservation_exact():
    result = run(config(scheme=Neb(n_c=1, theta=2.0), generations=30, measure_window=10))
    total = 0.0
    for rec in result.records:
        total += rec.generation_cost
        assert rec.cumulative_cost == total  # same accumulation order: exact
    assert result.total_cost == result.records[-1].cumulative_cost


def test_cumulative_cost_non_decreasing():
    result = run(config(scheme=Neb(n_c=2, theta=3.0)))
    cum = [rec.cumulative_cost for rec in result.records]
    assert all(b >= a for a, b in zip(cum, cum[1:]))


def test_seed_determinism_two_executions():
    a = run(config(rule=Fermi(K=0.3), generations=30, measure_window=10))
    b = run(config(rule=Fermi(K=0.3), generations=30, measure_window=10))
    assert a == b


def test_different_seeds_differ():
    a = run(config(rule=Fermi(K=0.3), seed=1))
    b = run(config(rule=Fermi(K=0.3), seed=2))
    assert a.final_grid != b.final_grid or a.records != b.records


def test_initial_exact_fraction_start():
    result = run(config(initial_coop_probability=0.25, initial_exact_fraction=True))
    assert result.records[0].coop_count == round(0.25 * 144)


def test_replicates_ordered_and_deterministic():
    cfg = config(rule=Fermi(K=0.3, mu=0.01), generations=15, measure_window=5)
    first = run_replicates(replace(cfg, seed=99), 4)
    second = run_replicates(replace(cfg, seed=99), 4)
    assert first == second
    # replicate i is exactly a plain run with the derived seed
    for i, result in enumerate(first):
        assert result == run(replicate_configs(replace(cfg, seed=99), 4)[i])


def test_single_replicate_equals_run_with_derived_seed():
    cfg = config()
    [result] = run_replicates(replace(cfg, seed=5), 1)
    assert result == run(replace(cfg, seed=derive_seed(5, 0)))


def test_replicate_seeds_derive_from_the_config_seed():
    cfg = config(rule=Fermi(K=0.3, mu=0.01), generations=15, measure_window=5, seed=2024)
    results = run_replicates(cfg, 3)
    for i, result in enumerate(results):
        assert result == run(replace(cfg, seed=derive_seed(cfg.seed, i)))
    # the config's seed is the batch's only seed input
    assert run_replicates(replace(cfg, seed=2025), 3) != results


def test_worker_count_does_not_change_results():
    cfg = config(rule=Fermi(K=0.3), generations=10, measure_window=5)
    serial = run_replicates(replace(cfg, seed=11), 3, workers=1)
    parallel = run_replicates(replace(cfg, seed=11), 3, workers=2)
    assert serial == parallel


def test_pooled_final_grids_come_back_equal_and_read_only():
    # each result crosses the process boundary pickled; its grid is frozen again
    configs = [
        config(rule=Fermi(K=0.3, mu=0.01), generations=10, measure_window=5, seed=3),
        config(scheme=Neb(n_c=3, theta=5.1), generations=10, measure_window=5, seed=4),
        config(scheme=NebII(eps=0.5), generations=10, measure_window=5, seed=5),
    ]
    serial = list(run_many(configs, workers=1))
    pooled = list(run_many(configs, workers=2))
    for got, want in zip(pooled, serial, strict=True):
        assert got.final_grid == want.final_grid
        np.testing.assert_array_equal(got.final_grid.code, want.final_grid.code)
        assert got.final_grid.coop_count == want.final_grid.coop_count
        for array in (got.final_grid.cells, got.final_grid.code):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] ^= 1


POOL_IMPORT_CHILD = """
import sys
import latticecoop, latticecoop.cli, latticecoop.config
from latticecoop import Deterministic, Fermi, Neb, NebII, PayoffParams, RunConfig
from latticecoop import engine
from latticecoop.engine import run_many

loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("concurrent", "multiprocessing"))
assert not loaded, f"importing latticecoop loaded {loaded}"
pay = PayoffParams(b=1.8)
configs = [
    RunConfig(side_length=5, payoff=pay, scheme=Neb(n_c=3, theta=5.1), rule=Deterministic(),
              generations=5, measure_window=3, seed=1),
    RunConfig(side_length=5, payoff=pay, scheme=NebII(eps=0.5), rule=Fermi(K=0.3, mu=0.01),
              generations=5, measure_window=3, seed=2),
    RunConfig(side_length=5, payoff=pay, scheme=Neb(n_c=4, theta=5.3), rule=Fermi(K=0.3),
              generations=5, measure_window=3, seed=3),
]
# replicates that differ only in seed: a pooled batch through run_batch
configs += [
    RunConfig(side_length=5, payoff=pay, scheme=Neb(n_c=3, theta=1.5), rule=Deterministic(),
              generations=5, measure_window=3, seed=seed)
    for seed in (4, 5)
]
assert [len(batch) for batch in engine._batches(configs)] == [1, 1, 1, 2]
serial = list(run_many(configs, workers=1))
assert "concurrent.futures.process" not in sys.modules, "a serial batch loaded the pool"
# ten replicates are one stack at any worker count, and one task runs in this process
replicates = engine.replicate_configs(configs[-1], 10)
assert list(run_many(replicates, workers=2)) == list(map(engine.run, replicates))
assert "concurrent.futures.process" not in sys.modules, "a one-stack stream loaded the pool"
assert list(run_many(configs, workers=2)) == serial
assert "concurrent.futures.process" in sys.modules, "a 2-worker batch did not use the pool"
"""


def test_pool_is_imported_only_when_a_batch_runs_on_it():
    # A fresh interpreter: pytest's own process already holds concurrent.futures.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", POOL_IMPORT_CHILD],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _exact(result):
    """Every field of a RunResult, each number with its type and each float as its bytes."""
    def number(x):
        return type(x), struct.pack("<d", x) if isinstance(x, float) else x

    grid = result.final_grid
    return (
        [tuple(map(number, astuple(rec))) for rec in result.records],
        number(result.stationary_coop_fraction),
        number(result.total_cost),
        result.termination,
        number(result.cycle_period),
        grid.cells.shape,
        grid.cells.tobytes(),
        grid.code.tobytes(),
        number(grid.coop_count),
    )


@settings(max_examples=120, deadline=None)
@given(
    side_length=st.integers(3, 8),
    scheme=st.one_of(
        st.just(NoInterference()),
        st.builds(Pop, p_c=st.floats(0.0, 1.0), theta=st.sampled_from(BATCH_THETAS)),
        st.builds(Neb, n_c=st.integers(0, 4), theta=st.sampled_from(BATCH_THETAS)),
    ),
    b=st.sampled_from(TIE_BS),
    p=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
    exact_fraction=st.booleans(),
    early_stop=st.booleans(),
    generations=st.integers(1, 20),
    measure_window=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    replicates=st.integers(1, 6),
)
# an all-C grid that steps on pays nothing, though neb(4) would pay every cooperator
@example(side_length=4, scheme=Neb(n_c=4, theta=1.0), b=1.8, p=1.0, exact_fraction=False,
         early_stop=False, generations=3, measure_window=1, seed=0, replicates=2)
# neb3_deterministic.yaml's theta, and an inexact pop theta: each cost is summed per cell
@example(side_length=7, scheme=Neb(n_c=3, theta=5.3), b=1.8, p=0.5, exact_fraction=False,
         early_stop=False, generations=6, measure_window=2, seed=3, replicates=3)
@example(side_length=8, scheme=Pop(p_c=0.6, theta=0.1), b=1.5, p=0.5, exact_fraction=False,
         early_stop=False, generations=6, measure_window=2, seed=3, replicates=3)
# a stack of one
@example(side_length=6, scheme=Pop(p_c=0.5, theta=4.0), b=1.8, p=0.5, exact_fraction=False,
         early_stop=True, generations=8, measure_window=3, seed=5, replicates=1)
def test_run_batch_equals_the_runs_one_by_one(
    side_length, scheme, b, p, exact_fraction, early_stop, generations, measure_window, seed,
    replicates,
):
    # replicates stop apart (cycle, absorption, horizon) and leave the stack as they do
    cfg = RunConfig(
        side_length=side_length,
        payoff=PayoffParams(b=b),
        scheme=scheme,
        rule=Deterministic(),
        generations=generations,
        measure_window=measure_window,
        seed=seed,
        initial_coop_probability=p,
        initial_exact_fraction=exact_fraction,
        early_stop_on_homogeneous=early_stop,
    )
    configs = replicate_configs(cfg, replicates)
    assert [_exact(r) for r in run_batch(configs)] == [_exact(run(c)) for c in configs]


def test_run_batch_replicates_end_apart():
    cfg = config(side_length=5, scheme=Pop(p_c=0.7, theta=1.5), generations=3, measure_window=2,
                 seed=0, initial_coop_probability=0.6)
    configs = replicate_configs(cfg, 6)
    batch = run_batch(configs)
    assert {r.termination for r in batch} == {
        Termination.CYCLE_DETECTED, Termination.HOMOGENEOUS_D, Termination.COMPLETED}
    assert len({len(r.records) for r in batch}) == 3
    assert [_exact(r) for r in batch] == [_exact(run(c)) for c in configs]


def test_run_batch_takes_only_seed_replicates_it_can_step():
    cfg = config(scheme=Pop(p_c=0.7, theta=2.0), generations=5, measure_window=2)
    for configs in (
        replicate_configs(replace(cfg, rule=Fermi(K=0.3)), 2),
        replicate_configs(replace(cfg, scheme=NebI(eps=0.5)), 2),
        [cfg, replace(cfg, seed=8, payoff=PayoffParams(b=1.5))],
    ):
        with pytest.raises(ValueError, match="differ only in seed"):
            run_batch(configs)
    assert run_batch([]) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_many_batches_a_mixed_stream_in_order(workers):
    short = dict(side_length=6, generations=6, measure_window=3)
    pop = config(scheme=Pop(p_c=0.7, theta=2.0), **short)
    groups = [
        replicate_configs(pop, 13),  # a pop cell, one task at any worker count
        replicate_configs(config(scheme=Neb(n_c=3, theta=1.5), seed=8, **short), 3),
        replicate_configs(config(rule=Fermi(K=0.3), seed=9, **short), 2),
        replicate_configs(config(scheme=NebI(eps=0.5), seed=10, **short), 2),
        [replace(pop, scheme=Pop(p_c=0.7, theta=1.0))],
        [config(scheme=NoInterference(), **short)],
        replicate_configs(replace(pop, side_length=7), 2),
    ]
    configs = [c for group in groups for c in group]
    assert [len(batch) for batch in _batches(configs)] == [13, 3, 1, 1, 1, 1, 1, 1, 2]
    assert [_exact(r) for r in run_many(configs, workers)] == [_exact(r) for r in map(run, configs)]


def test_batches_hold_at_most_batch_cells():
    def sizes(side_length, n=3):
        cfg = config(side_length=side_length, scheme=Pop(p_c=0.7, theta=2.0))
        return [len(b) for b in _batches(replicate_configs(cfg, n))]

    assert BATCH_CELLS // 362**2 == 2 and sizes(362) == [2, 1]
    assert BATCH_CELLS // 513**2 == 0 and sizes(513) == [1, 1, 1]
    # past one stack, the fewest stacks of near-equal size, larger first
    assert BATCH_CELLS // 100**2 == 26 and sizes(100, 26) == [26]
    assert [sizes(100, n) for n in (27, 30, 53)] == [[14, 13], [15, 15], [18, 18, 17]]


def _paid_step_bruteforce(g, payoff, theta, n_c):
    """Imitate-best on ``paid_score_table`` (theta 0: none), each cell's code counted one by one."""
    length, flat = g.side_length, g.cells.reshape(-1)
    table = paid_score_table(payoff, theta, n_c)
    scores = [table[5 * flat[i] + sum(flat[j] for j in neighbours(i, length))]
              for i in range(g.size)]
    return step_deterministic_bruteforce(g, np.reshape(scores, (length, length)))


@pytest.mark.parametrize("drop", ["first", "middle", "last"])
@pytest.mark.parametrize("paying", ["all", "none", "some"])
@settings(max_examples=30, deadline=None)
@given(
    side_length=st.integers(3, 8),
    b=st.sampled_from(TIE_BS),
    theta=st.sampled_from(TIE_THETAS),
    n_c=st.integers(0, 4),
    layers=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_steps_each_layer_as_the_bruteforce_step(
    drop, paying, side_length, b, theta, n_c, layers, seed
):
    # Two generations of a padded stack, each layer paying neb(n_c, theta) or
    # nothing; between them a compaction drops one layer (from two layers up).
    # Odd L gives odd buffer widths; "all", "none" and "some" run each lookup path.
    payoff, rng = PayoffParams(b=b), np.random.default_rng(seed)
    grids = [random_grid(side_length, rng.random(), rng) for _ in range(layers)]
    stack = _Stack(np.stack([g.cells for g in grids]), payoff, Neb(n_c=n_c, theta=theta))
    for generation in range(2):
        if generation and layers > 1:
            dropped = {"first": 0, "middle": layers // 2, "last": layers - 1}[drop]
            kept = [i for i in range(layers) if i != dropped]
            stack.load(stack.cells[kept])
            grids = [grids[i] for i in kept]
        invests = {"all": [True] * len(grids), "none": [False] * len(grids),
                   "some": [i % 2 == generation for i in range(len(grids))]}[paying]
        assert np.array_equal(stack.codes(), [g.code for g in grids])
        stack.step(invests)
        grids = [_paid_step_bruteforce(g, payoff, theta if paid else 0.0, n_c)
                 for g, paid in zip(grids, invests)]
        for layer, g in enumerate(grids):
            assert np.array_equal(stack.cells[layer], g.cells), (generation, layer)


@pytest.mark.parametrize("paying", ["all", "none", "some"])
@pytest.mark.parametrize("b, theta, n_c, ordered", [
    (1.8, 3.0, 3, (False, False)),  # neither half ties a defector with a cooperator
    (1.8, 1.8, 0, (True, True)),  # the paid half does: code 5 ties code 1
    (1.5, 0.25, 4, (True, False)),  # the unpaid half does: code 2 ties code 8
])
def test_stack_takes_the_tie_order_where_its_table_needs_it(paying, b, theta, n_c, ordered):
    # The stacked table (mixed or none paying) needs the tie order if either
    # half does, the paid half alone (all paying) if it does. Each path steps
    # every layer as the oracle does.
    payoff, rng = PayoffParams(b=b), np.random.default_rng(0)
    for side_length in (3, 4, 5, 8):
        grids = [random_grid(side_length, p, rng) for p in (0.2, 0.5, 0.5, 0.8)]
        stack = _Stack(np.stack([g.cells for g in grids]), payoff, Neb(n_c=n_c, theta=theta))
        assert tuple(stack.ordered) == ordered
        for generation in range(3):
            invests = {"all": [True] * 4, "none": [False] * 4,
                       "some": [i % 2 == generation % 2 for i in range(4)]}[paying]
            stack.codes()
            stack.step(invests)
            grids = [_paid_step_bruteforce(g, payoff, theta if paid else 0.0, n_c)
                     for g, paid in zip(grids, invests)]
            assert np.array_equal(stack.cells, [g.cells for g in grids]), (side_length, generation)


def test_run_batch_holds_its_buffers_and_cycle_states_only():
    # At R=5, L=100 over 20 generations the peak measured ~445 KB: about five
    # bytes per padded cell (the stack, its codes, its keys, the contiguous
    # copy that the states are packed from, neb's paid-count copy and mask of
    # one layer) and ~1.5 KB per replicate and generation (a packed state of
    # Z/8 bytes with its dict entry, and a GenerationRecord). The bound, 497 KB
    # here, allows six bytes per padded cell and Z/8 + 512 bytes per state.
    # Stepping that pads a copy of the stack for the codes and another for the
    # keys peaked at ~508 KB, and states kept unpacked would add Z bytes each.
    replicates, length, generations = 5, 100, 20
    cfg = config(side_length=length, scheme=Neb(n_c=3, theta=3.0), generations=generations,
                 measure_window=1, seed=3)
    configs = replicate_configs(cfg, replicates)
    run_batch(configs)  # fills the table caches
    tracemalloc.start()
    try:
        results = run_batch(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = sum(len(r.records) for r in results)
    assert states == replicates * (generations + 1)  # every replicate ran to the horizon
    assert peak < 6 * replicates * (length + 2) ** 2 + states * (length**2 // 8 + 512)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seeds = {derive_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def _find_cyclic_run():
    for seed in range(10):
        cfg = config(side_length=30, scheme=Neb(n_c=3, theta=5.1), seed=seed)
        result = run(cfg)
        if result.termination == Termination.CYCLE_DETECTED:
            return cfg, result
    raise AssertionError("no cyclic run found in 10 seeds")


def test_cycle_soundness():
    # re-simulating one period from the first repeated state reproduces it
    cfg, result = _find_cyclic_run()
    g = result.final_grid
    for _ in range(result.cycle_period):
        g, _cost = step_generation(g, cfg.payoff, cfg.scheme, cfg.rule, None)
    assert g == result.final_grid
    assert grid_hash(g) == grid_hash(result.final_grid)


def test_cycle_stationary_average_uses_cycle():
    cfg, result = _find_cyclic_run()
    period = result.cycle_period
    start = len(result.records) - period
    window = max(period, cfg.measure_window)
    counts = [result.records[start + (j % period)].coop_count for j in range(window)]
    assert result.stationary_coop_fraction == pytest.approx(
        np.mean(counts) / result.final_grid.size
    )
    assert result.stationary_coop_fraction < 1.0


def test_completed_run_averages_measure_window():
    cfg = config(
        rule=Fermi(K=0.3, mu=0.1),
        scheme=NoInterference(),
        generations=12,
        measure_window=6,
    )
    result = run(cfg)
    assert result.termination == Termination.COMPLETED
    assert len(result.records) == 18
    expected = np.mean([rec.coop_count for rec in result.records[-6:]]) / 144
    assert result.stationary_coop_fraction == pytest.approx(expected)


def test_fermi_rule_never_reports_cycles():
    for seed in range(5):
        result = run(config(rule=Fermi(K=0.3), seed=seed, generations=25, measure_window=5))
        assert result.termination in (
            Termination.COMPLETED,
            Termination.HOMOGENEOUS_C,
            Termination.HOMOGENEOUS_D,
        )


@settings(max_examples=60, deadline=None)
@given(grids() | homogeneous_grids(), st.sampled_from(TIE_THETAS) | st.floats(0.01, 6.0))
def test_rank_path_matches_float_scores(g, theta):
    # none, pop and neb step on by-code keys under imitate-best, and so
    # does a homogeneous grid under any scheme (as none); the next grid and the
    # cost must be those of the float scores base + surplus
    schemes = [NoInterference(), Pop(p_c=1.0, theta=theta), Pop(p_c=0.5, theta=theta)]
    schemes += [Neb(n_c=n_c, theta=theta) for n_c in range(5)]
    for b in TIE_BS:
        payoff = PayoffParams(b=b)
        base = compute_scores(g, payoff)
        for scheme in schemes:
            surplus = _surplus_bruteforce(g, base, scheme)  # zero on homogeneous grids
            expected = step_deterministic_bruteforce(g, base + surplus)
            nxt, cost = step_generation(g, payoff, scheme, Deterministic())
            assert nxt == expected, (b, scheme)
            assert cost == float(surplus.sum()), (b, scheme)


@settings(max_examples=40, deadline=None)
@given(grids(), st.sampled_from(TIE_THETAS) | st.floats(0.01, 6.0), st.integers(0, 2**32 - 1))
def test_fermi_flat_path_matches_float_scores(g, theta, seed):
    # under Fermi, none, pop and neb look the float scores base + surplus up by code
    assume(0 < int(g.cells.sum()) < g.size)
    schemes = [NoInterference(), Pop(p_c=1.0, theta=theta), Pop(p_c=0.5, theta=theta)]
    schemes += [Neb(n_c=n_c, theta=theta) for n_c in range(5)]
    for b in TIE_BS:
        payoff = PayoffParams(b=b)
        for scheme in schemes:
            surplus = flat_surplus_bruteforce(g, scheme)
            scores = compute_scores(g, payoff) + surplus
            expected = step_fermi_bruteforce(g, scores, 0.3, 0.05, seed)
            rng = np.random.default_rng(seed)
            nxt, cost = step_generation(g, payoff, scheme, Fermi(K=0.3, mu=0.05), rng)
            assert nxt == expected, (b, scheme)
            assert cost == float(surplus.sum()), (b, scheme)


def test_rank_path_exhaustive_over_radius2_diamonds():
    g, centres = diamond_lattice()
    length, flat = g.side_length, g.cells.reshape(-1)
    # Candidates self, N, E, S, W of every centre, each as (strategy, its neighbours' strategies).
    candidates = [[i, *neighbours(i, length)] for i in centres.tolist()]
    plays = [[(int(flat[c]), tuple(int(flat[j]) for j in neighbours(c, length))) for c in cand]
             for cand in candidates]
    kinds = sorted({play for row in plays for play in row})
    kind_of = {play: n for n, play in enumerate(kinds)}
    cand_kind = np.array([[kind_of[play] for play in row] for row in plays])
    cand_strategy = np.array([[me for me, _ in row] for row in plays], dtype=np.uint8)
    for b in TIE_BS:
        payoff = PayoffParams(b=b)
        base = [sum(pair_payoff(Strategy(me), Strategy(o), payoff) for o in others)
                for me, others in kinds]
        thetas = TIE_THETAS + (4 * b - 4, 4 * b - 3, 4 * b - 2)
        schemes = [NoInterference()]
        schemes += [Pop(p_c=p_c, theta=t) for p_c in (0.0, 1.0) for t in thetas]
        schemes += [Neb(n_c=n_c, theta=t) for n_c in range(5) for t in thetas]
        for scheme in schemes:
            fires = pop_fires_bruteforce(g, scheme)
            scores = np.array([
                score + (scheme.theta if flat_paid_bruteforce(scheme, me, sum(others), fires) else 0.0)
                for score, (me, others) in zip(base, kinds)
            ])
            # first maximum in self, N, E, S, W order
            winner = scores[cand_kind].argmax(axis=1)
            expected = cand_strategy[np.arange(len(centres)), winner]
            nxt, _ = step_generation(g, payoff, scheme, Deterministic())
            assert np.array_equal(nxt.cells.reshape(-1)[centres], expected), (b, scheme)


def test_neb4_pop_trajectory_equivalence_lockstep():
    # identical grids at every generation for identical seeds and theta
    for rule, needs_rng in ((Deterministic(), False), (Fermi(K=0.3), True)):
        for theta in (2.0, 4.3, 5.5):
            cfg = config(rule=rule, seed=31)
            rng_a = np.random.default_rng(10)
            rng_b = np.random.default_rng(10)
            g_a = g_b = run(config(generations=1, measure_window=1, seed=31)).final_grid
            for _ in range(12):
                g_a, cost_a = step_generation(
                    g_a, cfg.payoff, Neb(n_c=4, theta=theta), rule, rng_a if needs_rng else None
                )
                g_b, cost_b = step_generation(
                    g_b, cfg.payoff, Pop(p_c=1.0, theta=theta), rule, rng_b if needs_rng else None
                )
                assert g_a == g_b
                assert cost_a == cost_b


def test_per_generation_cost_trends():
    # invest-in-frontier (n_c=3) spends less each generation as defectors
    # vanish; invest-in-all (n_c=4) spends more as cooperators multiply
    cfg3 = RunConfig(
        side_length=100, payoff=PAY, scheme=Neb(n_c=3, theta=5.5), rule=Deterministic(), seed=42
    )
    r3 = run(cfg3)
    assert r3.termination == Termination.HOMOGENEOUS_C
    costs3 = [rec.generation_cost for rec in r3.records[:-1]]
    assert all(b < a for a, b in zip(costs3, costs3[1:]))

    cfg4 = RunConfig(
        side_length=100, payoff=PAY, scheme=Neb(n_c=4, theta=4.5), rule=Deterministic(), seed=42
    )
    r4 = run(cfg4)
    assert r4.termination == Termination.HOMOGENEOUS_C
    costs4 = [rec.generation_cost for rec in r4.records[:-1]]
    assert all(b > a for a, b in zip(costs4, costs4[1:]))


def test_neb3_threshold_robust_at_l50():
    # the n_c=3 escape condition also holds at the smaller lattice size
    cfg = RunConfig(
        side_length=50, payoff=PAY, scheme=Neb(n_c=3, theta=5.3), rule=Deterministic()
    )
    results = run_replicates(replace(cfg, seed=17), 10)
    assert all(r.termination == Termination.HOMOGENEOUS_C for r in results)


def _surplus_bruteforce(g, base, scheme):
    if int(g.cells.sum()) in (0, g.size):
        return np.zeros_like(base)  # interference is suppressed on homogeneous grids
    if isinstance(scheme, NebI):
        return neb_i_bruteforce(g, base, scheme.eps)
    if isinstance(scheme, NebII):
        return neb_ii_bruteforce(g, base, scheme.eps)
    return flat_surplus_bruteforce(g, scheme)


AMOUNTS = st.sampled_from(TIE_THETAS) | st.floats(0.01, 6.0)
FLAT_SCHEMES = st.one_of(
    st.just(NoInterference()),
    st.builds(Pop, p_c=st.floats(0.0, 1.0), theta=AMOUNTS),
    st.builds(Neb, n_c=st.integers(0, 4), theta=AMOUNTS),
)
ANY_SCHEME = FLAT_SCHEMES | st.builds(NebI, eps=AMOUNTS) | st.builds(NebII, eps=AMOUNTS)


def _float_path_generation(g, payoff, scheme, rule, rng):
    """One generation composed from the oracles: base scores, the brute-force
    surplus (none on a homogeneous grid), the float scores base + surplus, step."""
    base = compute_scores(g, payoff)
    surplus = _surplus_bruteforce(g, base, scheme)
    return step(g, base + surplus, rule, rng), float(surplus.sum())


@settings(max_examples=60, deadline=None)
@given(
    grids() | homogeneous_grids(),
    FLAT_SCHEMES,
    st.sampled_from(TIE_BS),
    st.sampled_from([0.05, 0.3, 2.0]),
    st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_fermi_flat_generation_matches_float_path(g, scheme, b, k, mu, seed):
    # none, pop and neb under Fermi build no float scores; the next grid and
    # the cost must be those of the float path they replace
    payoff, rule = PayoffParams(b=b), Fermi(K=k, mu=mu)
    got = step_generation(g, payoff, scheme, rule, np.random.default_rng(seed))
    expected = _float_path_generation(g, payoff, scheme, rule, np.random.default_rng(seed))
    assert got[0] == expected[0]
    assert got[1] == expected[1]


@settings(max_examples=60, deadline=None)
@given(
    grids() | homogeneous_grids(),
    st.builds(NebI, eps=AMOUNTS) | st.builds(NebII, eps=AMOUNTS),
    st.sampled_from(TIE_BS),
    st.sampled_from([0.0, 0.1]),
    st.just(Deterministic()) | st.builds(
        Fermi, K=st.sampled_from([0.05, 0.3, 2.0]), mu=st.sampled_from([0.0, 0.02, 0.5])
    ),
    st.integers(0, 2**32 - 1),
)
def test_neb_generation_matches_float_path(g, scheme, b, punishment, rule, seed):
    # neb_i and neb_ii look their surplus up by code; under either rule the next
    # grid and the cost must be those of the float composition of the oracles
    payoff = PayoffParams(b=b, punishment=punishment)
    got = step_generation(g, payoff, scheme, rule, np.random.default_rng(seed))
    expected = _float_path_generation(g, payoff, scheme, rule, np.random.default_rng(seed))
    assert got[0] == expected[0]
    assert np.float64(got[1]).tobytes() == np.float64(expected[1]).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    side_length=st.integers(3, 8),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    b=st.sampled_from(TIE_BS),
    scheme=ANY_SCHEME,
    early_stop=st.booleans(),
    generations=st.integers(1, 30),
    measure_window=st.integers(1, 10),
)
def test_cycle_detection_matches_bruteforce_first_repeat(
    side_length, p, seed, b, scheme, early_stop, generations, measure_window
):
    # replay the deterministic trajectory with the brute-force oracles, keep
    # every grid, and stop at the first state equal to an earlier one
    cfg = RunConfig(
        side_length=side_length,
        payoff=PayoffParams(b=b),
        scheme=scheme,
        rule=Deterministic(),
        generations=generations,
        measure_window=measure_window,
        seed=seed,
        initial_coop_probability=p,
        early_stop_on_homogeneous=early_stop,
    )
    g = random_grid(side_length, p, np.random.default_rng(seed))
    states: list[Grid] = []
    counts: list[int] = []
    termination, period = Termination.COMPLETED, None
    for generation in range(generations + measure_window):
        if g in states:
            termination, period = Termination.CYCLE_DETECTED, generation - states.index(g)
            break
        states.append(g)
        x_c = int(g.cells.sum())
        counts.append(x_c)
        if early_stop and x_c in (0, g.size):
            termination = Termination.HOMOGENEOUS_C if x_c else Termination.HOMOGENEOUS_D
            break
        base = scores_bruteforce(g, cfg.payoff)
        g = step_deterministic_bruteforce(g, base + _surplus_bruteforce(g, base, scheme))

    result = run(cfg)
    assert result.termination == termination
    assert result.cycle_period == period
    assert [rec.coop_count for rec in result.records] == counts
    assert result.final_grid == g


def test_metrics_csv_round_trip(tmp_path):
    cfg = config(generations=5, measure_window=3, rule=Fermi(K=0.3, mu=0.2))
    result = run(cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [("rep000", result)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "generation", "coop_count", "coop_fraction", "gen_cost", "cum_cost"]
    assert len(rows) == 1 + len(result.records)
    for row, rec in zip(rows[1:], result.records):
        assert row[0] == "rep000"
        assert int(row[1]) == rec.generation
        assert int(row[2]) == rec.coop_count
        assert float(row[3]) == rec.coop_count / 144  # shortest repr round-trips
        assert float(row[4]) == rec.generation_cost
        assert float(row[5]) == rec.cumulative_cost
