import itertools
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecoop.analysis import lone_defector_grid
from latticecoop import dynamics
from latticecoop.dynamics import (
    Deterministic,
    Fermi,
    _neighbour_index,
    step,
    step_deterministic,
    step_fermi,
)
from latticecoop.game import (
    PayoffParams,
    acceptance_table,
    by_code,
    compute_scores,
    key_table,
    needs_tie_order,
    score_table,
)
from latticecoop.grid import (
    Grid,
    Strategy,
    best_strategy,
    cell_codes,
    coop_count,
    first_max,
    neighbour_field,
)
from latticecoop.interference import NebI, NebII, Pop, apply

from conftest import (
    QUARTER_EDGES,
    TIE_THETAS,
    fermi_probability,
    grids,
    homogeneous_grids,
    neighbours,
    paid_score_table,
    step_deterministic_bruteforce,
    step_fermi_bruteforce,
)

C, D = Strategy.C, Strategy.D

finite_scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

# At b=1.5 and b=2.0 some defector scores k*b equal integer cooperator scores,
# so score ties between candidates are common; b=1.8 is the reference value.
TIE_BS = (1.5, 1.8, 2.0)


def test_fermi_rule_validation():
    with pytest.raises(ValueError):
        Fermi(K=0.0)
    with pytest.raises(ValueError):
        Fermi(K=0.3, mu=1.5)


def test_fermi_probability_equal_scores():
    assert fermi_probability(3.7, 3.7, 0.1) == 0.5


def test_fermi_probability_example():
    # direct evaluation of (1 + e^((7.2 - 3.0) / 0.3))^-1 = (1 + e^14)^-1
    expected = 1.0 / (1.0 + math.exp(14.0))
    assert fermi_probability(7.2, 3.0, 0.3) == pytest.approx(expected, rel=1e-12)


@given(finite_scores, finite_scores, st.floats(0.05, 10.0))
def test_fermi_probability_complement(f_a, f_b, k):
    assert fermi_probability(f_a, f_b, k) + fermi_probability(f_b, f_a, k) == pytest.approx(
        1.0, abs=1e-12
    )


@given(finite_scores, st.floats(0.01, 5.0), st.floats(0.05, 10.0))
def test_fermi_probability_decreasing_in_own_score(f_b, delta, k):
    f_a = f_b + delta
    assert fermi_probability(f_a, f_b, k) < fermi_probability(f_b, f_b, k)
    assert fermi_probability(f_b - delta, f_b, k) > 0.5


def test_fermi_probability_saturates_without_overflow():
    assert fermi_probability(1e6, -1e6, 0.1) == 0.0
    assert fermi_probability(-1e6, 1e6, 0.1) == 1.0


def test_fermi_probability_low_noise_limit():
    # K -> 0+ recovers the deterministic comparison
    assert fermi_probability(3.0, 7.2, 1e-6) == 1.0
    assert fermi_probability(7.2, 3.0, 1e-6) == 0.0
    assert fermi_probability(5.0, 5.0, 1e-6) == 0.5


def test_fermi_probability_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fermi_probability(math.nan, 1.0, 0.3)
    with pytest.raises(ValueError):
        fermi_probability(1.0, math.inf, 0.3)
    with pytest.raises(ValueError):
        fermi_probability(1.0, 2.0, 0.0)


def test_step_deterministic_rejects_misshaped_scores():
    # unchecked, (11,) float scores would broadcast along the rows into an 11x11
    # grid; (10,) scores are the ten scores by code
    g = lone_defector_grid(11)
    for dtype in (np.float64, np.uint8):
        for shape in ((11,), (1, 11), (22, 22), (5, 5), ()):
            with pytest.raises(ValueError, match="scores must be shaped like the grid"):
                step_deterministic(g, np.zeros(shape, dtype))


def test_step_deterministic_homogeneous_fixed():
    g = Grid(np.ones((5, 5), dtype=np.uint8))
    scores = compute_scores(g, PayoffParams(b=1.8))
    assert step_deterministic(g, scores) == g


def _invested_scores(g, b, theta):
    # pop pays by code: the ten surpluses add to the ten base scores
    payoff = PayoffParams(b=b)
    surplus = apply(Pop(p_c=1.0, theta=theta), g, payoff).surplus
    return by_code(g.code, score_table(payoff) + surplus)


def test_step_deterministic_lone_defector_converts_above_threshold():
    # theta=4.3 > 4b-3=4.2: the defector's neighbours outscore it
    g = lone_defector_grid(10)
    after = step_deterministic(g, _invested_scores(g, 1.8, 4.3))
    assert coop_count(after) == g.size


def test_step_deterministic_lone_defector_stable_band():
    # 4b-4 < theta=4.1 <= 4b-3: nobody copies anybody
    g = lone_defector_grid(10)
    after = step_deterministic(g, _invested_scores(g, 1.8, 4.1))
    assert after == g


@settings(max_examples=60)
@given(grids(), st.floats(0.0, 6.0))
def test_step_deterministic_matches_bruteforce(g, theta):
    for b in TIE_BS:  # every example is checked at each temptation
        scores = _invested_scores(g, b, theta) if theta > 0 else compute_scores(g, PayoffParams(b=b))
        expected = step_deterministic_bruteforce(g, scores)
        assert step_deterministic(g, scores) == expected
        # the uint8 ranks of the same scores (pop with p_c=1 pays every cooperator)
        ranks = (key_table(paid_score_table(PayoffParams(b=b), theta, 4)) >> 4).take(g.code)
        assert step_deterministic(g, ranks) == expected


@settings(max_examples=40)
@given(grids(5, 12), st.integers(0, 2**32 - 1))
def test_step_deterministic_on_ranks_up_to_19_matches_float_path(g, seed):
    # uint8 ranks of any size take the running maximum and must not wrap.
    # The 20 distinct scores ``table`` and ``table + theta``, indexed by
    # code + 10 * paid, give ranks 0..19.
    table = score_table(PayoffParams(b=1.9, punishment=0.15))
    levels = np.concatenate((table, table + 0.05))
    ranks = np.unique(levels, return_inverse=True)[1].astype(np.uint8)
    assert sorted(ranks) == list(range(20))
    paid = np.random.default_rng(seed).integers(0, 2, g.code.shape, dtype=np.uint8)
    index = g.code + 10 * paid
    scores, cell_ranks = levels.take(index), ranks.take(index)
    expected = step_deterministic_bruteforce(g, scores)
    assert step_deterministic(g, scores) == expected
    assert step_deterministic(g, cell_ranks) == expected
    # halved (0..9, with new ties) they still pick the first maximum
    halved = cell_ranks // 2
    assert step_deterministic(g, halved) == step_deterministic_bruteforce(g, halved)


def _assert_owns_fresh_cells(result: Grid, g: Grid, scores) -> None:
    # a step's grid is frozen in place, unchecked: its cells must be a new
    # 0/1 array, read-only, that no input shares, and equal to a checked Grid
    cells = result.cells
    assert cells.dtype == np.uint8 and cells.flags.c_contiguous
    assert not cells.flags.writeable
    assert set(np.unique(cells).tolist()) <= {0, 1}
    assert not np.shares_memory(cells, g.cells)
    if scores is not None:
        assert not np.shares_memory(cells, scores)
    assert result == Grid(cells.copy())


@settings(max_examples=40, deadline=None)
@given(grids() | homogeneous_grids(), st.sampled_from(TIE_BS), st.floats(0.0, 6.0), st.integers(0, 4))
def test_step_deterministic_results_own_read_only_cells(g, b, theta, n_c):
    payoff = PayoffParams(b=b)
    # uint8 ranks (below 16) and the same ranks raised by 16 take the running
    # maximum like float scores
    ranks = by_code(g.code, key_table(paid_score_table(payoff, theta, n_c)) >> 4)
    assert ranks.max() < 16
    high = ranks + np.uint8(16)
    floats = by_code(g.code, paid_score_table(payoff, theta, n_c))
    for scores in (ranks, high, floats):
        _assert_owns_fresh_cells(step_deterministic(g, scores), g, scores)


# Score tables for the tie-order predicate: flat payments on every P and on
# temptations beyond TIE_BS, among them thetas that tie a paid cooperator with
# a defector at some b (k + theta = k' * b + (4 - k') * P); theta 0 gives the
# unpaid table. Equal tables are kept once.
PLAIN_BS = (*TIE_BS, 1.05, 1.2, 1.25, 1.75)
PLAIN_PS = (0.0, 0.1, 0.25)
PLAIN_THETAS = (*TIE_THETAS, 0.0, 1.2, 1.25, 1.8, 2.5, 3.0)
TIE_TABLES = list({
    table.tobytes(): table
    for b, p, theta, n_c in itertools.product(PLAIN_BS, PLAIN_PS, PLAIN_THETAS, range(5))
    for table in [paid_score_table(PayoffParams(b=b, punishment=p), theta, n_c)]
}.values())
# One table per key table: the keys alone decide imitate-best, and equal
# scores are equal ranks, so the keys decide the predicate as well.
KEYED_TABLES = list({key_table(table).tobytes(): table for table in TIE_TABLES}.values())


@settings(max_examples=200, deadline=None)
@given(
    grids() | homogeneous_grids(),
    st.sampled_from(PLAIN_BS),
    st.sampled_from(PLAIN_PS),
    st.sampled_from(PLAIN_THETAS) | st.floats(0.0, 6.0),
    st.integers(0, 4),
)
def test_step_deterministic_on_key_table_matches_bruteforce(g, b, p, theta, n_c):
    # looking each cell's key up by code must give the grid of the oracle on
    # the scores those codes stand for, and a grid of its own, on the plain
    # path and on the tie order's
    table = paid_score_table(PayoffParams(b=b, punishment=p), theta, n_c)
    scores = by_code(g.code, table)
    got = step_deterministic(g, table)
    assert got == step_deterministic_bruteforce(g, scores)
    _assert_owns_fresh_cells(got, g, key_table(table))
    assert step(g, table, Deterministic(), None) == got


def _lattice_stack(side, cells):
    """The lattices of ``cells`` (n, side, side) with their codes."""
    cells = np.asarray(cells, dtype=np.uint8).reshape(-1, side, side)
    return cells, cell_codes(cells, neighbour_field(cells))


# Every 3x3 lattice, and 400 random lattices at each side 4..8.
LATTICES = [_lattice_stack(3, [[(i >> bit) & 1 for bit in range(9)] for i in range(512)])] + [
    _lattice_stack(side, np.random.default_rng(side).integers(0, 2, (400, side, side)))
    for side in range(4, 9)
]


def test_needs_tie_order_is_a_defector_code_tied_with_a_cooperator_code():
    assert 200 < sum(map(needs_tie_order, TIE_TABLES)) < len(TIE_TABLES) - 200
    for table in TIE_TABLES:
        mixed = any(table[d] == table[c] for d in range(1, 5) for c in range(5, 10))
        assert needs_tie_order(table) is mixed
        assert needs_tie_order(list(table)) is mixed  # cached by bytes, of any array-like
    # code 0 is exempt: at b=1.8 its score 0 is an unpaid cooperator's with k=0
    assert not needs_tie_order(score_table(PayoffParams(b=1.8)))
    assert needs_tie_order(score_table(PayoffParams(b=1.5)))  # 2 * 1.5 == 3


def test_imitate_best_skips_the_tie_order_only_where_it_agrees():
    # Wherever the predicate lets imitate-best skip the tie order, plain maxima
    # must give first_max's cells on every lattice; elsewhere the tie order runs.
    # One stack per side, so a table costs one call per side.
    for table in KEYED_TABLES:
        table_keys, ordered = key_table(table), needs_tie_order(table)
        for cells, codes in LATTICES:
            keys = table_keys.take(codes)
            expected = first_max(keys.copy(), *neighbour_field(keys)) & 1
            assert np.array_equal(dynamics.imitate_best(keys.copy(), ordered), expected), (
                table, ordered, cells.shape)
            out = np.empty_like(keys)  # the stack's form: keys in, cells out
            assert best_strategy(keys, neighbour_field(keys), ordered, out=out) is out
            assert np.array_equal(out, expected)


@pytest.mark.parametrize("b, theta, n_c, ordered", [
    (1.8, 3.0, 3, False),  # a shipped table: no tie
    (1.8, 0.0, 4, False),  # unpaid: code 0 ties code 5 alone
    (1.8, 1.8, 0, True),  # paid code 5 ties code 1
    (1.5, 0.0, 4, True),  # 2 * 1.5 == 3: code 2 ties code 8
    (2.0, 1.0, 4, True),  # paid codes 6 and 8 tie codes 1 and 2
])
def test_imitate_best_matches_bruteforce_on_every_3x3_lattice(b, theta, n_c, ordered):
    table = paid_score_table(PayoffParams(b=b), theta, n_c)
    assert needs_tie_order(table) is ordered
    cells, codes = LATTICES[0]
    for g in map(Grid, cells):
        assert step_deterministic(g, table) == step_deterministic_bruteforce(
            g, by_code(g.code, table)), g.cells


def test_step_deterministic_rejects_bad_inputs():
    g = lone_defector_grid(10)
    # scores are per cell or the ten by code: none, other sizes and shapes, and
    # an acceptance table reaching the deterministic rule are named
    accept = acceptance_table(score_table(PayoffParams(b=1.8)), 0.3)
    bad = (None, np.zeros(9), np.zeros(11), np.zeros(100), np.zeros((20, 20)), np.zeros((5, 5)))
    for scores in (*bad, accept):
        named = rf"scores must be shaped like the grid .* got {re.escape(str(np.shape(scores)))}$"
        with pytest.raises(ValueError, match=named):
            step_deterministic(g, scores)
        with pytest.raises(ValueError, match=named):
            step(g, scores, Deterministic(), None)


@settings(max_examples=40, deadline=None)
@given(
    grids() | homogeneous_grids(),
    st.sampled_from(TIE_BS),
    st.floats(0.0, 6.0),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_step_fermi_results_own_read_only_cells(g, b, theta, n_c, mu, seed):
    rule = Fermi(K=0.1, mu=mu)
    table = paid_score_table(PayoffParams(b=b), theta, n_c)
    scores = by_code(g.code, table)
    for given, read in ((table, acceptance_table(table, rule.K)), (scores, scores)):
        _assert_owns_fresh_cells(step_fermi(g, given, rule, np.random.default_rng(seed)), g, read)


def test_step_deterministic_is_pure():
    g = lone_defector_grid(8)
    scores = _invested_scores(g, 1.8, 4.3)
    first = step_deterministic(g, scores)
    second = step_deterministic(g, scores)
    assert first == second
    assert coop_count(g) == g.size - 1  # input untouched


def test_step_fermi_homogeneous_is_fixed_without_mutation():
    g = Grid(np.ones((6, 6), dtype=np.uint8))
    scores = compute_scores(g, PayoffParams(b=1.8))
    after = step_fermi(g, scores, Fermi(K=0.3), np.random.default_rng(0))
    assert after == g


def test_step_fermi_full_mutation_is_uniform():
    g = Grid(np.zeros((40, 40), dtype=np.uint8))
    scores = compute_scores(g, PayoffParams(b=1.8))
    after = step_fermi(g, scores, Fermi(K=0.3, mu=1.0), np.random.default_rng(7))
    frac = coop_count(after) / after.size
    # binomial(1600, 0.5): 6 sigma is ~0.075
    assert abs(frac - 0.5) < 0.075


def test_step_fermi_seed_reproducible():
    g = lone_defector_grid(8)
    scores = compute_scores(g, PayoffParams(b=1.8))
    rule = Fermi(K=0.3, mu=0.05)
    a = step_fermi(g, scores, rule, np.random.default_rng(123))
    b = step_fermi(g, scores, rule, np.random.default_rng(123))
    assert a == b


@settings(max_examples=30, deadline=None)
@given(grids(), st.floats(0.05, 2.0), st.sampled_from([0.0, 0.02, 0.5, 1.0]), st.integers(0, 2**32 - 1))
def test_step_fermi_matches_sequential_replay(g, k, mu, seed):
    # the vectorised update must equal a per-agent sequential replay of the
    # documented (mutation, neighbour, acceptance) draw layout
    scores = compute_scores(g, PayoffParams(b=1.8))
    rule = Fermi(K=k, mu=mu)
    got = step_fermi(g, scores, rule, np.random.default_rng(seed))
    expected = step_fermi_bruteforce(g, scores, k, mu, seed)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    grids(),
    st.sampled_from([Pop(p_c=1.0, theta=1.0), NebI(eps=0.5), NebII(eps=0.5)]),
    st.sampled_from([0.0, 0.05]),
    st.integers(0, 2**32 - 1),
)
def test_step_fermi_matches_sequential_replay_on_invested_scores(g, scheme, mu, seed):
    # the replay must also hold for base + surplus, the scores the engine passes
    for b in TIE_BS:
        payoff = PayoffParams(b=b)
        surplus = apply(scheme, g, payoff).surplus
        if isinstance(scheme, Pop):  # paid by code
            scores = by_code(g.code, score_table(payoff) + surplus)
        else:
            scores = compute_scores(g, payoff) + surplus
        got = step_fermi(g, scores, Fermi(K=0.3, mu=mu), np.random.default_rng(seed))
        assert got == step_fermi_bruteforce(g, scores, 0.3, mu, seed)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_step_fermi_on_per_cell_scores_of_any_real_dtype(dtype):
    # per-cell scores of another real dtype are compared as float64: they give
    # the next grid, and leave the next draw, of their float64 copies
    rule = Fermi(K=0.3, mu=0.1)
    for seed in range(10):
        g = Grid(np.random.default_rng(seed).integers(0, 2, (9, 9), dtype=np.uint8))
        scores = compute_scores(g, PayoffParams(b=1.8)).astype(dtype)
        got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = step_fermi(g, scores, rule, got_rng)
        assert got == step_fermi(g, scores.astype(np.float64), rule, expected_rng), seed
        assert got_rng.random() == expected_rng.random()


@pytest.mark.parametrize("side", [*range(3, 10), 256, 257])
def test_neighbour_index_matches_neighbours(side):
    # entry d * Z + i is agent i's neighbour in direction d (N, E, S, W), in the
    # smallest unsigned dtype that holds Z - 1: uint16 up to L=256, then uint32
    z = side * side
    index = _neighbour_index(side)
    assert index.shape == (4 * z,) and not index.flags.writeable
    assert index.dtype == np.min_scalar_type(z - 1)
    agents = range(z) if side < 10 else (0, side - 1, z // 2, z - side, z - 1)
    for i in agents:
        assert tuple(int(index[d * z + i]) for d in range(4)) == neighbours(i, side)


def test_neighbour_index_keeps_one_side_length():
    # the float-score Fermi path builds it; only the last L's index stays cached
    _neighbour_index.cache_clear()
    rng = np.random.default_rng(5)
    for side in (6, 7):
        g = Grid(rng.integers(0, 2, (side, side), dtype=np.uint8))
        step_fermi(g, compute_scores(g, PayoffParams(b=1.8)), Fermi(K=0.3), rng)
    info = _neighbour_index.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (2, 1, 1)
    assert _neighbour_index(7) is _neighbour_index(7)


@settings(max_examples=60, deadline=None)
@given(
    grids() | homogeneous_grids(),
    st.sampled_from(TIE_BS),
    st.sampled_from([0.0, 0.5, 1.0, 3.0, 5.3]) | st.floats(0.01, 6.0),
    st.integers(0, 4),
    st.sampled_from([0.05, 0.3, 2.0]) | st.floats(0.05, 2.0),
    st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_step_fermi_on_acceptance_table_matches_replay(g, b, theta, n_c, k, mu, seed):
    # looking acceptance up by (own code, neighbour code) must give the grid of
    # the replay, and of the float path, on the scores those codes stand for
    table = paid_score_table(PayoffParams(b=b), theta, n_c)
    scores = by_code(g.code, table)
    rule = Fermi(K=k, mu=mu)
    got = step_fermi(g, table, rule, np.random.default_rng(seed))
    assert got == step_fermi_bruteforce(g, scores, k, mu, seed)
    assert got == step_fermi(g, scores, rule, np.random.default_rng(seed))
    assert step(g, table, rule, np.random.default_rng(seed)) == got


def test_step_fermi_rejects_bad_inputs():
    g = lone_defector_grid(10)
    rule = Fermi(K=0.3)
    # scores are per cell or the ten by code: none, other sizes and shapes, and
    # an acceptance table passed as scores are named, before any draw
    accept = acceptance_table(score_table(PayoffParams(b=1.8)), 0.3)
    bad = (None, np.full(99, 0.5), np.full(101, 0.5), np.zeros((20, 20)), np.zeros((5, 5)))
    for scores in (*bad, accept):
        for call in (step_fermi, step):
            rng = FixedDraws(np.zeros((g.size, 3)))
            named = rf"scores must be shaped like the grid .* got {re.escape(str(np.shape(scores)))}$"
            with pytest.raises(ValueError, match=named):
                call(g, scores, rule, rng)
            assert rng.calls == 0


class FixedDraws:
    """Stands in for a Generator whose one ``random(out=...)`` call fills a
    (Z, 3) array with ``draws``."""

    def __init__(self, draws):
        self.draws = draws
        self.calls = 0

    def random(self, out):
        assert out.shape == self.draws.shape
        self.calls += 1
        out[...] = self.draws


def boundary_draws(g, scores, k, mu):
    """(Z, 3) draws at every threshold: u_n cycles QUARTER_EDGES, u_m is mu / 2,
    mu or above both, and u_a is the acceptance probability of the chosen
    neighbour, the float just below it (which copies) or 0.0, the smallest draw
    (which copies only where that probability is above 0.0)."""
    length = g.side_length
    flat_scores = scores.reshape(-1)
    mut_cycle = (mu / 2, mu, np.nextafter(mu / 2, 0), np.nextafter(mu, 0), 0.6, 0.9, 0.99)
    draws = np.empty((g.size, 3))
    for i in range(g.size):
        u_nbr = QUARTER_EDGES[i % len(QUARTER_EDGES)]
        j = neighbours(i, length)[int(4 * u_nbr)]
        p = fermi_probability(float(flat_scores[i]), float(flat_scores[j]), k)
        u_acc = (p, np.nextafter(p, 0), 0.0)[(i // len(QUARTER_EDGES)) % 3]
        draws[i] = mut_cycle[i % len(mut_cycle)], u_nbr, u_acc
    return draws


@pytest.mark.parametrize("side", [3, 4, 7])
@pytest.mark.parametrize("mu", [0.0, 0.02, 0.5])
@pytest.mark.parametrize("b", TIE_BS)
def test_step_fermi_at_draw_boundaries_matches_replay(side, mu, b):
    # crafted draws at each threshold pin the neighbour selects, the mutation
    # compares and the strict acceptance compare on both paths; at K=1e-300
    # the probabilities saturate to exactly 0.0 and 1.0, and at K=1e-310 the
    # gaps overflow to +-inf without a warning
    payoff = PayoffParams(b=b)
    for k, seed in itertools.product((0.3, 1e-300, 1e-310), range(4)):
        rule = Fermi(K=k, mu=mu)
        g = Grid(np.random.default_rng(seed).integers(0, 2, (side, side), dtype=np.uint8))
        table = paid_score_table(payoff, 3.0, 2)
        table_scores = by_code(g.code, table)
        draws = boundary_draws(g, table_scores, k, mu)
        expected = step_fermi_bruteforce(g, table_scores, k, mu, draws=draws)
        for scores in (table, table_scores):
            rng = FixedDraws(draws)
            assert step_fermi(g, scores, rule, rng) == expected
            assert rng.calls == 1
        # the float path on scores no code table gives
        scores = compute_scores(g, payoff) + apply(NebII(eps=0.5), g, payoff).surplus
        draws = boundary_draws(g, scores, k, mu)
        rng = FixedDraws(draws)
        assert step_fermi(g, scores, rule, rng) == step_fermi_bruteforce(
            g, scores, k, mu, draws=draws
        )
        assert rng.calls == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", [NebI(eps=0.5), NebII(eps=0.5)])
@pytest.mark.parametrize("k", [1e-3, 1e-300, 0.3])
def test_step_fermi_float_path_beyond_exp_overflow_matches_replay(scheme, k):
    # at a small K the gaps pass exp's overflow edge (+-709.78) both ways,
    # which must saturate to 0 or 1 without a RuntimeWarning
    payoff = PayoffParams(b=1.8)
    rule = Fermi(K=k, mu=0.02)
    for seed in range(30):
        g = Grid(np.random.default_rng(seed).integers(0, 2, (7, 7), dtype=np.uint8))
        scores = compute_scores(g, payoff) + apply(scheme, g, payoff).surplus
        got = step_fermi(g, scores, rule, np.random.default_rng(seed))
        assert got == step_fermi_bruteforce(g, scores, k, 0.02, seed), seed


def neb_ii_fermi_trajectory(side, seed, generations=30):
    """The grids of ``generations`` neb_ii Fermi steps from a seeded random grid."""
    payoff = PayoffParams(b=1.8)
    rule = Fermi(K=0.3, mu=0.01)
    rng = np.random.default_rng(seed)
    g = Grid(rng.integers(0, 2, (side, side), dtype=np.uint8))
    trajectory = []
    for _ in range(generations):
        scores = compute_scores(g, payoff) + apply(NebII(eps=0.5), g, payoff).surplus
        g = step_fermi(g, scores, rule, rng)
        trajectory.append(g)
    return trajectory


def test_step_fermi_draw_buffers_are_per_thread():
    jobs = [(side, seed) for seed in range(4) for side in (20, 33)]
    serial = [neb_ii_fermi_trajectory(*job) for job in jobs]
    start = threading.Barrier(len(jobs))

    def threaded(job):
        start.wait()
        return neb_ii_fermi_trajectory(*job)

    with ThreadPoolExecutor(len(jobs)) as pool:
        assert list(pool.map(threaded, jobs)) == serial


def test_step_fermi_draw_buffers_follow_side_length_and_stay_inside():
    # 5 -> 7 -> 5 in one thread gives the steps of fresh generators, and no
    # returned grid shares memory with the reused draw buffers
    payoff = PayoffParams(b=1.8)
    rule = Fermi(K=0.3, mu=0.02)
    for seed, side in enumerate((5, 7, 5)):
        g = Grid(np.random.default_rng(seed).integers(0, 2, (side, side), dtype=np.uint8))
        scores = compute_scores(g, payoff) + apply(NebII(eps=0.5), g, payoff).surplus
        for got, expected in (
            (step_fermi(g, scores, rule, np.random.default_rng(seed)),
             step_fermi_bruteforce(g, scores, 0.3, 0.02, seed)),
            (step_fermi(g, score_table(payoff), rule, np.random.default_rng(seed)),
             step_fermi_bruteforce(g, compute_scores(g, payoff), 0.3, 0.02, seed)),
        ):
            assert got == expected
            buffers = dynamics._draws.buffers
            assert not any(np.shares_memory(got.cells, buffer) for buffer in buffers)


def test_fermi_steps_in_a_fresh_process_import_no_scipy():
    script = """
import sys
import numpy as np
import latticecoop as lc
g = lc.Grid(np.random.default_rng(0).integers(0, 2, (10, 10), dtype=np.uint8))
for scheme in (lc.Pop(p_c=0.9, theta=3.0), lc.NebII(eps=0.5)):  # table path, float path
    lc.step_generation(g, lc.PayoffParams(b=1.8), scheme, lc.Fermi(K=0.3, mu=0.01),
                       np.random.default_rng(0))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_step_dispatch():
    g = lone_defector_grid(8)
    scores = compute_scores(g, PayoffParams(b=1.8))
    assert step(g, scores, Deterministic(), None) == step_deterministic(g, scores)
    with pytest.raises(ValueError):
        step(g, scores, Fermi(K=0.3), None)
