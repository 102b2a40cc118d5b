import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticecoop.dynamics import Fermi, step_deterministic, step_fermi
from latticecoop.game import PayoffParams, compute_scores
from latticecoop.grid import (
    Grid,
    Strategy,
    choose_neighbour,
    coop_count,
    first_max,
    format_snapshot,
    grid_hash,
    neighbour_field,
    parse_snapshot,
    random_grid,
)

from conftest import QUARTER_EDGES, grids, neighbours


def all_c(side):
    return Grid(np.ones((side, side), dtype=np.uint8))


def all_d(side):
    return Grid(np.zeros((side, side), dtype=np.uint8))


# hand wrap-around arithmetic on a 3x3 torus, row-major
def test_neighbours_3x3_corner():
    assert neighbours(0, 3) == (6, 1, 3, 2)


def test_neighbours_3x3_centre():
    assert neighbours(4, 3) == (1, 5, 7, 3)


@given(st.integers(3, 12).flatmap(lambda L: st.tuples(st.just(L), st.integers(0, L * L - 1))))
def test_neighbour_symmetry(params):
    length, i = params
    for j in neighbours(i, length):
        assert i in neighbours(j, length)


@given(st.integers(3, 12).flatmap(lambda L: st.tuples(st.just(L), st.integers(0, L * L - 1))))
def test_neighbours_distinct_and_inverse(params):
    length, i = params
    nbrs = neighbours(i, length)
    assert len(set(nbrs)) == 4
    # each direction's inverse returns to i: N<->S, E<->W
    north, east, south, west = nbrs
    assert neighbours(north, length)[2] == i
    assert neighbours(south, length)[0] == i
    assert neighbours(east, length)[3] == i
    assert neighbours(west, length)[1] == i


def test_neighbours_contract_violations():
    with pytest.raises(ValueError):
        neighbours(0, 2)
    with pytest.raises(ValueError):
        neighbours(9, 3)
    with pytest.raises(ValueError):
        neighbours(-1, 3)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        Grid(np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Grid(np.full((3, 3), 2, dtype=np.uint8))


def test_grid_is_immutable_and_decoupled():
    source = np.zeros((3, 3), dtype=np.uint8)
    g = Grid(source)
    source[0, 0] = 1  # caller's array stays writable, grid must not see it
    assert g.cells[0, 0] == 0
    with pytest.raises(ValueError):
        g.cells[0, 0] = 1


def test_coop_count_trivials():
    assert coop_count(all_c(10)) == 100
    assert coop_count(all_d(10)) == 0
    cells = np.ones((10, 10), dtype=np.uint8)
    cells[3, 7] = 0
    assert coop_count(Grid(cells)) == 99


@given(grids())
def test_coop_plus_defector_is_z(g):
    defectors = int(np.count_nonzero(g.cells == Strategy.D.value))
    assert coop_count(g) + defectors == g.size


@settings(max_examples=40)
@given(grids())
def test_cell_codes_match_bruteforce(g):
    # code = 5 * strategy + k, with k the cooperating neighbours, all uint8
    flat = g.cells.reshape(-1)
    k = [sum(int(flat[j]) for j in neighbours(i, g.side_length)) for i in range(g.size)]
    expected = 5 * flat.astype(int) + np.array(k)
    assert g.code.dtype == np.uint8
    assert np.array_equal(g.code.reshape(-1), expected)
    assert not g.code.flags.writeable


@settings(max_examples=60)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
@example(3, 0)
def test_choose_neighbour_matches_neighbours(side, seed):
    # entry floor(4u) of the N, E, S, W list, cell by cell, on uint8 values up
    # to 255 (every bit of the picked bytes is kept); side 3 is the smallest
    # torus, where every cell sits next to a wrapped edge
    rng = np.random.default_rng(seed)
    field = rng.integers(0, 256, (side, side), dtype=np.uint8)
    u = rng.random((side, side))
    u.reshape(-1)[: len(QUARTER_EDGES)] = QUARTER_EDGES
    got = choose_neighbour(u, neighbour_field(field)).reshape(-1)
    flat, u_flat = field.reshape(-1), u.reshape(-1)
    for i in range(side * side):
        assert got[i] == flat[neighbours(i, side)[int(4 * u_flat[i])]]


def test_grid_hash_equal_grids():
    a = random_grid(6, 0.5, np.random.default_rng(7))
    b = Grid(a.cells.copy())
    assert a == b
    assert grid_hash(a) == grid_hash(b)
    assert grid_hash(a) == grid_hash(a)  # pure


def test_grid_hash_single_flip_collisions():
    # 10^4 random single-cell flips, no digest collision expected
    rng = np.random.default_rng(99)
    g = random_grid(8, 0.5, rng)
    base_digest = grid_hash(g)
    collisions = 0
    for _ in range(10_000):
        cells = g.cells.copy()
        r, c = rng.integers(0, 8, size=2)
        cells[r, c] ^= 1
        if grid_hash(Grid(cells)) == base_digest:
            collisions += 1
    assert collisions == 0


def test_grid_hash_is_64_bit():
    assert 0 <= grid_hash(all_c(5)) < 2**64


def test_random_grid_extremes():
    rng = np.random.default_rng(0)
    assert coop_count(random_grid(10, 1.0, rng)) == 100
    assert coop_count(random_grid(10, 0.0, rng)) == 0


def test_random_grid_binomial_spread():
    # binomial(10^4, 0.5) lands within 5000 +- 200 (4 sigma) for these seeds
    for seed in range(20):
        g = random_grid(100, 0.5, np.random.default_rng(seed))
        assert abs(coop_count(g) - 5000) <= 200


def test_random_grid_reproducible():
    a = random_grid(50, 0.5, np.random.default_rng(1234))
    b = random_grid(50, 0.5, np.random.default_rng(1234))
    assert a == b


def test_random_grid_exact_fraction():
    g = random_grid(10, 0.37, np.random.default_rng(5), exact_fraction=True)
    assert coop_count(g) == 37


def test_random_grid_validation():
    with pytest.raises(ValueError):
        random_grid(2, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_grid(5, 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_grid(5, -0.1, np.random.default_rng(0))


def test_snapshot_format_exact():
    cells = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=np.uint8)
    text = format_snapshot(Grid(cells))
    assert text == "L=3\nCDC\nDDC\nCCD\n"


@settings(max_examples=60)
@given(grids())
def test_snapshot_round_trip(g):
    assert parse_snapshot(format_snapshot(g)) == g


def test_snapshot_parse_errors():
    with pytest.raises(ValueError, match="must start with an 'L=<int>' line"):
        parse_snapshot("3\nCCC\nCCC\nCCC\n")
    with pytest.raises(ValueError, match="declares L=3 but has 2 rows"):
        parse_snapshot("L=3\nCCC\nCCC\n")
    with pytest.raises(ValueError, match="invalid cell character 'X' at row 1, column 1$"):
        parse_snapshot("L=3\nCCC\nCXC\nCCC\n")
    with pytest.raises(ValueError, match="snapshot row 1 has length 4, expected 3"):
        parse_snapshot("L=3\nCCC\nCCCC\nCCC\n")
    # rows are checked in order, length first: the invalid row 0 is reported
    with pytest.raises(ValueError, match="invalid cell character 'x' at row 0, column 2$"):
        parse_snapshot("L=3\nCCx\nCCCC\nCCC\n")
    # a Cyrillic capital Es looks like C but is not one
    with pytest.raises(ValueError, match="invalid cell character '\u0421' at row 2, column 0$"):
        parse_snapshot("L=3\nCCC\nDDD\n\u0421CD\n")
    # only a line feed ends a row: str.splitlines would also split at U+0085
    with pytest.raises(ValueError, match=r"invalid cell character '\\x85' at row 0, column 1$"):
        parse_snapshot("L=3\nC\x85C\nCCC\nCCC\n")
    # the side length is ASCII digits only, with no sign, space or other numerals
    for header in ("L= +3", "L=\u0663", "L=3 ", "L=-3", "L="):
        with pytest.raises(ValueError, match="invalid side length in snapshot header"):
            parse_snapshot(header + "\nCCC\nCCC\nCCC\n")


def test_snapshot_parses_crlf_line_ends():
    text = "L=3\r\nCDC\r\nDDC\r\nCCD\r\n"
    assert format_snapshot(parse_snapshot(text)) == text.replace("\r\n", "\n")


def _snapshot_oracle(g: Grid) -> str:
    rows = ("".join("C" if v == Strategy.C else "D" for v in row) for row in g.cells.tolist())
    return f"L={g.side_length}\n" + "".join(row + "\n" for row in rows)


@settings(max_examples=60)
@given(grids())
@example(all_c(3))
@example(all_d(8))
@example(random_grid(100, 0.5, np.random.default_rng(3)))
def test_format_snapshot_matches_per_cell_oracle(g):
    assert format_snapshot(g) == _snapshot_oracle(g)


@settings(max_examples=40, deadline=None)
@given(grids(), st.integers(0, 2**32 - 1))
def test_cached_fields_are_kept_and_read_only(g, seed):
    # on a checked grid and on the grids the two update rules build: a second
    # access returns the first value itself, and no array in it can be written
    scores = compute_scores(g, PayoffParams(b=1.8))
    made = (
        g,
        step_deterministic(g, scores),
        step_fermi(g, scores, Fermi(K=0.1, mu=0.3), np.random.default_rng(seed)),
    )
    for grid in made:
        for name in ("coop_count", "code"):
            first = getattr(grid, name)
            assert getattr(grid, name) is first
        assert not grid.code.flags.writeable
        assert grid.coop_count == int(grid.cells.sum())


@settings(max_examples=50)
@given(grids(), st.integers(0, 2**32 - 1))
def test_grid_crosses_pickle_and_copy_as_a_frozen_equal_value(g, seed):
    # on a checked grid and on one an update rule built: a pickled grid carries
    # its cells alone and is checked, frozen and derived again on arrival
    stepped = step_fermi(
        g, compute_scores(g, PayoffParams(b=1.8)), Fermi(K=0.1, mu=0.3),
        np.random.default_rng(seed),
    )
    for grid in (g, stepped):
        for again in (pickle.loads(pickle.dumps(grid)), copy.copy(grid), copy.deepcopy(grid)):
            assert again == grid
            assert not again.cells.flags.writeable and not again.code.flags.writeable
            np.testing.assert_array_equal(again.code, grid.code)
            assert again.coop_count == grid.coop_count
            with pytest.raises(ValueError, match="read-only"):
                again.cells[0, 0] ^= 1


def test_pickled_grid_carries_its_cells_alone_and_is_checked_on_arrival():
    g = random_grid(5, 0.5, np.random.default_rng(0))
    func, args = g.__reduce__()
    assert func is Grid and len(args) == 1 and args[0] is g.cells

    class Forged:  # pickles as a Grid over cells no Grid accepts
        def __reduce__(self):
            return Grid, (np.full((3, 3), 2, dtype=np.uint8),)

    with pytest.raises(ValueError, match="only 0"):
        pickle.loads(pickle.dumps(Forged()))


@settings(max_examples=100)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_first_max_picks_the_first_largest_rank(n, seed):
    # keys rank * step + strategy with step > 2 * (n - 1) + 1: the low bit of the
    # result is the strategy of the first candidate (argmax) with the largest rank
    rng = np.random.default_rng(seed)
    step = 2 * n
    ranks = rng.integers(0, 256 // step - 1, size=(n, 6, 6), dtype=np.uint8)
    strategies = rng.integers(0, 2, size=(n, 6, 6), dtype=np.uint8)
    keys = ranks * np.uint8(step) + strategies
    winner = np.take_along_axis(strategies, ranks.argmax(axis=0)[None], axis=0)[0]
    best = keys[0].copy()
    assert first_max(best, *keys[1:]) is best
    assert np.array_equal(best & 1, winner)
    assert np.array_equal(best // step, ranks.max(axis=0))
