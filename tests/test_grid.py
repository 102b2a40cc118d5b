import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecoop.grid import (
    Grid,
    Strategy,
    coop_count,
    format_snapshot,
    grid_hash,
    neighbours,
    parse_snapshot,
    random_grid,
)

from conftest import grids


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
    assert g.coop_neighbours.dtype == np.uint8 and g.code.dtype == np.uint8
    assert np.array_equal(g.coop_neighbours.reshape(-1), k)
    assert np.array_equal(g.code.reshape(-1), expected)
    assert not g.code.flags.writeable and not g.coop_neighbours.flags.writeable


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
    with pytest.raises(ValueError):
        parse_snapshot("3\nCCC\nCCC\nCCC\n")
    with pytest.raises(ValueError):
        parse_snapshot("L=3\nCCC\nCCC\n")
    with pytest.raises(ValueError):
        parse_snapshot("L=3\nCCC\nCXC\nCCC\n")
    with pytest.raises(ValueError):
        parse_snapshot("L=3\nCCC\nCCCC\nCCC\n")
