"""Shared fixtures and independent brute-force oracles.

The oracles re-derive every rule with plain per-agent loops over
``neighbours(i, L)``, deliberately avoiding the vectorised code paths they
are used to check. ``neighbours``, ``pair_payoff`` and ``fermi_probability``
are the per-agent reference forms of the lattice, the game and the Fermi
rule; the package itself works on whole grids and by-code tables.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from latticecoop.game import REWARD, SUCKER, PayoffParams, logistic
from latticecoop.grid import MIN_SIDE_LENGTH, Grid, Strategy
from latticecoop.interference import Neb, NoInterference, Pop


def neighbours(i: int, side_length: int) -> tuple[int, int, int, int]:
    """Von Neumann neighbours of agent ``i`` in fixed (N, E, S, W) order.

    Indices are row-major on the torus: agent i sits at row i // L,
    column i % L, and the lattice wraps modulo L in both directions.
    """
    length = side_length
    if length < MIN_SIDE_LENGTH:
        raise ValueError(f"side length must be >= {MIN_SIDE_LENGTH}, got {length}")
    if not 0 <= i < length * length:
        raise ValueError(f"agent index {i} out of range for L={length}")
    r, c = divmod(i, length)
    north = ((r - 1) % length) * length + c
    east = r * length + (c + 1) % length
    south = ((r + 1) % length) * length + c
    west = r * length + (c - 1) % length
    return north, east, south, west


def pair_payoff(me: Strategy, other: Strategy, params: PayoffParams) -> float:
    """Payoff to ``me`` from a single encounter with ``other``."""
    if me == Strategy.C:
        return REWARD if other == Strategy.C else SUCKER
    return params.b if other == Strategy.C else params.punishment


def fermi_probability(f_a: float, f_b: float, k: float) -> float:
    """Probability that agent A (score f_a) copies neighbour B (score f_b).

    Evaluates (1 + exp((f_a - f_b) / K))^-1 as ``game.logistic``, so extreme
    score gaps saturate to 0.0 or 1.0 without overflow.
    """
    if not k > 0.0:
        raise ValueError(f"noise amplitude K must be > 0, got {k}")
    if not (math.isfinite(f_a) and math.isfinite(f_b)):
        raise ValueError(f"scores must be finite, got f_a={f_a}, f_b={f_b}")
    return logistic((f_b - f_a) / k)


# At b=1.5 and b=2.0 an invested cooperator's score k + theta equals a
# defector's k'*b for theta in {0.5, 1.0, 1.5, 2.0}.
TIE_THETAS = (0.5, 1.0, 1.5, 2.0)


def grids(min_side=3, max_side=8):
    """Hypothesis strategy for small random grids."""

    def build(side, bits):
        cells = np.array(bits[: side * side], dtype=np.uint8).reshape(side, side)
        return Grid(cells)

    return st.integers(min_side, max_side).flatmap(
        lambda side: st.builds(
            build,
            st.just(side),
            st.lists(
                st.integers(0, 1), min_size=side * side, max_size=side * side
            ),
        )
    )


def homogeneous_grids(min_side=3, max_side=8):
    """Hypothesis strategy for all-C and all-D grids."""

    def build(side, strategy):
        return Grid(np.full((side, side), strategy, dtype=np.uint8))

    return st.builds(build, st.integers(min_side, max_side), st.integers(0, 1))


def payoffs():
    return st.builds(
        PayoffParams,
        b=st.floats(min_value=1.01, max_value=2.0, allow_nan=False),
        punishment=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )


def scores_bruteforce(g: Grid, params: PayoffParams) -> np.ndarray:
    length = g.side_length
    flat = g.cells.reshape(-1)
    out = np.zeros(g.size)
    for i in range(g.size):
        me = Strategy(int(flat[i]))
        out[i] = sum(
            pair_payoff(me, Strategy(int(flat[j])), params) for j in neighbours(i, length)
        )
    return out.reshape(length, length)


def best_neighbour_bruteforce(i: int, base_flat, length: int) -> int:
    """Index of agent i's maximal-base-score neighbour, N/E/S/W tie order."""
    best = None
    for j in neighbours(i, length):
        if best is None or base_flat[j] > base_flat[best]:
            best = j
    return best


def neb_i_bruteforce(g: Grid, base: np.ndarray, eps: float, agents=None) -> np.ndarray:
    """Per-agent neb_i surplus; only ``agents`` (flat indices, default all) are evaluated."""
    length = g.side_length
    flat = g.cells.reshape(-1)
    base_flat = base.reshape(-1)
    surplus = np.zeros(g.size)
    for i in range(g.size) if agents is None else agents:
        if flat[i] != Strategy.C.value:
            continue
        b_idx = best_neighbour_bruteforce(i, base_flat, length)
        if flat[b_idx] == Strategy.D.value and base_flat[b_idx] > base_flat[i]:
            surplus[i] = base_flat[b_idx] - base_flat[i] + eps
    return surplus.reshape(length, length)


def neb_ii_bruteforce(g: Grid, base: np.ndarray, eps: float) -> np.ndarray:
    length = g.side_length
    flat = g.cells.reshape(-1)
    base_flat = base.reshape(-1)
    surplus = neb_i_bruteforce(g, base, eps).reshape(-1)
    post = base_flat + surplus
    for i in range(g.size):
        if flat[i] != Strategy.C.value:
            continue
        required = None
        for d in neighbours(i, length):
            if flat[d] != Strategy.D.value:
                continue
            role_model = best_neighbour_bruteforce(d, base_flat, length)
            if flat[role_model] == Strategy.D.value:
                m = base_flat[role_model]
                required = m if required is None else max(required, m)
        if required is not None:
            surplus[i] += max(0.0, required + eps - post[i])
    return surplus.reshape(length, length)


# The cells within Manhattan distance 2 of a centre. Under imitate-best with a
# flat scheme they alone decide the centre's next strategy (pop's global
# trigger aside), and under neb_i its surplus.
DIAMOND = [(dr, dc) for dr in range(-2, 3) for dc in range(-2, 3) if abs(dr) + abs(dc) <= 2]


def diamond_lattice():
    """All 2**13 diamonds, one per 5x5 block, centred in the blocks of one lattice.

    Returns the grid and the flat indices of the centres.
    """
    n = 2 ** len(DIAMOND)
    per_side = int(np.ceil(np.sqrt(n)))
    side = 5 * per_side
    block_row, block_col = np.divmod(np.arange(n), per_side)
    cells = np.zeros((side, side), dtype=np.uint8)  # spare blocks stay all D
    for bit, (dr, dc) in enumerate(DIAMOND):
        cells[5 * block_row + 2 + dr, 5 * block_col + 2 + dc] = (np.arange(n) >> bit) & 1
    return Grid(cells), (5 * block_row + 2) * side + 5 * block_col + 2


def pop_fires_bruteforce(g: Grid, scheme) -> bool:
    """Whether pop's global trigger x_C <= p_c * Z fires on ``g``."""
    return isinstance(scheme, Pop) and g.cells.sum() <= np.floor(scheme.p_c * g.size + 1e-9)


def flat_paid_bruteforce(scheme, me: int, k: int, pop_fires: bool) -> bool:
    """Whether NoInterference, Pop or Neb pays an agent playing ``me`` with k cooperating neighbours."""
    if me != Strategy.C.value or isinstance(scheme, NoInterference):
        return False
    return pop_fires or (isinstance(scheme, Neb) and k <= scheme.n_c)


def flat_surplus_bruteforce(g: Grid, scheme) -> np.ndarray:
    """Per-agent surplus of NoInterference, Pop or Neb, one agent at a time."""
    length = g.side_length
    flat = g.cells.reshape(-1)
    surplus = np.zeros(g.size)
    pop_fires = pop_fires_bruteforce(g, scheme)
    for i in range(g.size):
        k = sum(int(flat[j]) for j in neighbours(i, length))
        if flat_paid_bruteforce(scheme, int(flat[i]), k, pop_fires):
            surplus[i] = scheme.theta
    return surplus.reshape(length, length)


def step_deterministic_bruteforce(g: Grid, scores: np.ndarray) -> Grid:
    length = g.side_length
    flat = g.cells.reshape(-1)
    score_flat = scores.reshape(-1)
    nxt = np.empty_like(flat)
    for i in range(g.size):
        best_idx, best_score = i, score_flat[i]  # self first
        for j in neighbours(i, length):
            if score_flat[j] > best_score:
                best_idx, best_score = j, score_flat[j]
        nxt[i] = flat[best_idx]
    return Grid(nxt.reshape(length, length))


# Both edges of each quarter of [0, 1): a neighbour draw u in [k/4, (k+1)/4)
# picks entry k of (N, E, S, W).
QUARTER_EDGES = (
    0.0, np.nextafter(0.25, 0), 0.25, np.nextafter(0.5, 0),
    0.5, np.nextafter(0.75, 0), 0.75, np.nextafter(1.0, 0),
)


def step_fermi_bruteforce(
    g: Grid, scores: np.ndarray, k: float, mu: float, seed: int | None = None, draws=None
) -> Grid:
    """Sequential replay of the documented draw layout: rng.random((Z, 3)).

    The draws come from ``default_rng(seed)`` unless ``draws``, a (Z, 3)
    array of (mutation, neighbour, acceptance) uniforms, gives them.
    """
    length = g.side_length
    flat = g.cells.reshape(-1)
    score_flat = scores.reshape(-1)
    if draws is None:
        draws = np.random.default_rng(seed).random((g.size, 3))
    nxt = np.empty_like(flat)
    for i in range(g.size):
        u_mut, u_nbr, u_acc = draws[i]
        if u_mut < mu:
            nxt[i] = Strategy.C.value if u_mut < mu / 2 else Strategy.D.value
            continue
        j = neighbours(i, length)[int(u_nbr * 4)]
        try:
            p = 1.0 / (1.0 + math.exp((score_flat[i] - score_flat[j]) / k))
        except OverflowError:  # as game.logistic (and expit): 0.0 past exp's overflow edge
            p = 0.0
        nxt[i] = flat[j] if u_acc < p else flat[i]
    return Grid(nxt.reshape(length, length))
