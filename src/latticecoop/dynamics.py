"""Strategy update rules: synchronous imitate-best and Fermi imitation.

Both rules read a frozen (grid, score) pair and build the whole next
generation at once, so evaluation order cannot matter. The deterministic
rule is the K -> 0 limit of the Fermi rule; the Fermi rule draws its
randomness in a documented per-agent order so runs are seed-reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .game import acceptance_table, by_code, key_table, logistic
from .grid import (
    Grid,
    _frozen,
    check_field_types,
    choose_neighbour,
    first_max,
    neighbour_field,
    where_cells,
)


@dataclass(frozen=True)
class Deterministic:
    """Imitate the highest-scoring member of {self} + 4 neighbours."""


@dataclass(frozen=True)
class Fermi:
    """Pairwise-comparison rule with imitation noise K and mutation rate mu."""

    K: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.K > 0.0:
            raise ValueError(f"noise amplitude K must be > 0, got {self.K}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mutation probability mu must be in [0, 1], got {self.mu}")


UpdateRule = Union[Deterministic, Fermi]

# Config kind name -> update rule class.
RULES = {"deterministic": Deterministic, "fermi": Fermi}


def _is_score_table(g: Grid, scores: np.ndarray) -> bool:
    """Whether ``scores`` are the ten scores by code (``game.score_table``) rather
    than one per cell. A ValueError names ``scores`` when they are neither."""
    shape = np.shape(scores)
    if shape not in ((10,), g.cells.shape):
        raise ValueError(f"scores must be shaped like the grid {g.cells.shape} "
                         f"or hold the ten scores by code, got {shape}")
    return shape == (10,)


def step_deterministic(g: Grid, scores: np.ndarray) -> Grid:
    """Synchronous imitate-best update.

    Each agent adopts the strategy of the highest-scoring member of itself
    plus its four neighbours; ties prefer self, then the fixed N, E, S, W
    order. Pure function of (g, scores).

    ``scores`` come in one of two forms. Per cell, shaped like the grid, they
    may be of any dtype whose entries compare (``>`` and ``==``) as the scores
    do, such as their ranks; a strict-``>`` running maximum over self, N, E, S,
    W keeps the first maximum. As the ten scores by code ``5 * strategy + k``
    (``game.score_table``), each cell's key ``rank << 4 | strategy`` is looked
    up by its code in ``game.key_table(scores)``, and ``grid.first_max`` picks
    the first candidate with the largest rank, with the same result. A
    ValueError names ``scores`` in any other shape.
    """
    if _is_score_table(g, scores):
        best = by_code(g.code, key_table(scores))
        first_max(best, *neighbour_field(best))
        best &= 1
        return Grid._owning(best)
    best_score, best = scores, g.cells
    for score, strategy in zip(neighbour_field(scores), neighbour_field(g.cells)):
        best = where_cells(score > best_score, strategy, best)
        best_score = np.maximum(best_score, score)
    return Grid._owning(best)


@lru_cache(maxsize=1)
def _neighbour_index(length: int) -> np.ndarray:
    """Flat index of each agent's N, E, S, W neighbours: entry ``d * Z + i`` is
    the neighbour in direction d of agent i, in the smallest unsigned dtype.
    Only the last L's index is kept, as ``_draw_rows`` keeps one L's buffers:
    above L=256 it costs 16 bytes per agent."""
    z = length * length
    agents = np.arange(z, dtype=np.min_scalar_type(z - 1)).reshape(length, length)
    return _frozen(np.stack(neighbour_field(agents)).reshape(-1))


_draws = threading.local()


def _draw_rows(rng: np.random.Generator, length: int) -> np.ndarray:
    """One ``rng.random((Z, 3))`` draw as contiguous (mutation, neighbour, acceptance)
    rows, in this thread's two buffers for this L: overwritten by its next call."""
    buffers = getattr(_draws, "buffers", None)
    if buffers is None or buffers[1].shape[1] != length:
        buffers = _draws.buffers = (np.empty((length * length, 3)), np.empty((3, length, length)))
    raw, rows = buffers
    rng.random(out=raw)  # the stream of rng.random((Z, 3))
    np.copyto(rows, raw.T.reshape(3, length, length))
    return rows


def step_fermi(g: Grid, scores: np.ndarray, rule: Fermi, rng: np.random.Generator) -> Grid:
    """Synchronous Fermi update from a frozen copy of (g, scores).

    Randomness: one ``rng.random(out=...)`` call on a (Z, 3) array, the stream
    of ``rng.random((Z, 3))``, i.e. three uniforms per agent in row-major
    agent order, used as (mutation, neighbour choice, acceptance).
    Per agent i:

    * mutation: if u_m < mu the agent's next strategy is drawn uniformly from
      {C, D} (C when u_m < mu / 2, D otherwise) and imitation is skipped;
    * neighbour: index floor(4 * u_n) into the N, E, S, W neighbour list
      (self is never selected);
    * acceptance: copy the chosen neighbour's strategy iff
      u_a < 1 / (1 + exp((own score - neighbour score) / K)).

    ``scores`` come in one of two forms. Per cell, shaped like the grid and of
    any real dtype, they are compared as float64. As the ten scores by code
    ``5 * strategy + k`` (``game.score_table``), an agent whose u_a is below
    the switch probability ``game.acceptance_table(scores, K)`` looked up by
    the pair of codes (0.0 where the strategies agree) flips its strategy, with
    the same result. A ValueError names ``scores`` in any other shape.
    """
    length = g.side_length
    by_codes = _is_score_table(g, scores)
    u_mut, u_nbr, u_acc = _draw_rows(rng, length)

    nbr_code = choose_neighbour(u_nbr, neighbour_field(g.code))
    # A copy changes an agent only where its chosen neighbour plays the other
    # strategy, so a copy is a switch: the agents that copy are flipped.
    if by_codes:
        pair = g.code * np.uint8(10)
        pair += nbr_code
        next_cells = g.cells ^ (u_acc < acceptance_table(scores, rule.K).take(pair)).view(np.uint8)
    else:
        # The logistic is evaluated only for the agents that can switch.
        differ = np.flatnonzero((nbr_code >= 5) != g.cells)  # a code >= 5 is a cooperator
        nbr = (u_nbr.take(differ) * 4.0).astype(np.intp)  # direction 0..3 since u < 1
        nbr *= g.size
        nbr += differ
        gap = scores.take(_neighbour_index(length).take(nbr)).astype(np.float64, copy=False)
        u = u_acc.take(differ)
        with np.errstate(over="ignore"):  # an inf gap gives p = 0.0 or 1.0, as game.logistic
            gap -= scores.take(differ)
            gap /= rule.K
            accept = 1.0 / (1.0 + np.exp(-gap))
        # np.exp is within a few ulps of libm's, so only a draw this close to
        # p can be decided differently; those take the exact logistic.
        for i in np.flatnonzero(abs(u - accept) < 2.0**-40):
            accept[i] = logistic(gap[i])
        next_cells = g.cells.copy()
        next_cells.reshape(-1)[differ[u < accept]] ^= 1

    if rule.mu > 0.0:
        # a mutant becomes C (1) when u_m < mu / 2, else D (0)
        mutants = np.flatnonzero(u_mut < rule.mu)
        next_cells.put(mutants, u_mut.take(mutants) < rule.mu / 2.0)
    return Grid._owning(next_cells)


def step(
    g: Grid, scores: np.ndarray, rule: UpdateRule, rng: np.random.Generator | None
) -> Grid:
    """Advance one generation under the configured update rule, on per-cell
    ``scores`` or the ten scores by code (``game.score_table``)."""
    if isinstance(rule, Deterministic):
        return step_deterministic(g, scores)
    if isinstance(rule, Fermi):
        if rng is None:
            raise ValueError("the Fermi rule requires a random generator")
        return step_fermi(g, scores, rule, rng)
    raise TypeError(f"unknown update rule: {rule!r}")
