"""Strategy update rules: synchronous imitate-best and Fermi imitation.

Both rules read a frozen (grid, score) pair and build the whole next
generation at once, so evaluation order cannot matter. The deterministic
rule is the K -> 0 limit of the Fermi rule; the Fermi rule draws its
randomness in a documented per-agent order so runs are seed-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special import expit

from .game import ScoreField
from .grid import Grid, best_of, check_field_types, neighbour_field, where_cells, wrap_pad


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


def fermi_probability(f_a: float, f_b: float, k: float) -> float:
    """Probability that agent A (score f_a) copies neighbour B (score f_b).

    Evaluates (1 + exp((f_a - f_b) / K))^-1 through the numerically stable
    logistic, so extreme score gaps saturate to 0.0 or 1.0 without overflow.
    """
    if not k > 0.0:
        raise ValueError(f"noise amplitude K must be > 0, got {k}")
    if not (math.isfinite(f_a) and math.isfinite(f_b)):
        raise ValueError(f"scores must be finite, got f_a={f_a}, f_b={f_b}")
    return float(expit((f_b - f_a) / k))


def step_deterministic(g: Grid, scores: ScoreField) -> Grid:
    """Synchronous imitate-best update.

    Each agent adopts the strategy of the highest-scoring member of itself
    plus its four neighbours; ties prefer self, then the fixed N, E, S, W
    order. Pure function of (g, scores). Only the order of the scores
    matters: ``scores`` may be any per-cell array, of any dtype, whose
    entries compare (``>`` and ``==``) as the scores do, such as their ranks.

    uint8 ranks must be < 16 for the key path: a candidate's key is
    ``rank << 4 | strategy`` plus a position bonus (self 8, N 6, E 4, S 2,
    W 0), and the next strategy is the low bit of the largest key. A rank
    step of 16 outweighs bonus plus strategy (<= 9) and equal ranks go by
    bonus, so this is ``best_of``'s strict-``>`` running maximum, ties
    included. Other scores, larger uint8 ranks among them, use ``best_of``.
    """
    if scores.dtype == np.uint8 and scores.max() < 16:
        keys = scores * np.uint8(16)  # on uint8 a multiply is far faster than <<
        keys |= g.cells
        north, east, south, west = neighbour_field(keys)
        # max(self + 8, N + 6, E + 4, S + 2, W), the bonuses added Horner-style
        best = keys
        for key in (north, east, south, west):
            best += 2
            np.maximum(best, key, out=best)
        best &= 1
        return Grid(best)
    _, best = best_of((scores, *neighbour_field(scores)), (g.cells, *g.neighbour_cells))
    return Grid(best)


@lru_cache(maxsize=16)
def _padded_index(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat N, E, S, W offsets in a wrap-padded L x L array, and each cell's
    flat index there as its row's start (an (L, 1) column) plus its column."""
    stride = length + 2  # padded rows are L + 2 long
    inner = np.arange(1, length + 1)
    index = (np.array((-stride, 1, stride, -1)), (inner * stride)[:, None], inner)
    for part in index:
        part.setflags(write=False)
    return index


def step_fermi(
    g: Grid,
    scores: ScoreField | None,
    rule: Fermi,
    rng: np.random.Generator,
    accept: np.ndarray | None = None,
) -> Grid:
    """Synchronous Fermi update from a frozen copy of (g, scores).

    Randomness: one ``rng.random((Z, 3))`` call, i.e. three uniforms per agent
    in row-major agent order, used as (mutation, neighbour choice, acceptance).
    Per agent i:

    * mutation: if u_m < mu the agent's next strategy is drawn uniformly from
      {C, D} (C when u_m < mu / 2, D otherwise) and imitation is skipped;
    * neighbour: index floor(4 * u_n) into the N, E, S, W neighbour list
      (self is never selected);
    * acceptance: copy the chosen neighbour's strategy iff
      u_a < fermi_probability(own score, neighbour score, K).

    When every score follows from the cell's code ``5 * strategy + k``, pass
    ``accept = game.acceptance_table(...)`` for those scores and K instead of
    ``scores``: the probability is then looked up by the pair of codes, with
    the same result.
    """
    length = g.side_length
    draws = rng.random((g.size, 3))
    u_mut, u_nbr, u_acc = draws.T.reshape(3, length, length)

    # Flat index of each agent's chosen neighbour in the wrap-padded arrays.
    offsets, row_starts, columns = _padded_index(length)
    pick = (u_nbr * 4.0).astype(np.intp)  # in 0..3 since u < 1
    nbr = offsets.take(pick)
    nbr += row_starts
    nbr += columns

    if accept is not None:
        # Copying a neighbour of one's own strategy changes nothing, so the
        # test runs on every agent; a code >= 5 is a cooperator.
        nbr_code = wrap_pad(g.code).take(nbr)
        pair = g.code * np.uint8(10)
        pair += nbr_code
        copied = u_acc < accept.take(pair)
        next_cells = where_cells(copied, (nbr_code >= 5).view(np.uint8), g.cells)
    else:
        # Acceptance can change only agents whose chosen neighbour plays the
        # other strategy, so the logistic is evaluated for those alone.
        nbr_strat = wrap_pad(g.cells).take(nbr)
        differ = np.flatnonzero(nbr_strat != g.cells)
        gap = wrap_pad(scores).take(nbr.take(differ))
        gap -= scores.take(differ)
        gap /= rule.K
        copied = differ[u_acc.take(differ) < expit(gap, out=gap)]
        next_cells = g.cells.copy()
        next_cells.put(copied, nbr_strat.take(copied))

    if rule.mu > 0.0:
        # a mutant becomes C (1) when u_m < mu / 2, else D (0)
        np.copyto(next_cells, u_mut < rule.mu / 2.0, where=u_mut < rule.mu)
    return Grid(next_cells)


def step(
    g: Grid,
    scores: ScoreField | None,
    rule: UpdateRule,
    rng: np.random.Generator | None,
    accept: np.ndarray | None = None,
) -> Grid:
    """Advance one generation under the configured update rule (``accept``: see ``step_fermi``)."""
    if isinstance(rule, Deterministic):
        return step_deterministic(g, scores)
    if isinstance(rule, Fermi):
        if rng is None:
            raise ValueError("the Fermi rule requires a random generator")
        return step_fermi(g, scores, rule, rng, accept)
    raise TypeError(f"unknown update rule: {rule!r}")
