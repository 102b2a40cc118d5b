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
from .grid import (
    Grid,
    check_field_types,
    choose_neighbour,
    first_max,
    neighbour_field,
    where_cells,
    wrap_pad,
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


def _check_scores(g: Grid, scores: ScoreField | None) -> None:
    if np.shape(scores) != g.cells.shape:
        raise ValueError(
            f"scores must be shaped like the grid {g.cells.shape}, got {np.shape(scores)}"
        )


def step_deterministic(g: Grid, scores: ScoreField) -> Grid:
    """Synchronous imitate-best update.

    Each agent adopts the strategy of the highest-scoring member of itself
    plus its four neighbours; ties prefer self, then the fixed N, E, S, W
    order. Pure function of (g, scores). Only the order of the scores
    matters: ``scores`` may be any per-cell array shaped like the grid, of any
    dtype, whose entries compare (``>`` and ``==``) as the scores do, such as
    their ranks. Scores of another shape raise ValueError.

    uint8 ranks below 16 take the key path: a candidate's key is
    ``rank << 4 | strategy`` and ``grid.first_max`` over self, N, E, S, W
    picks the first candidate with the largest rank. Other scores, larger
    uint8 ranks among them, take a strict-``>`` running maximum in the same
    order, which keeps the first maximum too.
    """
    _check_scores(g, scores)
    if scores.dtype == np.uint8 and scores.max() < 16:
        keys = scores * np.uint8(16)  # on uint8 a multiply is far faster than <<
        keys |= g.cells
        best = first_max(keys, *neighbour_field(keys))
        best &= 1
        return Grid._owning(best)
    best_score, best = scores, g.cells
    for score, strategy in zip(neighbour_field(scores), g.neighbour_cells):
        best = where_cells(score > best_score, strategy, best)
        best_score = np.maximum(best_score, score)
    return Grid._owning(best)


@lru_cache(maxsize=16)
def _padded_index(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat N, E, S, W offsets in a wrap-padded L x L array, and each cell's
    flat index there as an (L, L) array."""
    stride = length + 2  # padded rows are L + 2 long
    inner = np.arange(1, length + 1)
    index = (np.array((-stride, 1, stride, -1)), inner[:, None] * stride + inner)
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
    the same result. At least one of the two is required; ``scores``, when
    given, must be shaped like the grid and ``accept`` must hold 100 entries.
    A ValueError names the argument that does not fit.
    """
    length = g.side_length
    if accept is None and scores is None:
        raise ValueError("step_fermi needs scores or an acceptance table (accept)")
    if scores is not None:
        _check_scores(g, scores)
    if accept is not None and np.size(accept) != 100:
        raise ValueError(f"accept must hold 100 entries, got {np.size(accept)}")
    # One contiguous row per use, so no pass below reads the strided draws.
    u_mut, u_nbr, u_acc = rng.random((g.size, 3)).T.reshape(3, length, length).copy()

    if accept is not None:
        # Copying a neighbour of one's own strategy changes nothing, so the
        # test runs on every agent; a code >= 5 is a cooperator.
        nbr_code = choose_neighbour(u_nbr, neighbour_field(g.code))
        pair = g.code * np.uint8(10)
        pair += nbr_code
        copied = u_acc < accept.take(pair)
        next_cells = where_cells(copied, (nbr_code >= 5).view(np.uint8), g.cells)
    else:
        # Acceptance can change only agents whose chosen neighbour plays the
        # other strategy, so the logistic is evaluated for those alone, and
        # only their neighbours' flat indices in the wrap-padded scores are built.
        nbr_strat = choose_neighbour(u_nbr, g.neighbour_cells)
        differ = np.flatnonzero(nbr_strat != g.cells)
        offsets, cell_index = _padded_index(length)
        nbr = offsets.take((u_nbr.take(differ) * 4.0).astype(np.intp))  # 0..3 since u < 1
        nbr += cell_index.take(differ)
        gap = wrap_pad(scores).take(nbr)
        gap -= scores.take(differ)
        gap /= rule.K
        copied = differ[u_acc.take(differ) < expit(gap, out=gap)]
        next_cells = g.cells.copy()
        next_cells.put(copied, nbr_strat.take(copied))

    if rule.mu > 0.0:
        # a mutant becomes C (1) when u_m < mu / 2, else D (0)
        mutants = np.flatnonzero(u_mut < rule.mu)
        next_cells.put(mutants, u_mut.take(mutants) < rule.mu / 2.0)
    return Grid._owning(next_cells)


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
