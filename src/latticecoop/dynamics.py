"""Strategy update rules: synchronous imitate-best and Fermi imitation.

Both rules read a frozen (grid, score) pair and build the whole next
generation at once, so evaluation order cannot matter. The deterministic
rule is the K -> 0 limit of the Fermi rule; the Fermi rule draws its
randomness in a documented per-agent order so runs are seed-reproducible.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .game import ScoreField, logistic
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
    for score, strategy in zip(neighbour_field(scores), neighbour_field(g.cells)):
        best = where_cells(score > best_score, strategy, best)
        best_score = np.maximum(best_score, score)
    return Grid._owning(best)


@lru_cache(maxsize=16)
def _neighbour_index(length: int) -> np.ndarray:
    """Flat index of each agent's N, E, S, W neighbours: entry ``d * Z + i`` is
    the neighbour in direction d of agent i, in the smallest unsigned dtype."""
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


def step_fermi(
    g: Grid,
    scores: ScoreField | None,
    rule: Fermi,
    rng: np.random.Generator,
    accept: np.ndarray | None = None,
) -> Grid:
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
    u_mut, u_nbr, u_acc = _draw_rows(rng, length)

    nbr_code = choose_neighbour(u_nbr, neighbour_field(g.code))
    nbr_strat = (nbr_code >= 5).view(np.uint8)  # a code >= 5 is a cooperator
    if accept is not None:
        # Copying a neighbour of one's own strategy changes nothing, so the
        # test runs on every agent.
        pair = g.code * np.uint8(10)
        pair += nbr_code
        copied = u_acc < accept.take(pair)
        next_cells = where_cells(copied, nbr_strat, g.cells)
    else:
        # Acceptance can change only agents whose chosen neighbour plays the
        # other strategy, so the logistic is evaluated for those alone.
        differ = np.flatnonzero(nbr_strat != g.cells)
        nbr = (u_nbr.take(differ) * 4.0).astype(np.intp)  # direction 0..3 since u < 1
        nbr *= g.size
        nbr += differ
        gap = scores.take(_neighbour_index(length).take(nbr))
        gap -= scores.take(differ)
        gap /= rule.K
        u = u_acc.take(differ)
        with np.errstate(over="ignore"):
            accept = 1.0 / (1.0 + np.exp(-gap))
        # np.exp is within a few ulps of libm's, so only a draw this close to
        # p can be decided differently; those take the exact logistic.
        for i in np.flatnonzero(abs(u - accept) < 2.0**-40):
            accept[i] = logistic(gap[i])
        copied = differ[u < accept]
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
