"""Prisoner's Dilemma payoffs and per-generation base score computation.

Scaled payoff matrix: temptation T = b, reward R = 1, sucker S = 0 and
punishment P = 0 by default (P may be a small positive value for a strict
dilemma). Each agent plays the one-shot game with its four neighbours; its
base score is the sum of the four payoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, Strategy, check_field_types

# Score of one agent per generation is the sum over 4 encounters.
REWARD = 1.0
SUCKER = 0.0

# Temptation range for the scaled matrix: strictly above R, at most 2.
B_MIN = 1.0
B_MAX = 2.0

ScoreField = np.ndarray  # (L, L) float64, row-major, one entry per agent


@dataclass(frozen=True)
class PayoffParams:
    """Payoff matrix parameters: temptation ``b`` and punishment ``punishment``."""

    b: float
    punishment: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not B_MIN < self.b <= B_MAX:
            raise ValueError(f"temptation b must satisfy {B_MIN} < b <= {B_MAX}, got {self.b}")
        if not 0.0 <= self.punishment < REWARD:
            raise ValueError(
                f"punishment must satisfy 0 <= P < {REWARD}, got {self.punishment}"
            )


def logistic(x: float) -> float:
    """The Fermi logistic ``1 / (1 + exp(-x))`` with libm's ``exp``, 0.0 where
    ``exp(-x)`` overflows: bit for bit the reference ``expit``."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def pair_payoff(me: Strategy, other: Strategy, params: PayoffParams) -> float:
    """Payoff to ``me`` from a single encounter with ``other``."""
    if me == Strategy.C:
        return REWARD if other == Strategy.C else SUCKER
    return params.b if other == Strategy.C else params.punishment


@lru_cache(maxsize=256)
def score_table(params: PayoffParams, theta: float = 0.0, n_c: int = 4) -> np.ndarray:
    """The ten scores by a cell's code ``5 * strategy + k``, after a flat investment
    of ``theta`` in each cooperator with k <= n_c (by default none: the base scores).

    A defector with k cooperating neighbours scores k*b + (4-k)*P, a
    cooperator with k cooperating neighbours scores exactly k, plus ``theta``
    if paid. Each entry is the float that ``base + surplus`` holds for such a
    cell, so a lookup in this table equals that sum bit for bit.
    """
    k = np.arange(5)
    defect = k * params.b + (4 - k) * params.punishment
    table = np.concatenate((defect, k * REWARD + (4 - k) * SUCKER))
    table[5 : 6 + n_c] += theta
    table.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def rank_table(params: PayoffParams, theta: float, n_c: int) -> np.ndarray:
    """Dense uint8 ranks (0..9) of ``score_table(params, theta, n_c)``, by code.

    Equal floats share a rank and the order is kept, so imitate-best picks
    the same strategy from these ranks as from the float scores. Ranked in
    Python: ``np.unique`` would first map ~0.5 MB of NumPy's sort code.
    """
    scores = score_table(params, theta, n_c).tolist()
    levels = sorted(set(scores))
    ranks = np.array([levels.index(score) for score in scores], dtype=np.uint8)
    ranks.setflags(write=False)
    return ranks


@lru_cache(maxsize=256)
def acceptance_table(params: PayoffParams, theta: float, n_c: int, k: float) -> np.ndarray:
    """Fermi acceptance by the codes of a cell and its chosen neighbour: entry
    ``10 * own + nbr`` is ``logistic((table[nbr] - table[own]) / k)`` for
    ``table = score_table(params, theta, n_c)``.

    The same float operations, in the same order, as the Fermi step on
    ``base + surplus`` scores (subtract, divide by ``k``, logistic), so each
    entry equals the probability it computes for such a pair bit for bit.
    """
    table = score_table(params, theta, n_c).tolist()
    accept = np.array([logistic((nbr - own) / k) for own in table for nbr in table])
    accept.setflags(write=False)
    return accept


@lru_cache(maxsize=64)
def _pair_table(table: bytes, dtype: np.dtype) -> np.ndarray:
    """Entry ``i`` holds the table entries of ``i``'s two bytes (codes), side by side.

    Two codes below n = len(table), read as one uint16 in either byte order,
    are below n * 256. Entries are void items of twice the table's item size:
    ``take`` only moves their bytes.
    """
    n = len(table) // dtype.itemsize
    entries = np.zeros(256, dtype=dtype)
    entries[:n] = np.frombuffer(table, dtype=dtype)
    index = np.arange(n << 8, dtype=np.uint16)
    pairs = entries.take(index.view(np.uint8)).view((np.void, 2 * dtype.itemsize))
    pairs.setflags(write=False)
    return pairs


def by_code(code: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table.take(code)``, two cells per lookup through a uint16 view when Z is even.

    A ``take`` costs per index, not per byte, so pairs halve its time.
    """
    if code.size % 2:
        return table.take(code)
    pairs = _pair_table(table.tobytes(), table.dtype).take(code.reshape(-1).view(np.uint16))
    return pairs.view(table.dtype).reshape(code.shape)


def compute_scores(g: Grid, params: PayoffParams) -> ScoreField:
    """Base score of every agent: sum of pair payoffs against its 4 neighbours.

    Pure function of (grid, params); no interference surplus included and no
    self-interaction. Looked up in ``score_table`` by each cell's code.
    """
    return by_code(g.code, score_table(params))
