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

from .grid import Grid, _frozen, check_field_types

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


@lru_cache(maxsize=256)
def score_table(params: PayoffParams) -> np.ndarray:
    """The ten base scores by a cell's code ``5 * strategy + k``.

    A defector with k cooperating neighbours scores k*b + (4-k)*P, a
    cooperator with k cooperating neighbours scores exactly k. Each entry is
    the float that ``compute_scores`` gives such a cell.
    """
    k = np.arange(5)
    defect = k * params.b + (4 - k) * params.punishment
    return _frozen(np.concatenate((defect, k * REWARD + (4 - k) * SUCKER)))


def key_table(scores: np.ndarray) -> np.ndarray:
    """uint8 keys ``rank << 4 | strategy`` by code for the ten scores by code
    ``scores`` (``score_table``), at the dense rank of each score; codes 5..9 are
    cooperators. Equal score tables share one read-only table.

    Equal floats share a rank and the order is kept, so imitate-best picks the
    same strategy from these keys as from the float scores. A rank step of 16
    outweighs ``grid.first_max``'s bonus plus strategy over up to five
    candidates, so the first maximum of these keys is the first candidate with
    the largest score.
    """
    return _key_table(np.asarray(scores, dtype=np.float64).tobytes())


@lru_cache(maxsize=256)
def _key_table(table: bytes) -> np.ndarray:
    # Ranked in Python: ``np.unique`` would first map ~0.5 MB of NumPy's sort code.
    scores = np.frombuffer(table).tolist()
    levels = sorted(set(scores))
    return _frozen(np.array([levels.index(score) << 4 | (code >= 5)
                             for code, score in enumerate(scores)], dtype=np.uint8))


def needs_tie_order(scores: np.ndarray) -> bool:
    """Whether imitate-best on the ten scores by code ``scores`` (``score_table``
    plus a flat surplus) needs the self, N, E, S, W tie order: whether some
    defector code 1..4 scores exactly as some cooperator code 5..9. Cached by
    the bytes of ``scores``.

    If not, the candidates with a cell's largest score all play one strategy,
    so the largest of their keys (``key_table``) carries the strategy that the
    tie order would pick, and plain maxima suffice (``grid.best_strategy``).
    Code 0, a defector with no cooperating neighbour, is exempt: it cannot share
    the largest score with a cooperator. If it is self, every candidate is a
    defector. If it is a neighbour, self is a defector next to it; a cooperator
    candidate is then self's neighbour, so self has k >= 1 and scores
    k * (b - P) > 0 more than code 0. This holds for every table of the flat
    schemes: they never pay a defector, so defector code k scores k*b + (4-k)*P.
    """
    return _needs_tie_order(np.asarray(scores, dtype=np.float64).tobytes())


@lru_cache(maxsize=256)
def _needs_tie_order(table: bytes) -> bool:
    scores = np.frombuffer(table).tolist()
    return not set(scores[1:5]).isdisjoint(scores[5:])


def acceptance_table(scores: np.ndarray, k: float) -> np.ndarray:
    """Probability that a cell switches strategy by copying its chosen neighbour, by
    their codes (5..9 are cooperators), for the ten scores by code ``scores``
    (``score_table``) and noise ``k``. Equal score tables share one read-only table.

    Entry ``10 * own + nbr`` is exactly 0.0 where the two strategies agree, since
    no draw in [0, 1) is below it, and else ``logistic((scores[nbr] - scores[own])
    / k)``, bit for bit the Fermi step's probability on the per-cell scores: the
    same float operations (subtract, divide by ``k``, logistic) in order.
    """
    return _acceptance_table(np.asarray(scores, dtype=np.float64).tobytes(), k)


@lru_cache(maxsize=256)
def _acceptance_table(table: bytes, k: float) -> np.ndarray:
    scores = np.frombuffer(table).tolist()
    return _frozen(np.array([logistic((scores[nbr] - scores[own]) / k)
                             if (own >= 5) != (nbr >= 5) else 0.0
                             for own in range(10) for nbr in range(10)]))


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
    """``table.take(code)``, two cells per lookup through a uint16 view when Z is
    even and at least 512 * len(table).

    A ``take`` costs per index, not per byte, so pairs halve its time. Their
    table is built from 256 * len(table) entries and saves Z / 2 indices per
    lookup, so a smaller lattice cannot repay one that is not yet cached.
    """
    if code.size % 2 or code.size < 512 * len(table):
        return table.take(code)
    pairs = _pair_table(table.tobytes(), table.dtype).take(code.reshape(-1).view(np.uint16))
    return pairs.view(table.dtype).reshape(code.shape)


def compute_scores(g: Grid, params: PayoffParams) -> ScoreField:
    """Base score of every agent: sum of pair payoffs against its 4 neighbours.

    Pure function of (grid, params); no interference surplus included and no
    self-interaction. Looked up in ``score_table`` by each cell's code.
    """
    return by_code(g.code, score_table(params))
