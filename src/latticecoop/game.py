"""Prisoner's Dilemma payoffs and per-generation base score computation.

Scaled payoff matrix: temptation T = b, reward R = 1, sucker S = 0 and
punishment P = 0 by default (P may be a small positive value for a strict
dilemma). Each agent plays the one-shot game with its four neighbours; its
base score is the sum of the four payoffs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, Strategy

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
        if not B_MIN < self.b <= B_MAX:
            raise ValueError(f"temptation b must satisfy {B_MIN} < b <= {B_MAX}, got {self.b}")
        if not 0.0 <= self.punishment < REWARD:
            raise ValueError(
                f"punishment must satisfy 0 <= P < {REWARD}, got {self.punishment}"
            )


def pair_payoff(me: Strategy, other: Strategy, params: PayoffParams) -> float:
    """Payoff to ``me`` from a single encounter with ``other``."""
    if me == Strategy.C:
        return REWARD if other == Strategy.C else SUCKER
    return params.b if other == Strategy.C else params.punishment


def compute_scores(g: Grid, params: PayoffParams) -> ScoreField:
    """Base score of every agent: sum of pair payoffs against its 4 neighbours.

    Pure function of (grid, params); no interference surplus included and no
    self-interaction. A defector with k cooperating neighbours scores k*b +
    (4-k)*P, a cooperator with k cooperating neighbours scores exactly k.
    These ten values are looked up in a table indexed by 5 * strategy + k.
    """
    k = np.arange(5)
    defect = k * params.b + (4 - k) * params.punishment
    table = np.concatenate((defect, k * REWARD + (4 - k) * SUCKER))
    return table.take(sum(g.neighbour_cells) + 5 * g.cells)
