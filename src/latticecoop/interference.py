"""External investment strategies: who gets paid how much, and what it costs.

An external decision-maker may add a surplus to cooperators' scores each
generation, at a cost to itself equal to the surplus paid (1:1). Defectors
are never paid. Four strategy families:

* POP:   invest ``theta`` in every cooperator while the global cooperator
         count x_C is at or below a population threshold.
* NEB:   invest ``theta`` in each cooperator whose count of cooperating
         neighbours is at or below ``n_c``.
* NEB-i: pay each cooperator whose best-scoring neighbour is a strictly
         fitter defector just enough to overtake it by ``eps``.
* NEB-ii: NEB-i plus a second phase that tops cooperators up so that
         defector neighbours whose own role model is a defector see the
         cooperator beat that role model by ``eps``.

All decisions and amounts are computed from the frozen (grid, base-score)
input, so the per-agent grants are order-independent and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Union

import numpy as np

from .game import ScoreField
from .grid import Grid, Strategy, _frozen, best_of, check_field_types, coop_count, neighbour_field

# Tolerance absorbing float rounding when a fractional population threshold
# is scaled to a count (e.g. 0.7 * 10000 evaluating just below 7000).
_POP_COUNT_EPS = 1e-9


@dataclass(frozen=True)
class NoInterference:
    """The closed system: no investment, zero cost."""


@dataclass(frozen=True)
class Pop:
    """Population-composition trigger: invest in all cooperators while rare.

    ``p_c`` is the threshold as a fraction of the population size Z; the
    investment fires whenever x_C <= p_c * Z.
    """

    p_c: float
    theta: float

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.p_c <= 1.0:
            raise ValueError(f"p_c must be in [0, 1], got {self.p_c}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")


@dataclass(frozen=True)
class Neb:
    """Neighbourhood trigger: invest in cooperators with <= n_c cooperating neighbours."""

    n_c: int
    theta: float

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_c not in (0, 1, 2, 3, 4):
            raise ValueError(f"n_c must be an integer in 0..4, got {self.n_c}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")


@dataclass(frozen=True)
class NebI:
    """Fitness-observation strategy: outbid the best defector neighbour by eps."""

    eps: float

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


@dataclass(frozen=True)
class NebII:
    """NEB-i plus luring defector neighbours away from their defector role models."""

    eps: float

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


InterferenceScheme = Union[NoInterference, Pop, Neb, NebI, NebII]

# Config kind name -> scheme class. A family's first field is its sweep
# threshold axis; ``theta``, where present, is its investment axis.
SCHEMES = {"none": NoInterference, "pop": Pop, "neb": Neb, "neb_i": NebI, "neb_ii": NebII}

# The schemes whose outcome is flat (``n_c`` set); they read no base scores.
FLAT_SCHEMES = (NoInterference, Pop, Neb)


@dataclass(frozen=True, eq=False)
class InvestmentOutcome:
    """Per-agent surplus plus the decision-maker's total cost this generation.

    ``generation_cost`` equals ``float(surplus.sum())`` bit for bit. Flat
    schemes (none, pop, neb) pay one amount ``theta`` to each cooperator with
    at most ``n_c`` cooperating neighbours, so a cell's surplus follows from
    its code: their ``surplus`` is built from the grid only when it is read,
    and their cost comes from the number of paid cooperators where that is
    exact (see ``flat``). The others leave ``n_c`` None.
    """

    generation_cost: float
    theta: float = 0.0
    n_c: int | None = None
    _grid: Grid | None = field(default=None, repr=False)
    _surplus: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def surplus(self) -> np.ndarray:
        """Per-agent surplus, a read-only float64 array shaped like the grid."""
        if self._surplus is None:
            return _flat_surplus(self._grid, self.theta, self.n_c)
        return self._surplus

    @classmethod
    def from_surplus(cls, surplus: np.ndarray) -> "InvestmentOutcome":
        surplus = _frozen(np.ascontiguousarray(surplus, dtype=np.float64))
        return cls(float(surplus.sum()), _surplus=surplus)

    @classmethod
    def flat(cls, g: Grid, theta: float, n_c: int = 4) -> "InvestmentOutcome":
        """``theta`` to each cooperator with k <= n_c, nothing to the rest.

        Every partial sum of the surplus, in any order, is ``j * theta`` for
        some count j <= Z. Write theta = m * 2**e with m odd: if m * Z < 2**53,
        each ``j * m`` fits the 53-bit significand, so every partial sum is
        exact (or, past the largest float, inf) and the sum NumPy computes is
        ``float(paid) * theta`` rounded once. Any other theta sums the array.
        """
        theta = float(theta)
        if theta == 0.0 or _odd_part(theta) * g.size < 2**53:
            return cls(float(_paid_count(g, n_c)) * theta, theta, n_c, _grid=g)
        surplus = _flat_surplus(g, theta, n_c)
        return cls(float(surplus.sum()), theta, n_c, _surplus=surplus)


def _flat_surplus(g: Grid, theta: float, n_c: int) -> np.ndarray:
    invested = g.cells if n_c >= 4 else g.cells & (g.coop_neighbours <= n_c)
    return _frozen(invested * theta)  # C is 1, D is 0


def _odd_part(theta: float) -> int:
    """The odd integer m with theta = m * 2**e, for theta > 0."""
    numerator = theta.as_integer_ratio()[0]  # odd unless theta is a whole number
    return numerator // (numerator & -numerator)


def _paid_count(g: Grid, n_c: int) -> int:
    """Number of cooperators with k <= n_c: x_C less those of code 5 + k > 5 + n_c."""
    x_c = coop_count(g)
    return x_c if n_c >= 4 else x_c - int(np.count_nonzero(g.code > 5 + n_c))


def apply_pop(g: Grid, scheme: Pop) -> InvestmentOutcome:
    """All-or-nothing: every cooperator gets theta iff x_C <= p_c * Z."""
    threshold_count = int(np.floor(scheme.p_c * g.size + _POP_COUNT_EPS))
    theta = scheme.theta if coop_count(g) <= threshold_count else 0.0
    return InvestmentOutcome.flat(g, theta)


def apply_neb(g: Grid, scheme: Neb) -> InvestmentOutcome:
    """Cooperator i gets theta iff its cooperating-neighbour count is <= n_c."""
    return InvestmentOutcome.flat(g, scheme.theta, scheme.n_c)


def _best_neighbour(g: Grid, base: ScoreField) -> tuple[np.ndarray, np.ndarray]:
    """Per cell: (base score, strategy) of its maximal-base-score neighbour.

    Ties are broken in fixed N, E, S, W order: a later neighbour wins only
    with a strictly larger base score.
    """
    return best_of(neighbour_field(base), g.neighbour_cells)


def _neb_i_surplus(g: Grid, base: ScoreField, eps: float, best: tuple) -> np.ndarray:
    best_score, best_strat = best
    eligible = (g.cells == Strategy.C.value) & (best_strat == Strategy.D.value)
    eligible &= best_score > base
    return np.where(eligible, best_score - base + eps, 0.0)


def apply_neb_i(g: Grid, base: ScoreField, scheme: NebI) -> InvestmentOutcome:
    """Maintaining-C: grant best_defector_score - own_score + eps.

    A cooperator is paid only when the maximal-base-score member of its
    neighbourhood is a defector with a strictly larger base score; conditions
    and amounts use pre-interference base scores only.
    """
    surplus = _neb_i_surplus(g, base, scheme.eps, _best_neighbour(g, base))
    return InvestmentOutcome.from_surplus(surplus)


def apply_neb_ii(g: Grid, base: ScoreField, scheme: NebII) -> InvestmentOutcome:
    """Maintaining-C plus influencing D neighbours.

    Phase one is NEB-i. Phase two: for each cooperator i with a defector
    neighbour d whose own maximal-base-score neighbour is a defector with
    base score M, top i up so its post-phase-one score reaches at least
    M + eps. Several such neighbours impose the largest requirement; defector
    scores are never modified.
    """
    best_score, best_strat = best = _best_neighbour(g, base)
    phase_one = _neb_i_surplus(g, base, scheme.eps, best)
    post = base + phase_one

    # Role-model score M for each defector whose best neighbour is a defector;
    # -inf marks cells that impose no requirement.
    lured = (g.cells == Strategy.D.value) & (best_strat == Strategy.D.value)
    luring_target = np.where(lured, best_score, -np.inf)
    required = reduce(np.maximum, neighbour_field(luring_target))
    top_up = g.cells * np.maximum(0.0, required + scheme.eps - post)  # C is 1, D is 0
    return InvestmentOutcome.from_surplus(phase_one + top_up)


def apply(scheme: InterferenceScheme, g: Grid, base: ScoreField | None) -> InvestmentOutcome:
    """Dispatch to the scheme's rule; NoInterference pays nothing.

    Only ``neb_i`` and ``neb_ii`` read ``base``; the ``FLAT_SCHEMES`` take None.
    """
    if isinstance(scheme, NoInterference):
        return InvestmentOutcome.flat(g, 0.0)
    if isinstance(scheme, Pop):
        return apply_pop(g, scheme)
    if isinstance(scheme, Neb):
        return apply_neb(g, scheme)
    if isinstance(scheme, NebI):
        return apply_neb_i(g, base, scheme)
    if isinstance(scheme, NebII):
        return apply_neb_ii(g, base, scheme)
    raise TypeError(f"unknown interference scheme: {scheme!r}")
