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

All decisions and amounts are computed from the frozen (grid, payoff)
input, so the per-agent grants are order-independent and reproducible. No
scheme reads float scores: a cell's base score follows from its code
(``game.score_table``), so NEB-i and NEB-ii look each cell's surplus up, by
its code and its neighbours' codes, in small tables built once per
(payoff, eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .game import PayoffParams, by_code, key_table, score_table
from .grid import (
    Grid,
    Strategy,
    _frozen,
    check_field_types,
    coop_count,
    first_max,
    neighbour_field,
)

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


@dataclass(frozen=True, eq=False)
class InvestmentOutcome:
    """The surplus paid this generation and the decision-maker's total cost.

    ``surplus`` is read-only float64 in one of the two forms the update rules
    take scores in. Flat schemes (none, pop, neb) pay one amount to chosen
    cooperators by their code, so theirs is the ten surpluses by code
    ``5 * strategy + k`` (``flat_surplus``, or none's where ``flat_payment``
    says the lattice is not paid); neb_i and neb_ii pay per cell, so theirs
    is shaped like the grid. ``generation_cost`` equals the per-cell surplus
    summed, bit for bit.
    """

    generation_cost: float
    surplus: np.ndarray

    @classmethod
    def from_surplus(cls, surplus: np.ndarray) -> "InvestmentOutcome":
        surplus = _frozen(np.ascontiguousarray(surplus, dtype=np.float64))
        return cls(float(surplus.sum()), surplus)


@lru_cache(maxsize=256)
def _flat_table(theta: float, n_c: int) -> np.ndarray:
    """The flat surplus by code: ``theta`` to cooperators (codes 5..9) with k <= n_c."""
    table = np.zeros(10)
    table[5 : 6 + n_c] = theta
    return _frozen(table)


def counts_exactly(theta: float, z: int) -> bool:
    """Whether ``float(paid) * theta`` is a flat surplus of ``theta`` > 0 summed
    over Z cells, bit for bit, for every paid count (``flat_payment``): whether
    the odd m with theta = m * 2**e has m * Z < 2**53."""
    numerator = theta.as_integer_ratio()[0]  # odd unless theta is a whole number
    return numerator // (numerator & -numerator) * z < 2**53


def _pop_threshold(scheme: Pop, z: int) -> int:
    """The largest x_C at which pop invests: p_c * Z as a count."""
    return math.floor(scheme.p_c * z + _POP_COUNT_EPS)


def flat_surplus(scheme: InterferenceScheme) -> np.ndarray:
    """The ten surpluses by code that a flat scheme (none, pop, neb) pays when it invests."""
    return _flat_table(getattr(scheme, "theta", 0.0), getattr(scheme, "n_c", 4))


def flat_payment(scheme: InterferenceScheme, code: np.ndarray, x_c: int) -> tuple[bool, float]:
    """Whether a flat scheme (none, pop, neb) pays a lattice of codes ``code``
    (``Grid.code``) that holds x_C ``x_c`` cooperators this generation, and
    what that costs.

    A lattice that is paid gets ``flat_surplus(scheme)``: ``theta`` to each
    cooperator with k <= n_c (every cooperator under pop). A theta of 0.0
    (none) never pays, and pop pays only while x_C <= p_c * Z. The cost is
    the per-cell surplus summed, bit for bit. Every partial sum of it, in any
    order, is ``j * theta`` for some count j <= Z. Write theta = m * 2**e with
    m odd: if m * Z < 2**53 (``counts_exactly``), each ``j * m`` fits the
    53-bit significand, so every partial sum is exact (or, past the largest
    float, inf) and the sum NumPy computes is ``float(paid) * theta`` rounded
    once. Any other theta sums the surplus looked up per cell.
    """
    theta = getattr(scheme, "theta", 0.0)
    if theta == 0.0 or (isinstance(scheme, Pop) and x_c > _pop_threshold(scheme, code.size)):
        return False, 0.0
    if not counts_exactly(theta, code.size):
        return True, float(by_code(np.ascontiguousarray(code), flat_surplus(scheme)).sum())
    n_c = getattr(scheme, "n_c", 4)
    if n_c < 4:  # less the cooperators of code 5 + k > 5 + n_c, compared in a
        # contiguous copy: a stack's layer is strided, which compares slower
        x_c -= int(np.count_nonzero(np.ascontiguousarray(code) > 5 + n_c))
    return True, float(x_c) * theta


def _flat_outcome(scheme: InterferenceScheme, g: Grid) -> InvestmentOutcome:
    """``flat_payment`` on ``g`` with the surplus by code that it pays."""
    invests, cost = flat_payment(scheme, g.code, coop_count(g))
    return InvestmentOutcome(cost, flat_surplus(scheme if invests else NoInterference()))


def apply_pop(g: Grid, scheme: Pop) -> InvestmentOutcome:
    """All-or-nothing: every cooperator gets theta iff x_C <= p_c * Z."""
    return _flat_outcome(scheme, g)


def apply_neb(g: Grid, scheme: Neb) -> InvestmentOutcome:
    """Cooperator i gets theta iff its cooperating-neighbour count is <= n_c."""
    return _flat_outcome(scheme, g)


# A cell's best neighbour under neb_i/neb_ii is the first of its N, E, S, W
# neighbours, in that order, with the largest base score. Each cell's node
# key is ``rank << 4 | strategy`` for the dense rank of its base score
# (``game.key_table(score_table(payoff))``), and ``grid.first_max`` over the
# N, E, S, W keys finds the best neighbour: a rank step of 16 outweighs bonus
# plus strategy (<= 7) and equal ranks go by bonus. A cell's neb_i surplus is
# then a function of its own code and the winner's rank and strategy, and its
# neb_ii surplus of those and of the largest lure rank among its neighbours.
# Both are looked up in small tables built per (payoff, eps).
_CODES, _RANKS, _LURES = 10, 10, 11  # lure 0 is no luring target, r + 1 is rank r
_NEB_CACHE = 16  # (payoff, eps) pairs kept: each neb_ii entry is ~18 KB


def _best_index(g: Grid, payoff: PayoffParams) -> np.ndarray:
    """Per cell, the uint8 index ``20 * code + 2 * rank + strategy`` of its own
    code and its best neighbour's base-score rank and strategy."""
    keys = by_code(g.code, key_table(score_table(payoff)))
    north, east, south, west = neighbour_field(keys)
    np.copyto(keys, north)  # the keys' buffer is free: the field holds its own copy
    best = first_max(keys, east, south, west)
    index = g.code * np.uint8(2 * _RANKS)
    index += best & 1  # the strategy
    best >>= 4  # the rank
    index += best
    index += best
    return index


def _table_axes(payoff: PayoffParams) -> tuple[np.ndarray, ...]:
    """(code, rank, strategy, base score by code, base score by rank), each
    shaped to broadcast over the (code, rank, strategy) layout of
    ``_best_index``. Ranks that no code takes score 0."""
    code, rank, strategy = np.ogrid[:_CODES, :_RANKS, :2]
    scores = score_table(payoff)
    levels = np.zeros(_RANKS)
    levels[key_table(scores) >> 4] = scores
    return code, rank, strategy, scores[code], levels[rank]


@lru_cache(maxsize=_NEB_CACHE)
def _neb_i_table(payoff: PayoffParams, eps: float) -> np.ndarray:
    """neb_i surplus by ``_best_index``: the per-cell float ``np.where`` of the
    rule, evaluated once per (own code, best rank, best strategy)."""
    code, _, strategy, base, best_score = _table_axes(payoff)
    eligible = (code >= 5) & (strategy == Strategy.D.value) & (best_score > base)
    return _frozen(np.where(eligible, best_score - base + eps, 0.0).reshape(-1))


@lru_cache(maxsize=_NEB_CACHE)
def _neb_ii_tables(payoff: PayoffParams, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(lure rank by ``_best_index``, neb_ii surplus by ``11 * index + lure``).

    A defector whose best neighbour is a defector of rank r lures with r + 1,
    any other cell with 0. A cooperator must reach M + eps, where M is the
    base score of the largest lure rank around it (-inf for 0). The surplus
    is phase one plus the top-up, by the same float operations in the same
    order as the per-cell rule.
    """
    code, rank, strategy, base, best_score = _table_axes(payoff)
    lured = (code < 5) & (strategy == Strategy.D.value)
    lure = np.where(lured, rank + 1, 0).astype(np.uint8).reshape(-1)
    required = np.concatenate(([-np.inf], best_score.reshape(-1)))  # M by lure rank
    phase_one = _neb_i_table(payoff, eps).reshape(_CODES, _RANKS, 2, 1)
    post = base[..., None] + phase_one
    cooperates = (code >= 5).astype(np.uint8)[..., None]
    gap = required + eps - post
    # max(0.0, gap) as a select (gap is never NaN or -0.0): the float maximum
    # loop would be NumPy code that nothing else in a Fermi run maps in
    top_up = cooperates * np.where(gap > 0.0, gap, 0.0)
    return _frozen(lure), _frozen((phase_one + top_up).reshape(-1))


def apply_neb_i(g: Grid, payoff: PayoffParams, scheme: NebI) -> InvestmentOutcome:
    """Maintaining-C: grant best_defector_score - own_score + eps.

    A cooperator is paid only when the maximal-base-score member of its
    neighbourhood is a defector with a strictly larger base score; conditions
    and amounts use pre-interference base scores only. Ties between
    neighbours go to the first in N, E, S, W order.
    """
    surplus = _neb_i_table(payoff, scheme.eps).take(_best_index(g, payoff))
    return InvestmentOutcome.from_surplus(surplus)


def apply_neb_ii(g: Grid, payoff: PayoffParams, scheme: NebII) -> InvestmentOutcome:
    """Maintaining-C plus influencing D neighbours.

    Phase one is NEB-i. Phase two: for each cooperator i with a defector
    neighbour d whose own maximal-base-score neighbour is a defector with
    base score M, top i up so its post-phase-one score reaches at least
    M + eps. Several such neighbours impose the largest requirement; defector
    scores are never modified.
    """
    lure, table = _neb_ii_tables(payoff, scheme.eps)
    index = _best_index(g, payoff)
    north, east, south, west = neighbour_field(lure.take(index))
    required = np.maximum(north, east)
    np.maximum(required, south, out=required)
    np.maximum(required, west, out=required)
    index = np.multiply(index, _LURES, dtype=np.intp)  # intp: take's own index type
    index += required
    return InvestmentOutcome.from_surplus(table.take(index))


def apply(scheme: InterferenceScheme, g: Grid, payoff: PayoffParams) -> InvestmentOutcome:
    """Dispatch to the scheme's rule; NoInterference pays nothing.

    Only ``neb_i`` and ``neb_ii`` read ``payoff``: their grants depend on the
    base scores it gives each code.
    """
    if isinstance(scheme, NoInterference):
        return _flat_outcome(scheme, g)
    if isinstance(scheme, Pop):
        return apply_pop(g, scheme)
    if isinstance(scheme, Neb):
        return apply_neb(g, scheme)
    if isinstance(scheme, NebI):
        return apply_neb_i(g, payoff, scheme)
    if isinstance(scheme, NebII):
        return apply_neb_ii(g, payoff, scheme)
    raise TypeError(f"unknown interference scheme: {scheme!r}")
