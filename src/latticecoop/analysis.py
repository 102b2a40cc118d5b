"""Closed-form thresholds, microscopic one-step checks, replicate aggregation.

The deterministic lone-defector configuration admits an exact case analysis
when every cooperator in it is invested: the defector is converted when
theta > 4b - 3, the configuration freezes when 4b - 4 < theta <= 4b - 3, and
the sucker cooperators defect when theta < 4b - 4. For the neighbourhood
scheme with n_c = 3 the escape condition is theta >= 4b - 2. This module
evaluates those expressions exactly and cross-checks them against one-step
simulations, and aggregates replicate results into sweep-table cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import islice
from typing import Sequence

import numpy as np

from .dynamics import Deterministic
from .engine import RunConfig, RunResult, replicate_configs, run_many, step_generation
from .game import PayoffParams
from .grid import Grid, Strategy, coop_count
from .interference import InterferenceScheme, Pop

# Half-width of the guard band around the closed-form boundaries inside
# which one-step outcomes are direction-ambiguous and not compared.
BOUNDARY_GUARD = 0.05


@dataclass(frozen=True)
class ThresholdReport:
    """Closed-form theta thresholds for temptation b."""

    b: float
    pop_escape_threshold: float   # 4b - 3: above this the lone defector converts
    pop_stable_band: tuple[float, float]  # open-closed (4b - 4, 4b - 3]
    neb3_escape_threshold: float  # 4b - 2: n_c = 3 escapes its cyclic patterns


def thresholds(b: float) -> ThresholdReport:
    b = PayoffParams(b=b).b  # raises ValueError for a b outside (1, 2]
    return ThresholdReport(
        b=b,
        pop_escape_threshold=4 * b - 3,
        pop_stable_band=(4 * b - 4, 4 * b - 3),
        neb3_escape_threshold=4 * b - 2,
    )


class MicroOutcome(str, Enum):
    D_CONVERTS = "D_converts"
    STABLE = "stable"
    C_CONVERTS = "C_converts"


def classify_pop_regime(b: float, theta: float) -> MicroOutcome:
    """Closed-form one-step outcome of the invested lone-defector configuration."""
    report = thresholds(b)
    if theta > report.pop_escape_threshold:
        return MicroOutcome.D_CONVERTS
    if theta > report.pop_stable_band[0]:
        return MicroOutcome.STABLE
    return MicroOutcome.C_CONVERTS


@cache
def lone_defector_grid(side_length: int = 10) -> Grid:
    """All-cooperator grid with a single defector at the centre, built once per
    side length (a ``Grid`` is read-only)."""
    if side_length < 5:
        raise ValueError("need side_length >= 5 so second-ring cooperators are interior")
    cells = np.full((side_length, side_length), Strategy.C.value, dtype=np.uint8)
    cells[side_length // 2, side_length // 2] = Strategy.D.value
    return Grid(cells)


def microscopic_check(b: float, scheme: InterferenceScheme, side_length: int = 10) -> MicroOutcome:
    """One deterministic generation from the lone-defector grid, classified.

    The scheme must invest in the cooperators of this configuration for the
    closed-form classification to apply (Pop(p_c=1.0) in the verification
    path).
    """
    g = lone_defector_grid(side_length)
    after, _cost = step_generation(g, PayoffParams(b=b), scheme, Deterministic())
    before_coop = coop_count(g)
    after_coop = coop_count(after)
    if after == g:
        return MicroOutcome.STABLE
    if after_coop == g.size:
        return MicroOutcome.D_CONVERTS
    if after_coop < before_coop:
        return MicroOutcome.C_CONVERTS
    raise RuntimeError(
        f"unclassifiable one-step outcome at b={b}, {scheme}: "
        f"coop {before_coop} -> {after_coop}"
    )


@dataclass(frozen=True)
class RegimeMismatch:
    b: float
    theta: float
    expected: MicroOutcome
    observed: MicroOutcome


@dataclass(frozen=True)
class VerificationReport:
    b: float
    report: ThresholdReport
    checked_thetas: tuple[float, ...]
    skipped_thetas: tuple[float, ...]  # within the boundary guard band
    mismatches: tuple[RegimeMismatch, ...]

    @property
    def passed(self) -> bool:
        """At least one theta was compared, and none contradicted the closed form."""
        return bool(self.checked_thetas) and not self.mismatches


def verify_thresholds(b: float, n_points: int = 50, side_length: int = 10) -> VerificationReport:
    """Simulate the lone-defector step across a theta grid and compare classes.

    Theta values span the open interval (4b - 5, 4b - 1); points within
    BOUNDARY_GUARD of a closed-form boundary are reported but not compared,
    since the mix of strict and non-strict threshold inequalities leaves the
    exact boundary direction ambiguous there.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    report = thresholds(b)
    low, high = 4 * b - 5, 4 * b - 1
    grid_points = np.linspace(low, high, n_points + 2)[1:-1]
    boundaries = (report.pop_stable_band[0], report.pop_escape_threshold)

    checked: list[float] = []
    skipped: list[float] = []
    mismatches: list[RegimeMismatch] = []
    for theta in grid_points:
        theta = float(theta)
        if theta <= 0 or min(abs(theta - edge) for edge in boundaries) < BOUNDARY_GUARD:
            skipped.append(theta)
            continue
        expected = classify_pop_regime(b, theta)
        observed = microscopic_check(b, Pop(p_c=1.0, theta=theta), side_length)
        checked.append(theta)
        if observed != expected:
            mismatches.append(RegimeMismatch(b, theta, expected, observed))
    return VerificationReport(
        b=b,
        report=report,
        checked_thetas=tuple(checked),
        skipped_thetas=tuple(skipped),
        mismatches=tuple(mismatches),
    )


@dataclass(frozen=True)
class AggregateCell:
    """Replicate-averaged sweep cell at one (theta, threshold) point."""

    theta: float
    threshold: float
    mean_coop_fraction: float
    stderr_coop: float
    mean_total_cost: float
    stderr_cost: float
    n_replicates: int


def _stderr(values: Sequence[float]) -> float:
    # Unbiased sample standard deviation over sqrt(n); 0 for a single value.
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def aggregate(results: Sequence[RunResult], theta: float, threshold: float) -> AggregateCell:
    """Sample mean and standard error of stationary cooperation and total cost."""
    if not results:
        raise ValueError("cannot aggregate an empty result sequence")
    coops = [r.stationary_coop_fraction for r in results]
    costs = [r.total_cost for r in results]
    return AggregateCell(
        theta=theta,
        threshold=threshold,
        mean_coop_fraction=float(np.mean(coops)),
        stderr_coop=_stderr(coops),
        mean_total_cost=float(np.mean(costs)),
        stderr_cost=_stderr(costs),
        n_replicates=len(results),
    )


def cost_comparison(
    configs: Sequence[tuple[str, RunConfig]], n: int, workers: int = 1
) -> list[tuple[str, float]]:
    """Mean total interference cost per labelled configuration, n replicates each.

    Each label's replicates derive from its own config's seed.
    """
    labels = [label for label, _ in configs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be distinct, got {labels}")
    jobs = [job for _, config in configs for job in replicate_configs(config, n)]
    results = run_many(jobs, workers)
    return [
        (label, float(np.mean([r.total_cost for r in islice(results, n)]))) for label in labels
    ]

