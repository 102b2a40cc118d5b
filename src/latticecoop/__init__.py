"""Spatial Prisoner's Dilemma with cost-accounted external interference."""

from .analysis import (
    AggregateCell,
    MicroOutcome,
    ThresholdReport,
    aggregate,
    classify_pop_regime,
    cost_comparison,
    lone_defector_grid,
    microscopic_check,
    thresholds,
    verify_thresholds,
)
from .dynamics import (
    Deterministic,
    Fermi,
    UpdateRule,
    step_deterministic,
    step_fermi,
)
from .engine import (
    GenerationRecord,
    RunConfig,
    RunResult,
    Termination,
    derive_seed,
    is_homogeneous,
    run,
    run_replicates,
    step_generation,
)
from .game import PayoffParams, compute_scores
from .grid import (
    Grid,
    Strategy,
    coop_count,
    format_snapshot,
    grid_hash,
    parse_snapshot,
    random_grid,
)
from .interference import (
    InterferenceScheme,
    InvestmentOutcome,
    Neb,
    NebI,
    NebII,
    NoInterference,
    Pop,
    apply,
)
from .sweep import SweepSpec, run_sweep

__version__ = "0.1.0"
