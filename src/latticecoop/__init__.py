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
from .dynamics import Deterministic, Fermi, UpdateRule
from .engine import (
    GenerationRecord,
    RunConfig,
    RunResult,
    Termination,
    derive_seed,
    run,
    run_replicates,
)
from .game import PayoffParams
from .grid import Grid, Strategy, format_snapshot, parse_snapshot, random_grid
from .interference import (
    InterferenceScheme,
    Neb,
    NebI,
    NebII,
    NoInterference,
    Pop,
)
from .sweep import SweepSpec, run_sweep

__version__ = "0.1.0"
