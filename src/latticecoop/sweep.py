"""Cartesian (theta x threshold) parameter sweeps with per-cell seeding.

Every cell's replicate seeds derive from (the base run's seed, theta value
bits, threshold value bits, replicate index), so cells are independent:
adding or removing cells never changes another cell's numbers, and any
execution schedule produces the same table.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import closing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import cache
from itertools import islice, product
from typing import get_type_hints

import numpy as np

from .analysis import AggregateCell, aggregate
from .engine import RunConfig, derive_seed, run_many
from .grid import check_field_types
from .interference import SCHEMES, InterferenceScheme

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class SweepSpec:
    """A scheme family swept over theta and threshold value lists.

    ``scheme_kind`` names a family in ``interference.SCHEMES``. Each
    threshold value sets the family's first field (p_c fractions for pop,
    integer n_c levels for neb, eps margins for neb_i / neb_ii); each theta
    value sets ``theta``. Families without ``theta`` take a single
    placeholder theta value, carried into the output table unchanged.
    Cell seeds derive from ``base.seed``; the base scheme is ignored.
    """

    base: RunConfig
    scheme_kind: str
    theta_values: tuple[float, ...]
    threshold_values: tuple[float, ...]
    replicates: int

    def __post_init__(self) -> None:
        check_field_types(self)
        family = SCHEMES.get(self.scheme_kind)
        if family is None or not fields(family):
            families = tuple(kind for kind, cls in SCHEMES.items() if fields(cls))
            raise ValueError(f"scheme_kind must be one of {families}, got {self.scheme_kind!r}")
        _check_values("theta_values", self.theta_values)
        _check_values("threshold_values", self.threshold_values)
        if any(t <= 0 for t in self.theta_values):
            raise ValueError("theta_values must all be > 0")
        _, _, takes_theta = _family_axes(family)
        if not takes_theta and len(self.theta_values) != 1:
            raise ValueError(f"{self.scheme_kind} takes no theta; pass one placeholder value")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        # Building every cell's scheme validates all values before any run starts.
        for theta in self.theta_values:
            for threshold in self.threshold_values:
                self.cell_scheme(theta, threshold)

    def cell_scheme(self, theta: float, threshold: float) -> InterferenceScheme:
        family = SCHEMES[self.scheme_kind]
        axis, integral, takes_theta = _family_axes(family)
        values = {axis: threshold}
        if integral:
            if not float(threshold).is_integer():
                raise ValueError(f"{axis} threshold must be an integer, got {threshold}")
            values[axis] = int(threshold)
        if takes_theta:
            values["theta"] = theta
        return family(**values)


@cache
def _family_axes(family: type) -> tuple[str, bool, bool]:
    """A scheme family's threshold field, whether that field is an int, and
    whether the family takes ``theta``: read from its type hints once."""
    types = get_type_hints(family)
    axis = fields(family)[0].name
    return axis, types[axis] is int, "theta" in types


def _check_values(name: str, values: tuple[float, ...]) -> None:
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must all be finite, got {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing (sorted, no duplicates)")


def _value_key(value: float) -> int:
    # Stable per-value seed component: the IEEE-754 bit pattern, so a cell's
    # seeds depend on its (theta, threshold) values, never on list positions.
    return int(np.float64(value).view(np.uint64))


def run_sweep(spec: SweepSpec, workers: int = 1, progress=None) -> list[AggregateCell]:
    """One AggregateCell per (theta, threshold) pair, lexicographic order.

    Every cell's replicates go into one job stream, so workers never wait at
    a cell boundary; results are read back and aggregated one cell at a time.
    ``progress`` is called as progress(done, total, cell) after each cell.
    """
    points = list(product(spec.theta_values, spec.threshold_values))
    configs = [
        replace(
            spec.base,
            scheme=spec.cell_scheme(theta, threshold),
            seed=derive_seed(spec.base.seed, _value_key(theta), _value_key(threshold), rep),
        )
        for theta, threshold in points
        for rep in range(spec.replicates)
    ]
    cells: list[AggregateCell] = []
    # closing() cancels the queued runs if aggregate or progress raises.
    with closing(run_many(configs, workers)) as results:
        for done, (theta, threshold) in enumerate(points, start=1):
            cells.append(aggregate(list(islice(results, spec.replicates)), theta, threshold))
            if progress is not None:
                progress(done, len(points), cells[-1])
    return cells


def sweep_metadata(spec: SweepSpec) -> dict:
    """Sidecar describing the sweep: parameters, seed, timestamp, version."""
    base = spec.base
    return {
        "artifact_version": ARTIFACT_VERSION,
        "created_unix": time.time(),
        "scheme_kind": spec.scheme_kind,
        "theta_values": list(spec.theta_values),
        "threshold_values": list(spec.threshold_values),
        "replicates": spec.replicates,
        "base_seed": base.seed,
        "cost_normalisation": "raw totals (no 1e7 division applied)",
        "run_config": {
            **asdict(base.payoff),
            **{  # the scalar fields but seed, which is written above
                f.name: getattr(base, f.name)
                for f in fields(base)
                if f.name != "seed" and not is_dataclass(getattr(base, f.name))
            },
            "rule": type(base.rule).__name__,
            "K": getattr(base.rule, "K", None),
            "mu": getattr(base.rule, "mu", None),
        },
    }


def write_metadata_json(path, spec: SweepSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sweep_metadata(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep(
    spec: SweepSpec, metadata_path, table_path, workers: int = 1, progress=None
) -> list[AggregateCell]:
    """Run ``spec`` into a sweep table CSV whose columns are AggregateCell's fields.

    The metadata sidecar is written first. Each cell's row is written and
    flushed as ``run_sweep`` finishes it, before ``progress(done, total, cell)``
    is called; every field is a float or an int, written by ``repr`` so it
    round-trips.
    """
    write_metadata_json(metadata_path, spec)
    columns = [f.name for f in fields(AggregateCell)]
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)

        def write_row(done, total, cell):
            writer.writerow([repr(getattr(cell, name)) for name in columns])
            fh.flush()
            if progress is not None:
                progress(done, total, cell)

        return run_sweep(spec, workers, write_row)
