"""Experiment config files: parse, validate, emit, hash.

Configs are YAML documents with sections ``model``, ``scheme``, ``rule``,
``protocol``, ``output`` and (for sweeps) ``sweep``. Scheme and rule kinds,
and the fields each takes, come from ``interference.SCHEMES`` and
``dynamics.RULES``. Each section passes its values as they are to the
dataclasses it sets, which check their types and ranges; their errors carry
the section name, e.g. ``scheme: theta must be finite and > 0, got nan``.
A missing or unknown field is named by its path, e.g.
``scheme.theta: required field is missing``. Emitting the effective config
and re-parsing it yields an identical experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Any, Mapping

import yaml

from .dynamics import RULES, Deterministic
from .engine import RunConfig
from .game import PayoffParams
from .grid import check_field_types
from .interference import SCHEMES, NoInterference, Pop
from .sweep import SweepSpec

# The RunConfig fields set by the model section (besides the payoff's own) and
# by the protocol section, the ExperimentConfig fields set by the output
# section, and the keys that differ from their field's name.
MODEL_FIELDS = ("side_length", "initial_coop_probability", "initial_exact_fraction")
PROTOCOL_FIELDS = ("generations", "measure_window", "seed", "early_stop_on_homogeneous")
OUTPUT_FIELDS = ("output_dir", "label")
KEYS = {"seed": "base_seed", "output_dir": "directory"}


class ConfigError(ValueError):
    """A config file problem, message prefixed with its section or field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: the run, its replicate count, output naming, sweep.

    In a sweep config ``run`` is the sweep's base run, whose scheme is a
    placeholder: the cells' schemes come from ``sweep``. The sweep's base run
    and replicate count are always set from ``run`` and ``replicates``.
    """

    run: RunConfig
    replicates: int = 1
    output_dir: str = "runs"
    label: str = "experiment"
    sweep: SweepSpec | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.sweep is not None:
            sweep = replace(self.sweep, base=self.run, replicates=self.replicates)
            object.__setattr__(self, "sweep", sweep)

    def run_config(self) -> RunConfig:
        if self.sweep is not None:
            raise ConfigError("scheme: set by the sweep section (use the sweep command)")
        return self.run

    def sweep_spec(self) -> SweepSpec:
        if self.sweep is None:
            raise ConfigError("sweep: section with theta_values and threshold_values required")
        return self.sweep


class _Section:
    """One config mapping: its keys as dataclass fields, with field-path errors."""

    def __init__(self, name: str, data: Any):
        if data is None:
            data = {}
        if not isinstance(data, Mapping):
            raise ConfigError(f"{name}: must be a mapping, got {type(data).__name__}")
        self.name = name
        self.data = dict(data)

    def reject_unknown(self, known: tuple[str, ...]) -> None:
        """Reject every key but those of the fields ``known``."""
        keys = {KEYS.get(field, field) for field in known}
        unknown = [key for key in self.data if key not in keys]
        if unknown:
            raise ConfigError(f"{self.name}.{unknown[0]}: unknown field")

    def required(self, key: str) -> Any:
        if key not in self.data:
            raise ConfigError(f"{self.name}.{key}: required field is missing")
        return self.data[key]

    def values(self, cls: type, names: tuple[str, ...] | None = None) -> dict:
        """The section's values of ``cls``'s fields ``names`` (default all), by field.

        A field without a default is required; an absent one keeps its default.
        """
        values = {}
        for f in fields(cls):
            key = KEYS.get(f.name, f.name)
            if (names is None or f.name in names) and (key in self.data or f.default is MISSING):
                values[f.name] = self.required(key)
        return values

    def build(self, make, *args, **values):
        """``make(*args, **values)``, a ValueError prefixed with the section name.

        The error names a field first; a renamed one is named by its key.
        """
        try:
            return make(*args, **values)
        except ValueError as exc:
            field, space, rest = str(exc).partition(" ")
            raise ConfigError(f"{self.name}: {KEYS.get(field, field)}{space}{rest}") from exc


def _as_fraction(value: Any, z: int, where: str) -> Any:
    """Population thresholds above 1 are counts in 2..Z, scaled here to fractions of Z.

    A list is scaled item by item. Fractions, and values that are not numbers,
    go to the dataclass unchanged.
    """
    if isinstance(value, list):
        return [_as_fraction(item, z, where) for item in value]
    if not (isinstance(value, (int, float)) and value > 1):
        return value
    if value > z or not float(value).is_integer():  # a huge int fails the first test
        raise ConfigError(f"{where} count form must be an integer in 2..Z={z}, got {value}")
    return value / z


def _kind(section: _Section, table: Mapping[str, type]) -> tuple[str, type]:
    """``section.kind`` and its class in ``table``; rejects fields the class lacks."""
    section.reject_unknown(("kind", *(f.name for cls in table.values() for f in fields(cls))))
    kind = section.required("kind")
    if kind not in tuple(table):  # a tuple: an unhashable kind is just not one of them
        raise ConfigError(f"{section.name}: kind must be one of {tuple(table)}, got {kind!r}")
    own = {f.name for f in fields(table[kind])}
    for field in section.data:
        if field != "kind" and field not in own:
            raise ConfigError(f"{section.name}.{field}: not valid for kind {kind!r}")
    return kind, table[kind]


def _build(section: _Section, cls: type):
    """``cls`` from the section's fields, defaulted as its dataclass declares."""
    return section.build(cls, **section.values(cls))


def _kind_of(table: Mapping[str, type], value: Any) -> str:
    return next(kind for kind, cls in table.items() if type(value) is cls)


def parse_config(data: Mapping[str, Any]) -> ExperimentConfig:
    root = _Section("config", data)
    root.reject_unknown(("model", "scheme", "rule", "protocol", "output", "sweep"))

    model = _Section("model", root.data.get("model"))
    model.reject_unknown((*(f.name for f in fields(PayoffParams)), *MODEL_FIELDS))
    run = model.build(
        RunConfig,
        payoff=_build(model, PayoffParams),
        scheme=NoInterference(),
        rule=Deterministic(),
        **model.values(RunConfig, MODEL_FIELDS),
    )
    z = run.side_length * run.side_length

    has_sweep = "sweep" in root.data
    scheme = _Section("scheme", root.data.get("scheme"))
    scheme_kind, family = _kind(scheme, SCHEMES)
    if has_sweep:
        extra = [field for field in scheme.data if field != "kind"]
        if extra:
            raise ConfigError(
                f"scheme.{extra[0]}: not allowed alongside a sweep section "
                "(cell values come from sweep.theta_values / sweep.threshold_values)"
            )
    else:
        if family is Pop and "p_c" in scheme.data:
            scheme.data["p_c"] = _as_fraction(scheme.data["p_c"], z, "scheme: p_c")
        run = replace(run, scheme=_build(scheme, family))

    rule = _Section("rule", root.data.get("rule"))
    run = replace(run, rule=_build(rule, _kind(rule, RULES)[1]))

    protocol = _Section("protocol", root.data.get("protocol"))
    protocol.reject_unknown((*PROTOCOL_FIELDS, "replicates"))
    run = protocol.build(replace, run, **protocol.values(RunConfig, PROTOCOL_FIELDS))
    config = protocol.build(
        ExperimentConfig, run, **protocol.values(ExperimentConfig, ("replicates",))
    )

    output = _Section("output", root.data.get("output"))
    output.reject_unknown(OUTPUT_FIELDS)
    config = output.build(replace, config, **output.values(ExperimentConfig, OUTPUT_FIELDS))

    if has_sweep:
        section = _Section("sweep", root.data.get("sweep"))
        axes = ("theta_values", "threshold_values")
        section.reject_unknown(axes)
        if "theta" not in {f.name for f in fields(family)}:
            section.data.setdefault("theta_values", [1.0])  # placeholder; no theta to set
        values = section.values(SweepSpec, axes)
        if family is Pop:
            values["threshold_values"] = _as_fraction(
                values["threshold_values"], z, "sweep: threshold_values"
            )
        sweep = section.build(SweepSpec, run, scheme_kind, replicates=config.replicates, **values)
        config = replace(config, sweep=sweep)
    return config


def parse_config_text(text: str) -> ExperimentConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML ({exc})") from exc
    if data is None:
        raise ConfigError("config: document is empty")
    if not isinstance(data, Mapping):
        raise ConfigError("config: top level must be a mapping of sections")
    return parse_config(data)


def read_utf8(path, what: str) -> str:
    """The text of ``path``; a file that is not UTF-8 is a ConfigError about ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what}: not UTF-8 text ({exc})") from exc


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_utf8(path, "config"))


def _keyed(obj: Any, names: tuple[str, ...]) -> dict:
    return {KEYS.get(name, name): getattr(obj, name) for name in names}


def config_dict(config: ExperimentConfig) -> dict:
    """Nested section layout of the effective config (round-trips via parse)."""
    run = config.run
    if config.sweep is None:
        scheme = {"kind": _kind_of(SCHEMES, run.scheme), **asdict(run.scheme)}
    else:
        scheme = {"kind": config.sweep.scheme_kind}
    doc: dict[str, Any] = {
        "model": {**asdict(run.payoff), **_keyed(run, MODEL_FIELDS)},
        "scheme": scheme,
        "rule": {"kind": _kind_of(RULES, run.rule), **asdict(run.rule)},
        "protocol": {**_keyed(run, PROTOCOL_FIELDS), "replicates": config.replicates},
        "output": _keyed(config, OUTPUT_FIELDS),
    }
    if config.sweep is not None:
        doc["sweep"] = {
            "theta_values": list(config.sweep.theta_values),
            "threshold_values": list(config.sweep.threshold_values),
        }
    return doc


def emit_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(config_dict(config), sort_keys=True)


def config_hash(config: ExperimentConfig) -> str:
    """8-hex-char digest of the experiment parameters (output section excluded)."""
    doc = config_dict(config)
    doc.pop("output", None)
    canonical = yaml.safe_dump(doc, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=4).hexdigest()


def with_overrides(
    config: ExperimentConfig,
    seed: int | None = None,
    output_dir: str | None = None,
) -> ExperimentConfig:
    if seed is not None:
        try:
            run = replace(config.run, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
        config = replace(config, run=run)
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    return config
