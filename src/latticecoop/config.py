"""Experiment config files: parse, validate, emit, hash.

Configs are YAML documents with sections ``model``, ``scheme``, ``rule``,
``protocol``, ``output`` and (for sweeps) ``sweep``. Scheme and rule kinds,
and the fields each takes, come from ``interference.SCHEMES`` and
``dynamics.RULES``. Errors carry their section or field path, e.g.
``scheme.theta: required field is missing``. Emitting the effective config
and re-parsing it yields an identical experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Any, Mapping, get_type_hints

import yaml

from .dynamics import RULES, Deterministic
from .engine import RunConfig
from .game import PayoffParams
from .interference import SCHEMES, NoInterference, Pop
from .sweep import SweepSpec


class ConfigError(ValueError):
    """A config file problem, message prefixed with its section or field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: the run, its replicate count, output naming, sweep.

    In a sweep config ``run`` is the sweep's base run, whose scheme is a
    placeholder: the cells' schemes come from ``sweep``.
    """

    run: RunConfig
    replicates: int
    output_dir: str
    label: str
    sweep: SweepSpec | None

    def run_config(self) -> RunConfig:
        if self.sweep is not None:
            raise ConfigError("scheme: set by the sweep section (use the sweep command)")
        return self.run

    def sweep_spec(self) -> SweepSpec:
        if self.sweep is None:
            raise ConfigError("sweep: section with theta_values and threshold_values required")
        return self.sweep


# How errors name the type a field expects, by the Python type it takes.
_EXPECTED = {int: "an integer", float: "a number", bool: "true/false", str: "a string"}


def _is(value: Any, typ: type) -> bool:
    # bool is an int subclass: accept it where, and only where, a bool is asked for
    if isinstance(value, bool) or typ is bool:
        return isinstance(value, bool) and typ is bool
    return isinstance(value, (int, float) if typ is float else typ)


class _Section:
    """Typed accessors over one config mapping, with field-path errors."""

    def __init__(self, name: str, data: Any):
        if data is None:
            data = {}
        if not isinstance(data, Mapping):
            raise ConfigError(f"{name}: must be a mapping, got {type(data).__name__}")
        self.name = name
        self.data = dict(data)

    def reject_unknown(self, known: tuple[str, ...]) -> None:
        unknown = [key for key in self.data if key not in known]
        if unknown:
            raise ConfigError(f"{self.name}.{unknown[0]}: unknown field")

    def _fetch(self, field: str, required: bool, default):
        if field in self.data:
            return self.data[field]
        if required:
            raise ConfigError(f"{self.name}.{field}: required field is missing")
        return default

    def get(self, field: str, typ: type, required: bool = False, default=None):
        """The field as ``typ`` (int, float, bool or str); ints are accepted as floats."""
        value = self._fetch(field, required, default)
        if value is None:
            return None
        if not _is(value, typ):
            raise ConfigError(f"{self.name}.{field}: expected {_EXPECTED[typ]}, got {value!r}")
        return float(value) if typ is float else value

    def get_float_list(self, field: str, required: bool = False) -> tuple[float, ...] | None:
        value = self._fetch(field, required, default=None)
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{self.name}.{field}: expected a list of numbers")
        for item in value:
            if not _is(item, float):
                raise ConfigError(f"{self.name}.{field}: expected numbers, got {item!r}")
        return tuple(float(item) for item in value)


def _fraction_from(value: float, z: int, field: str) -> float:
    """Population threshold: a fraction of Z, or a count in (1, Z] scaled by Z."""
    if value > 1.0:
        if not value.is_integer() or value > z:
            raise ConfigError(f"{field}: count form must be an integer in 1..Z={z}, got {value}")
        return value / z
    return value


def _kind(section: _Section, table: Mapping[str, type]) -> tuple[str, type]:
    """``section.kind`` and its class in ``table``; rejects fields the class lacks."""
    section.reject_unknown(("kind", *(f.name for cls in table.values() for f in fields(cls))))
    kind = section.get("kind", str, required=True)
    if kind not in table:
        raise ConfigError(f"{section.name}.kind: must be one of {tuple(table)}, got {kind!r}")
    own = {f.name for f in fields(table[kind])}
    for field in section.data:
        if field != "kind" and field not in own:
            raise ConfigError(f"{section.name}.{field}: not valid for kind {kind!r}")
    return kind, table[kind]


def _build(section: _Section, cls: type):
    """``cls`` from the section's fields, typed and defaulted as its dataclass declares."""
    types = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        values[f.name] = section.get(
            f.name, types[f.name], required=f.default is MISSING, default=f.default
        )
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section.name}: {exc}") from exc


def _kind_of(table: Mapping[str, type], value: Any) -> str:
    return next(kind for kind, cls in table.items() if type(value) is cls)


def parse_config(data: Mapping[str, Any]) -> ExperimentConfig:
    root = _Section("config", data)
    root.reject_unknown(("model", "scheme", "rule", "protocol", "output", "sweep"))

    model = _Section("model", root.data.get("model"))
    model.reject_unknown(
        (
            "side_length",
            "b",
            "punishment",
            "initial_coop_probability",
            "initial_exact_fraction",
        )
    )
    side_length = model.get("side_length", int, required=True)
    b = model.get("b", float, required=True)
    punishment = model.get("punishment", float, default=0.0)
    initial_coop = model.get("initial_coop_probability", float, default=0.5)
    exact_fraction = model.get("initial_exact_fraction", bool, default=False)
    try:
        run = RunConfig(
            side_length=side_length,
            payoff=PayoffParams(b=b, punishment=punishment),
            scheme=NoInterference(),
            rule=Deterministic(),
            initial_coop_probability=initial_coop,
            initial_exact_fraction=exact_fraction,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    z = side_length * side_length

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
            scheme.data["p_c"] = _fraction_from(scheme.get("p_c", float), z, "scheme.p_c")
        run = replace(run, scheme=_build(scheme, family))

    rule = _Section("rule", root.data.get("rule"))
    run = replace(run, rule=_build(rule, _kind(rule, RULES)[1]))

    protocol = _Section("protocol", root.data.get("protocol"))
    protocol.reject_unknown(
        (
            "generations",
            "measure_window",
            "replicates",
            "base_seed",
            "early_stop_on_homogeneous",
        )
    )
    generations = protocol.get("generations", int, default=200)
    measure_window = protocol.get("measure_window", int, default=50)
    replicates = protocol.get("replicates", int, default=1)
    base_seed = protocol.get("base_seed", int, default=0)
    early_stop = protocol.get("early_stop_on_homogeneous", bool, default=True)
    if replicates < 1:
        raise ConfigError(f"protocol.replicates: must be >= 1, got {replicates}")
    try:
        run = replace(
            run,
            generations=generations,
            measure_window=measure_window,
            seed=base_seed,
            early_stop_on_homogeneous=early_stop,
        )
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc

    output = _Section("output", root.data.get("output"))
    output.reject_unknown(("directory", "label"))
    output_dir = output.get("directory", str, default="runs")
    label = output.get("label", str, default="experiment")

    sweep = None
    if has_sweep:
        section = _Section("sweep", root.data.get("sweep"))
        section.reject_unknown(("theta_values", "threshold_values"))
        thresholds = section.get_float_list("threshold_values", required=True)
        thetas = section.get_float_list("theta_values", required="theta" in get_type_hints(family))
        if thetas is None:
            thetas = (1.0,)  # placeholder; this family takes no theta
        if family is Pop:
            thresholds = tuple(_fraction_from(v, z, "sweep.threshold_values") for v in thresholds)
        try:
            sweep = SweepSpec(
                base=run,
                scheme_kind=scheme_kind,
                theta_values=thetas,
                threshold_values=thresholds,
                replicates=replicates,
            )
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc

    return ExperimentConfig(
        run=run, replicates=replicates, output_dir=output_dir, label=label, sweep=sweep
    )


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


def config_dict(config: ExperimentConfig) -> dict:
    """Nested section layout of the effective config (round-trips via parse)."""
    run = config.run
    if config.sweep is None:
        scheme = {"kind": _kind_of(SCHEMES, run.scheme), **asdict(run.scheme)}
    else:
        scheme = {"kind": config.sweep.scheme_kind}
    doc: dict[str, Any] = {
        "model": {
            "side_length": run.side_length,
            "b": run.payoff.b,
            "punishment": run.payoff.punishment,
            "initial_coop_probability": run.initial_coop_probability,
            "initial_exact_fraction": run.initial_exact_fraction,
        },
        "scheme": scheme,
        "rule": {"kind": _kind_of(RULES, run.rule), **asdict(run.rule)},
        "protocol": {
            "generations": run.generations,
            "measure_window": run.measure_window,
            "replicates": config.replicates,
            "base_seed": run.seed,
            "early_stop_on_homogeneous": run.early_stop_on_homogeneous,
        },
        "output": {"directory": config.output_dir, "label": config.label},
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
        sweep = None if config.sweep is None else replace(config.sweep, base=run)
        config = replace(config, run=run, sweep=sweep)
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    return config
