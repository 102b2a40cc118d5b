"""One field-type check shared by every config dataclass, from the API and from YAML."""

from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest

from latticecoop.cli import EXIT_CONFIG, main
from latticecoop.config import (
    ConfigError,
    ExperimentConfig,
    config_dict,
    parse_config,
    parse_config_text,
)
from latticecoop.dynamics import Deterministic, Fermi
from latticecoop.engine import RunConfig
from latticecoop.game import PayoffParams
from latticecoop.interference import Neb, NebI, NebII, Pop
from latticecoop.sweep import SweepSpec

RUN = RunConfig(
    side_length=10, payoff=PayoffParams(b=1.8), scheme=Neb(n_c=3, theta=5.3), rule=Deterministic()
)
SPEC = SweepSpec(
    base=RUN, scheme_kind="neb", theta_values=(4.5, 5.3), threshold_values=(2.0, 3.0), replicates=2
)
# One valid instance of every config dataclass.
VALID = [
    PayoffParams(b=1.8, punishment=0.1),
    Pop(p_c=0.5, theta=2.0),
    Neb(n_c=3, theta=5.3),
    NebI(eps=0.5),
    NebII(eps=0.5),
    Fermi(K=0.3, mu=0.01),
    RUN,
    SPEC,
    ExperimentConfig(run=RUN, replicates=2, output_dir="runs", label="smoke"),
]
SCALAR_FIELDS = [
    pytest.param(obj, name, typ, id=f"{type(obj).__name__}.{name}")
    for obj in VALID
    for name, typ in get_type_hints(type(obj)).items()
    if typ in (bool, int, float, str)
]
# Values of the wrong type for each declared type: a bool where a number is
# declared, a str, and a float (even a whole one) where an int is declared.
WRONG = {
    bool: ["no", 1, 0.0, None],
    int: [True, np.bool_(False), "3", 3.0, np.float64(3.0), None],
    float: [True, np.bool_(True), "1.5", None, [1.0]],
    str: [True, 5, None, b"runs"],
}
NUMPY = {bool: np.bool_, int: np.int64, float: np.float64, str: np.str_}


def test_every_scalar_field_is_covered():
    # payoff 2, schemes 2 + 2 + 1 + 1, Fermi 2, run 7, sweep 2, experiment 3
    assert len(SCALAR_FIELDS) == 22


@pytest.mark.parametrize("obj, name, typ", SCALAR_FIELDS)
def test_wrong_type_raises_value_error_naming_the_field(obj, name, typ):
    for value in WRONG[typ]:
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            replace(obj, **{name: value})


@pytest.mark.parametrize("obj, name, typ", SCALAR_FIELDS)
def test_numpy_scalars_are_stored_as_plain_types(obj, name, typ):
    made = replace(obj, **{name: NUMPY[typ](getattr(obj, name))})
    assert made == obj
    assert type(getattr(made, name)) is typ


def test_integers_are_stored_as_floats_where_floats_are_declared():
    neb = Neb(n_c=np.uint8(3), theta=np.int32(5))
    assert neb == Neb(n_c=3, theta=5.0)
    assert type(neb.n_c) is int and type(neb.theta) is float
    assert type(PayoffParams(b=2).b) is float


def test_motivating_cases_fail_at_construction():
    with pytest.raises(ValueError, match=r"^n_c must be an integer, got 3\.0$"):
        Neb(n_c=3.0, theta=5.3)
    with pytest.raises(ValueError, match="^early_stop_on_homogeneous must be true or false"):
        replace(RUN, early_stop_on_homogeneous="no")
    with pytest.raises(ValueError, match="^initial_coop_probability must be a number"):
        replace(RUN, initial_coop_probability=True)
    with pytest.raises(ValueError, match="^n_c must be an integer"):
        Neb(n_c=True, theta=5.3)
    with pytest.raises(ValueError, match="^theta must be a number"):
        Pop(p_c=0.5, theta=True)
    with pytest.raises(ValueError, match="^K must be a number"):
        Fermi(K=True)


@pytest.mark.parametrize(
    "values", [(4.5, 5.3), [4.5, 5.3], np.array([4.5, 5.3]), [np.float64(4.5), np.float32(5.3)]]
)
def test_sweep_spec_accepts_sequences_of_numbers(values):
    spec = replace(SPEC, theta_values=values)
    assert spec.theta_values[0] == 4.5 and all(type(t) is float for t in spec.theta_values)
    spec = replace(SPEC, threshold_values=(np.int64(2), 3))
    assert spec.threshold_values == (2.0, 3.0)
    assert all(type(t) is float for t in spec.threshold_values)


@pytest.mark.parametrize(
    "values",
    [
        ("4.5", 5.3),
        (4.5, True),
        np.array([True, False]),
        np.array([[4.5, 5.3]]),
        "4.5",
        4.5,
        {4.5, 5.3},
        None,
    ],
)
def test_sweep_spec_rejects_anything_but_a_list_of_numbers(values):
    for field in ("theta_values", "threshold_values"):
        with pytest.raises(ValueError, match=f"^{field} must be a list, each item a number"):
            replace(SPEC, **{field: values})



def test_integers_too_large_for_a_float_raise_value_error():
    huge = 10**400
    with pytest.raises(ValueError, match="^b is too large for a float"):
        PayoffParams(b=huge)
    for field in ("theta_values", "threshold_values"):
        with pytest.raises(ValueError, match=f"^{field} is too large for a float"):
            replace(SPEC, **{field: (4.5, huge)})

MINIMAL = {
    "model": "{side_length: 10, b: 1.8}",
    "scheme": "{kind: neb, n_c: 3, theta: 5.3}",
    "rule": "{kind: deterministic}",
}


def yaml_config(**sections):
    return "".join(f"{name}: {body}\n" for name, body in {**MINIMAL, **sections}.items())


@pytest.mark.parametrize(
    "sections, message",
    [
        ({"model": "{side_length: 10.0, b: 1.8}"}, "model: side_length must be an integer, got 10.0"),
        ({"model": "{side_length: 10, b: '1.8'}"}, "model: b must be a number, got '1.8'"),
        (
            {"model": "{side_length: 10, b: 1.8, initial_exact_fraction: 1}"},
            "model: initial_exact_fraction must be true or false, got 1",
        ),
        ({"scheme": "{kind: neb, n_c: 3.0, theta: 5.3}"}, "scheme: n_c must be an integer, got 3.0"),
        ({"scheme": "{kind: pop, p_c: true, theta: 5.3}"}, "scheme: p_c must be a number, got True"),
        ({"scheme": "{kind: [neb]}"}, "scheme: kind must be one of"),
        ({"rule": "{kind: fermi, K: true}"}, "rule: K must be a number, got True"),
        ({"protocol": "{replicates: 2.5}"}, "protocol: replicates must be an integer, got 2.5"),
        ({"protocol": "{base_seed: '7'}"}, "protocol: base_seed must be an integer, got '7'"),
        ({"output": "{label: 5}"}, "output: label must be a string, got 5"),
        (
            {"scheme": "{kind: neb}", "sweep": "{theta_values: [4.5, a], threshold_values: [3]}"},
            "sweep: theta_values must be a list, each item a number, got [4.5, 'a']",
        ),
        (
            {"scheme": "{kind: pop}", "sweep": "{theta_values: [4.5], threshold_values: 0.5}"},
            "sweep: threshold_values must be a list, each item a number, got 0.5",
        ),
        # a renamed field is named by its key: base_seed sets RunConfig.seed,
        # directory sets ExperimentConfig.output_dir
        ({"protocol": "{base_seed: -1}"}, "protocol: base_seed must be in [0, 2^64), got -1"),
        ({"output": "{directory: 5}"}, "output: directory must be a string, got 5"),
    ],
)
def test_yaml_wrong_type_names_section_and_field(sections, message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(yaml_config(**sections))
    assert str(info.value).startswith(message)


def test_cli_wrong_type_exits_config_naming_section_and_field(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(
        yaml_config(
            protocol='{early_stop_on_homogeneous: "no"}',
            output=f"{{directory: {tmp_path / 'runs'}}}",
        )
    )
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: protocol: early_stop_on_homogeneous must be true or false" in err
    assert not (tmp_path / "runs").exists()


def test_sweep_metadata_run_config_keys_and_values():
    # a sweep's parameters are recorded once, by config_dict into its
    # config.yaml; the metadata.json sidecar holds provenance only
    run = replace(RUN, rule=Fermi(K=0.3, mu=0.01), seed=9)
    doc = config_dict(ExperimentConfig(run=run, replicates=2, sweep=SPEC))
    assert doc == {
        "model": {
            "side_length": 10,
            "b": 1.8,
            "punishment": 0.0,
            "initial_coop_probability": 0.5,
            "initial_exact_fraction": False,
        },
        "scheme": {"kind": "neb"},
        "rule": {"kind": "fermi", "K": 0.3, "mu": 0.01},
        "protocol": {
            "generations": 200,
            "measure_window": 50,
            "base_seed": 9,
            "early_stop_on_homogeneous": True,
            "replicates": 2,
        },
        "output": {"directory": "runs", "label": "experiment"},
        "sweep": {"theta_values": [4.5, 5.3], "threshold_values": [2.0, 3.0]},
    }
    parsed = parse_config(doc)
    assert parsed.sweep == replace(SPEC, base=replace(run, scheme=parsed.run.scheme))
    assert config_dict(ExperimentConfig(run=RUN, sweep=SPEC))["rule"] == {"kind": "deterministic"}
