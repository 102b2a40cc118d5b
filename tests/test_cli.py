import csv
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from latticecoop import analysis
from latticecoop.analysis import MicroOutcome
from latticecoop.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_IO, EXIT_OK, main
from latticecoop.config import (
    ConfigError,
    config_hash,
    emit_config,
    load_config,
    parse_config_text,
)
from latticecoop.grid import format_snapshot, random_grid
from latticecoop.dynamics import RULES
from latticecoop.engine import MAX_SIDE_LENGTH
from latticecoop.interference import SCHEMES, Neb

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
README = ROOT / "README.md"

RUN_CONFIG = """
model:
  side_length: 10
  b: 1.8
scheme:
  kind: neb
  n_c: 3
  theta: 5.3
rule:
  kind: deterministic
protocol:
  generations: 30
  measure_window: 10
  replicates: 2
  base_seed: 42
output:
  directory: {out}
  label: smoke
"""

SWEEP_CONFIG = """
model:
  side_length: 8
  b: 1.8
scheme:
  kind: neb
rule:
  kind: deterministic
protocol:
  generations: 15
  measure_window: 5
  replicates: 2
  base_seed: 3
output:
  directory: {out}
  label: sweepy
sweep:
  theta_values: [4.5, 5.3]
  threshold_values: [2, 3]
"""


def write_config(tmp_path, template, name="config.yaml"):
    path = tmp_path / name
    path.write_text(template.format(out=tmp_path / "runs"))
    return path


def run_dirs(tmp_path):
    return sorted((tmp_path / "runs").iterdir())


def test_parse_and_round_trip(tmp_path):
    path = write_config(tmp_path, RUN_CONFIG)
    cfg = load_config(path)
    assert cfg.run.scheme == Neb(n_c=3, theta=5.3)
    assert parse_config_text(emit_config(cfg)) == cfg


def test_round_trip_fermi_and_sweep_configs(tmp_path):
    fermi_cfg = load_config(
        write_config(
            tmp_path, RUN_CONFIG.replace("kind: deterministic", "kind: fermi\n  K: 0.3\n  mu: 0.01")
        )
    )
    assert parse_config_text(emit_config(fermi_cfg)) == fermi_cfg
    sweep_cfg = load_config(write_config(tmp_path, SWEEP_CONFIG))
    assert parse_config_text(emit_config(sweep_cfg)) == sweep_cfg


def test_bundled_example_configs_parse():
    paths = sorted(CONFIGS.glob("*.yaml"))
    assert len(paths) >= 3
    for path in paths:
        cfg = load_config(path)
        assert parse_config_text(emit_config(cfg)) == cfg


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_bundled_config_runs_through_its_command(tmp_path, name):
    # each paper experiment at L=10 with one replicate, through the command
    # README gives for it: sweep for a config with a sweep section, else run
    data = yaml.safe_load((CONFIGS / name).read_text(encoding="utf-8"))
    data["model"]["side_length"] = 10
    data["protocol"]["replicates"] = 1
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    command = "sweep" if "sweep" in data else "run"
    argv = [command, "--config", str(path), "--out", str(tmp_path / "runs"), "--workers", "1"]
    assert main(argv) == EXIT_OK
    config = load_config(path)
    (run_dir,) = run_dirs(tmp_path)
    assert run_dir.name == f"{config.label}-{config_hash(config)}"
    assert config_hash(load_config(run_dir / "config.yaml")) == config_hash(config)
    names = sorted(p.name for p in run_dir.iterdir())
    if command == "sweep":
        assert names == ["config.yaml", "metadata.json", "sweep.csv"]
        spec = config.sweep_spec()
        with open(run_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(spec.theta_values) * len(spec.threshold_values)
    else:
        assert names == ["config.yaml", "final_grid_rep000.txt", "metrics.csv"]
        with open(run_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1 and {row[0] for row in rows[1:]} == {"rep000"}


def test_readme_names_every_bundled_config():
    named = set(re.findall(r"configs/([\w.-]+\.yaml)", README.read_text(encoding="utf-8")))
    assert named == {p.name for p in CONFIGS.glob("*.yaml")}


def test_config_field_errors():
    with pytest.raises(ConfigError, match="scheme.theta"):
        parse_config_text(
            "model: {side_length: 10, b: 1.8}\nscheme: {kind: neb, n_c: 3}\n"
            "rule: {kind: deterministic}\n"
        )
    with pytest.raises(ConfigError, match="model.side_length"):
        parse_config_text("model: {b: 1.8}\nscheme: {kind: none}\nrule: {kind: deterministic}\n")
    with pytest.raises(ConfigError, match="model"):
        parse_config_text(
            "model: {side_length: 10, b: 2.5}\nscheme: {kind: none}\nrule: {kind: deterministic}\n"
        )
    with pytest.raises(ConfigError, match="rule.K"):
        parse_config_text(
            "model: {side_length: 10, b: 1.8}\nscheme: {kind: none}\nrule: {kind: fermi}\n"
        )
    with pytest.raises(ConfigError, match="scheme.p_c"):
        parse_config_text(
            "model: {side_length: 10, b: 1.8}\nscheme: {kind: neb, n_c: 3, theta: 5.3, p_c: 1.0}\n"
            "rule: {kind: deterministic}\n"
        )
    with pytest.raises(ConfigError, match="rule.mu"):
        parse_config_text(
            "model: {side_length: 10, b: 1.8}\nscheme: {kind: none}\n"
            "rule: {kind: deterministic, mu: 0.1}\n"
        )
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config_text(
            "model: {side_length: 10, b: 1.8, bee: 2}\nscheme: {kind: none}\n"
            "rule: {kind: deterministic}\n"
        )


SCHEME_EXAMPLES = {
    "none": ["{kind: none}"],
    "pop": ["{kind: pop, p_c: 0.6, theta: 2.0}", "{kind: pop, p_c: 60, theta: 2.0}"],
    "neb": ["{kind: neb, n_c: 3, theta: 3.0}"],
    "neb_i": ["{kind: neb_i, eps: 0.5}"],
    "neb_ii": ["{kind: neb_ii, eps: 0.5}"],
}
RULE_EXAMPLES = {"deterministic": "{kind: deterministic}", "fermi": "{kind: fermi, K: 0.3, mu: 0.01}"}
SWEEP_EXAMPLES = {
    "pop": "{theta_values: [4.5, 5.3], threshold_values: [0.5, 85]}",
    "neb": "{theta_values: [4.5, 5.3], threshold_values: [2, 3]}",
    "neb_i": "{threshold_values: [0.1, 0.5]}",
    "neb_ii": "{threshold_values: [0.1, 0.5]}",
}


def kind_config(scheme, rule_kind, sweep=None):
    text = f"model: {{side_length: 10, b: 1.8}}\nscheme: {scheme}\nrule: {RULE_EXAMPLES[rule_kind]}\n"
    return text if sweep is None else text + f"sweep: {sweep}\n"


@pytest.mark.parametrize("rule_kind", sorted(RULES))
@pytest.mark.parametrize("scheme_kind", sorted(SCHEMES))
def test_round_trip_every_kind(scheme_kind, rule_kind):
    assert SCHEME_EXAMPLES.keys() == SCHEMES.keys() and RULE_EXAMPLES.keys() == RULES.keys()
    runs = [parse_config_text(kind_config(s, rule_kind)) for s in SCHEME_EXAMPLES[scheme_kind]]
    assert all(cfg == runs[0] for cfg in runs)  # pop's count form 60 is the fraction 0.6
    assert type(runs[0].run_config().scheme) is SCHEMES[scheme_kind]
    configs = list(runs)
    if scheme_kind in SWEEP_EXAMPLES:
        scheme = f"{{kind: {scheme_kind}}}"
        configs.append(parse_config_text(kind_config(scheme, rule_kind, SWEEP_EXAMPLES[scheme_kind])))
        assert configs[-1].sweep_spec().scheme_kind == scheme_kind
    for cfg in configs:
        assert type(cfg.run.rule) is RULES[rule_kind]
        assert parse_config_text(emit_config(cfg)) == cfg


def test_pop_count_form_is_converted():
    cfg = parse_config_text(
        "model: {side_length: 10, b: 1.8}\nscheme: {kind: pop, p_c: 85, theta: 4.5}\n"
        "rule: {kind: deterministic}\n"
    )
    assert cfg.run.scheme.p_c == 0.85


@pytest.mark.parametrize("p_c, expected", [("1", 1.0), ("2", 0.02), ("100", 1.0)])
def test_pop_count_form_starts_at_two(p_c, expected):
    # 1 is the fraction 1.0; counts run from 2 to Z
    cfg = parse_config_text(
        f"model: {{side_length: 10, b: 1.8}}\nscheme: {{kind: pop, p_c: {p_c}, theta: 4.5}}\n"
        "rule: {kind: deterministic}\n"
    )
    assert cfg.run.scheme.p_c == expected


@pytest.mark.parametrize("p_c", ["1.5", "101"])
def test_pop_count_form_outside_2_to_z_names_its_range(p_c):
    with pytest.raises(ConfigError, match=r"p_c count form must be an integer in 2\.\.Z=100"):
        parse_config_text(
            f"model: {{side_length: 10, b: 1.8}}\nscheme: {{kind: pop, p_c: {p_c}, theta: 4.5}}\n"
            "rule: {kind: deterministic}\n"
        )


def test_sweep_runs_the_base_run_and_replicates_of_its_config():
    config = load_config(CONFIGS / "pop_sweep.yaml")
    smaller = replace(config, run=replace(config.run, side_length=20))
    assert config_hash(smaller) != config_hash(config)
    assert smaller.sweep_spec().base == smaller.run
    assert smaller.sweep_spec().base.side_length == 20
    fewer = replace(config, replicates=2)
    assert fewer.sweep_spec().replicates == 2
    assert fewer.sweep_spec().base == config.run


def test_config_hash_ignores_output_section(tmp_path):
    a = load_config(write_config(tmp_path, RUN_CONFIG))
    b = load_config(write_config(tmp_path, RUN_CONFIG.replace("label: smoke", "label: other")))
    assert config_hash(a) == config_hash(b)
    c = load_config(write_config(tmp_path, RUN_CONFIG.replace("theta: 5.3", "theta: 5.1")))
    assert config_hash(a) != config_hash(c)


def test_cmd_run_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, RUN_CONFIG)
    assert main(["run", "--config", str(path), "--workers", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rep000: coop=1.0" in out
    assert "termination=homogeneous_C" in out
    (run_dir,) = run_dirs(tmp_path)
    assert run_dir.name.startswith("smoke-")
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "final_grid_rep000.txt").exists()
    assert (run_dir / "final_grid_rep001.txt").exists()
    assert (run_dir / "config.yaml").exists()
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "run_id"
    assert {row[0] for row in rows[1:]} == {"rep000", "rep001"}


def test_cmd_run_reproducible_bytes(tmp_path):
    path = write_config(tmp_path, RUN_CONFIG)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    (run_dir,) = run_dirs(tmp_path)
    first = (run_dir / "metrics.csv").read_bytes()
    snap_first = (run_dir / "final_grid_rep000.txt").read_bytes()
    assert main(["run", "--config", str(path)]) == EXIT_OK
    assert (run_dir / "metrics.csv").read_bytes() == first
    assert (run_dir / "final_grid_rep000.txt").read_bytes() == snap_first


def test_cmd_run_failure_mid_write_leaves_no_final_file(tmp_path, monkeypatch):
    import latticecoop.cli as cli_module

    written = []

    def failing_snapshot(g):
        if written:
            raise OSError("disk full")  # the second snapshot write fails
        written.append(g)
        return format_snapshot(g)

    monkeypatch.setattr(cli_module, "format_snapshot", failing_snapshot)
    path = write_config(tmp_path, RUN_CONFIG)
    assert main(["run", "--config", str(path)]) == EXIT_IO
    (run_dir,) = run_dirs(tmp_path)
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == [
        "config.yaml.incomplete",
        "final_grid_rep000.txt.incomplete",
        "metrics.csv.incomplete",
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_cmd_sweep_failure_mid_table_leaves_no_final_file(tmp_path, monkeypatch, workers):
    import latticecoop.sweep as sweep_module

    aggregate = sweep_module.aggregate
    cells = []

    def failing_aggregate(*args):
        if cells:
            raise OSError("disk full")  # the second cell fails
        cells.append(aggregate(*args))
        return cells[-1]

    monkeypatch.setattr(sweep_module, "aggregate", failing_aggregate)
    path = write_config(tmp_path, SWEEP_CONFIG)
    assert main(["sweep", "--config", str(path), "--workers", str(workers)]) == EXIT_IO
    (run_dir,) = run_dirs(tmp_path)
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["config.yaml.incomplete", "metadata.json.incomplete", "sweep.csv.incomplete"]
    with open(run_dir / "sweep.csv.incomplete", newline="") as fh:
        assert len(list(csv.reader(fh))) == 2  # header and the first cell's row


def test_cmd_run_unwritable_output_fails_before_any_run(tmp_path, monkeypatch):
    import latticecoop.cli as cli_module

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the output directory was written")

    monkeypatch.setattr(cli_module, "run_replicates", no_run)
    (tmp_path / "runs").write_text("a file where the output directory should go")
    path = write_config(tmp_path, RUN_CONFIG)
    assert main(["run", "--config", str(path)]) == EXIT_IO


def test_cmd_run_seed_override_changes_stochastic_output(tmp_path, capsys):
    fermi_cfg = RUN_CONFIG.replace(
        "kind: deterministic", "kind: fermi\n  K: 0.3\n  mu: 0.02"
    )
    path = write_config(tmp_path, fermi_cfg)
    assert main(["run", "--config", str(path), "--seed", "1"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", "--config", str(path), "--seed", "2"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first != second


def test_cmd_run_missing_field_exits_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "model: {side_length: 10, b: 1.8}\nscheme: {kind: neb, n_c: 3}\n"
        "rule: {kind: deterministic}\n"
    )
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "scheme.theta" in capsys.readouterr().err


DETERMINISTIC = "{kind: deterministic}"


@pytest.mark.parametrize(
    "model, scheme, expected, rule",
    [
        ("{side_length: 2, b: 1.8}", "{kind: none}", ("model", "side_length"), DETERMINISTIC),
        (
            "{side_length: 10, b: 1.8, initial_coop_probability: 1.5}",
            "{kind: none}",
            ("model", "initial_coop_probability"),
            DETERMINISTIC,
        ),
        (
            "{side_length: 10, b: 1.8}",
            "{kind: neb, n_c: 3, theta: .nan}",
            ("scheme", "theta"),
            DETERMINISTIC,
        ),
        (
            "{side_length: 10, b: 1.8}",
            "{kind: neb, n_c: 3, theta: -1}",
            ("scheme", "theta"),
            DETERMINISTIC,
        ),
        ("{side_length: 10, b: 1.8}", "{kind: none}", ("rule", "K"), "{kind: fermi, K: 0}"),
        ("{side_length: 10, b: 3}", "{kind: none}", ("model", "temptation b"), DETERMINISTIC),
    ],
)
def test_cmd_run_invalid_value_exits_config(tmp_path, capsys, model, scheme, expected, rule):
    path = tmp_path / "bad.yaml"
    path.write_text(f"model: {model}\nscheme: {scheme}\nrule: {rule}\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(word in err for word in expected), err


HUGE = "9" * 400  # a YAML integer too large for a float


@pytest.mark.parametrize(
    "model, scheme, prefix",
    [
        (f"{{side_length: 10, b: {HUGE}}}", "{kind: none}", "model: b "),
        ("{side_length: 10, b: 1.8}", f"{{kind: neb, n_c: 3, theta: {HUGE}}}", "scheme: theta "),
        ("{side_length: 10, b: 1.8}", f"{{kind: pop, p_c: {HUGE}, theta: 3.0}}", "scheme: p_c "),
    ],
)
def test_cmd_run_integer_too_large_for_a_float_exits_config(
    tmp_path, capsys, model, scheme, prefix
):
    path = tmp_path / "bad.yaml"
    path.write_text(f"model: {model}\nscheme: {scheme}\nrule: {{kind: deterministic}}\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {prefix}"), err


def test_cmd_run_side_length_too_large_exits_config_before_writing(tmp_path, capsys):
    # the Fermi draw of Z = L * L rows of three float64 must stay addressable
    out = tmp_path / "runs"
    path = tmp_path / "bad.yaml"
    path.write_text(
        f"model: {{side_length: {HUGE}, b: 1.8}}\nscheme: {{kind: none}}\n"
        f"rule: {{kind: fermi, K: 0.3}}\noutput: {{directory: {out}}}\n"
    )
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: model: side_length must be in [3, {MAX_SIDE_LENGTH}]"), err
    assert not out.exists()


def test_cmd_run_unreadable_config_exits_io(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.yaml")]) == EXIT_IO


def test_cmd_run_non_utf8_config_exits_config(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"\xff\xfe" + RUN_CONFIG.format(out=tmp_path / "runs").encode())
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "config error: config: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cmd_run_reads_utf8_config_whatever_the_locale(tmp_path):
    # Without UTF-8 mode the C locale's default text encoding is ASCII.
    path = write_config(tmp_path, "# grille à 10×10\n" + RUN_CONFIG)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "latticecoop.cli", "run", "--config", str(path), "--workers", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    (run_dir,) = run_dirs(tmp_path)
    assert load_config(run_dir / "config.yaml") == load_config(path)


def test_cmd_sweep_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, SWEEP_CONFIG)
    assert main(["sweep", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cell 4/4" in out
    (run_dir,) = run_dirs(tmp_path)
    assert (run_dir / "metadata.json").exists()
    assert not (run_dir / "sweep.csv.incomplete").exists()
    with open(run_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # header + |theta| * |threshold|
    assert rows[0][0] == "theta"


def test_cmd_sweep_rejects_duplicates(tmp_path, capsys):
    bad = SWEEP_CONFIG.replace("[4.5, 5.3]", "[4.5, 4.5]")
    path = write_config(tmp_path, bad)
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert "strictly increasing" in capsys.readouterr().err


def test_cmd_sweep_rejects_empty_lists(tmp_path, capsys):
    bad = SWEEP_CONFIG.replace("[4.5, 5.3]", "[]")
    path = write_config(tmp_path, bad)
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG


def test_cmd_sweep_without_sweep_section(tmp_path):
    path = write_config(tmp_path, RUN_CONFIG)
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "text, message",
    [
        ("model: [1", "config: invalid YAML ("),
        ("", "config: document is empty"),
        ("- model", "config: top level must be a mapping of sections"),
        ("model: [10, 1.8]\nscheme: {kind: none}\n", "model: must be a mapping, got list"),
        (
            "model: {side_length: 8, b: 1.8}\nscheme: {kind: neb, theta: 5.3}\n"
            "rule: {kind: deterministic}\nsweep: {theta_values: [5.3], threshold_values: [3]}\n",
            "scheme.theta: not allowed alongside a sweep section (",
        ),
        (
            "model: {side_length: 8, b: 1.8}\nscheme: {kind: none}\n"
            "rule: {kind: deterministic}\nprotocol: {replicates: 0}\n",
            "protocol: replicates must be >= 1, got 0",
        ),
    ],
)
def test_cmd_run_malformed_config_exits_config(tmp_path, capsys, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err


def test_cmd_run_on_a_sweep_config_exits_config(tmp_path, capsys):
    path = write_config(tmp_path, SWEEP_CONFIG)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: scheme: set by the sweep section (use the sweep command)\n"
    assert not (tmp_path / "runs").exists()


def test_cmd_run_rejects_a_negative_seed(tmp_path, capsys):
    path = write_config(tmp_path, RUN_CONFIG)
    assert main(["run", "--config", str(path), "--seed", "-1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: --seed: seed must be in [0, 2^64), got -1\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, template", [("run", RUN_CONFIG), ("sweep", SWEEP_CONFIG)])
def test_cmd_rejects_workers_below_one(tmp_path, capsys, command, template):
    path = write_config(tmp_path, template)
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--workers", workers])
        assert exc.value.code == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()  # rejected before any output directory


def test_cmd_verify_passes_for_valid_b(capsys):
    assert main(["verify", "1.8", "--points", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "b=1.8" in out and "OK" in out


def test_cmd_verify_rejects_bad_b(capsys):
    assert main(["verify", "0.9"]) == EXIT_CONFIG


def test_cmd_verify_rejects_empty_theta_grid(capsys):
    for points in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "1.8", "--points", points])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --points: must be >= 1" in capsys.readouterr().err


def test_cmd_verify_reports_each_contradiction(capsys, monkeypatch):
    # a closed form that disagrees with every simulated step: one line per theta
    real = analysis.classify_pop_regime

    def flipped(b, theta):
        stable = real(b, theta) == MicroOutcome.STABLE
        return MicroOutcome.C_CONVERTS if stable else MicroOutcome.STABLE

    monkeypatch.setattr(analysis, "classify_pop_regime", flipped)
    assert main(["verify", "1.8", "--points", "20"]) == EXIT_FAIL
    header, *lines = capsys.readouterr().out.splitlines()
    checked = int(re.search(r"checked=(\d+) ", header)[1])
    assert checked > 0 and header.endswith(f"[{checked} CONTRADICTIONS]")
    assert len(lines) == checked
    line = r"  contradiction: b=1\.8 theta=\S+ expected=(\w+) observed=(\w+)"
    for text in lines:
        expected, observed = re.fullmatch(line, text).groups()
        assert expected != observed


def test_cmd_verify_fails_when_nothing_is_checked(capsys):
    # one point is the interval's midpoint 4b - 3, a boundary, so it is skipped
    assert main(["verify", "1.8", "--points", "1"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "checked=0 skipped=1 [NOTHING CHECKED]" in out


def test_cmd_snapshot_round_trip(tmp_path, capsys):
    g = random_grid(6, 0.5, np.random.default_rng(3))
    path = tmp_path / "grid.txt"
    path.write_text(format_snapshot(g))
    assert main(["snapshot", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == format_snapshot(g)


def test_cmd_snapshot_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("L=3\nCCC\nCC\nCCC\n")
    assert main(["snapshot", str(path)]) == EXIT_CONFIG
    assert main(["snapshot", str(tmp_path / "missing.txt")]) == EXIT_IO


def test_cmd_snapshot_non_utf8_file_exits_config(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    path.write_bytes(b"\xff\xfe")
    assert main(["snapshot", str(path)]) == EXIT_CONFIG
    assert f"config error: snapshot {path}: not UTF-8 text" in capsys.readouterr().err
