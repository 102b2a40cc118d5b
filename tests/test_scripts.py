"""Smoke tests of the experiment scripts in ``scripts/`` at a tiny lattice.

Each script runs in a fresh interpreter, as a user would start it, so a
change to the package API that a script still relies on fails here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from latticecoop.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (its --out under tmp_path, the files it must write there)
CASES = {
    "neb_cost_comparison.py": ("costs.csv", ["costs.csv"]),
    "pop_vs_neb_heatmaps.py": (
        "heatmaps",
        [f"heatmaps/{kind}_sweep{suffix}" for kind in ("pop", "neb")
         for suffix in (".csv", ".metadata.json")],
    ),
    "stochastic_typical_runs.py": (
        "stochastic",
        ["stochastic/neb3_metrics.csv", "stochastic/pop_full_metrics.csv"],
    ),
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs_and_writes_outputs(script, tmp_path):
    out, expected = CASES[script]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--side-length", "10", "--replicates", "1",
         "--out", str(tmp_path / out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in expected:
        path = tmp_path / name
        assert path.is_file() and path.stat().st_size > 0, f"{name} missing or empty"


# every script: arguments the CLI or a config dataclass would reject
BAD_ARGUMENTS = [
    (script, args)
    for script in sorted(CASES)
    for args in (["--workers", "0"], ["--replicates", "0"], ["--side-length", "2"], ["--b", "3"])
] + [
    ("neb_cost_comparison.py", ["--eps", "0"]),
    ("stochastic_typical_runs.py", ["--theta", "-1"]),
    ("stochastic_typical_runs.py", ["--k", "0"]),
]


@pytest.mark.parametrize(
    "script, args", BAD_ARGUMENTS, ids=[f"{s}:{' '.join(a)}" for s, a in BAD_ARGUMENTS]
)
def test_script_rejects_bad_arguments_with_exit_2(script, args, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--side-length", "10", "--replicates", "1",
         "--out", str(tmp_path / "out"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:], proc.stderr
    assert not any(tmp_path.iterdir())


# script -> (the function it calls once per output group, its --out under tmp_path)
INTERRUPTED = {
    "neb_cost_comparison.py": ("cost_comparison", "out/costs.csv"),
    "pop_vs_neb_heatmaps.py": ("write_sweep", "out"),
    "stochastic_typical_runs.py": ("run_replicates", "out"),
}


@pytest.mark.parametrize("script", sorted(INTERRUPTED))
def test_interrupted_script_leaves_only_incomplete_files(script, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(script.removesuffix(".py"), SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # undo the script's path insert
    spec.loader.exec_module(module)
    call_name, out = INTERRUPTED[script]
    run_call = getattr(module, call_name)
    calls = []

    def second_call_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return run_call(*args, **kwargs)

    monkeypatch.setattr(module, call_name, second_call_fails)
    with pytest.raises(RuntimeError, match="interrupted"):
        module.main(["--side-length", "10", "--replicates", "1", "--out", str(tmp_path / out)])
    written = sorted(path.name for path in (tmp_path / "out").rglob("*"))
    assert written and all(name.endswith(".incomplete") for name in written), written


# the heatmap script's light pop grid, as a config for ``latticecoop sweep``
HEATMAP_POP_CONFIG = """
model: {{side_length: 10, b: 1.8}}
scheme: {{kind: pop}}
rule: {{kind: deterministic}}
protocol: {{generations: 200, measure_window: 50, replicates: 1, base_seed: 2024}}
output: {{directory: {out}, label: pop}}
sweep:
  theta_values: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
  threshold_values: [0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
"""


def test_heatmap_script_and_cli_sweep_write_the_same_table(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "pop_vs_neb_heatmaps.py"), "--side-length", "10",
         "--replicates", "1", "--out", str(tmp_path / "heatmaps")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    config = tmp_path / "pop.yaml"
    config.write_text(HEATMAP_POP_CONFIG.format(out=tmp_path / "cli"))
    assert main(["sweep", "--config", str(config), "--workers", "1"]) == EXIT_OK
    (cli_table,) = (tmp_path / "cli").glob("*/sweep.csv")
    assert cli_table.read_bytes() == (tmp_path / "heatmaps" / "pop_sweep.csv").read_bytes()


def test_stochastic_runs_base_seed_sets_the_run_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "stochastic_typical_runs.py"), "--side-length", "10",
             "--replicates", "1", "--base-seed", seed, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "neb3_metrics.csv").read_bytes())
    assert outputs[0] != outputs[1]
