"""Smoke tests of the experiment scripts in ``scripts/`` at a tiny lattice.

Each script runs in a fresh interpreter, as a user would start it, so a
change to the package API that a script still relies on fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

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
