"""Smoke tests of the experiment script in ``scripts/`` at a tiny lattice.

``neb_cost_comparison.py`` is the one paper experiment that is a script
rather than a config for ``latticecoop run`` or ``sweep``. It runs in a fresh
interpreter, as a user would start it, so a change to the package API that
it still relies on fails here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script -> (its --out under tmp_path, the files it must write there)
CASES = {
    "neb_cost_comparison.py": ("costs.csv", ["costs.csv"]),
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
