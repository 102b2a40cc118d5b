"""Golden digests: pin RunResults, data files and config identities across versions.

Each case's full ``RunResult`` (records, stationary fraction, total cost,
termination, cycle period, final-grid bytes) is reduced to a blake2b digest
and compared with ``golden/runs.json``; the bundled ``configs/*.yaml`` pin
their ``config_hash`` and emitted YAML in ``golden/configs.json``. The data
files of small ``latticecoop run`` and ``sweep`` invocations, at 1 and 2
workers, and a ``cost_comparison`` table are pinned in ``golden/cli.json``.
A change to any digest is a behaviour change. Re-record (only for an
intended one) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import fnmatch
import hashlib
import io
import json
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from latticecoop.analysis import cost_comparison
from latticecoop.cli import EXIT_OK, main
from latticecoop.config import config_hash, emit_config, load_config
from latticecoop.dynamics import Deterministic, Fermi
from latticecoop.engine import RunConfig, RunResult, run
from latticecoop.game import PayoffParams
from latticecoop.interference import Neb, NebI, NebII, NoInterference, Pop

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parents[1] / "configs"

SCHEMES = {
    "none": NoInterference(),
    "pop": Pop(p_c=0.6, theta=2.0),
    "neb": Neb(n_c=3, theta=3.0),
    "neb_i": NebI(eps=0.5),
    "neb_ii": NebII(eps=0.5),
}
RULES = {"det": Deterministic(), "fermi": Fermi(K=0.3), "fermi_mu": Fermi(K=0.3, mu=0.01)}
# Deterministic cases where an invested cooperator's score ties a defector's:
# C(k) + 1 == D(k') = 2k' for (k, k') = (1, 1) and (3, 2) at b=2.0, and
# C(k) + 0.5 == D(k') = 1.5k' for (1, 1) and (4, 3) at b=1.5.
TIE_CASES = {
    "pop_tie-det-b2.0": (Pop(p_c=1.0, theta=1.0), 2.0),
    "neb_tie-det-b1.5": (Neb(n_c=4, theta=0.5), 1.5),
}


def _config(scheme, rule, b: float) -> RunConfig:
    return RunConfig(
        side_length=30,
        payoff=PayoffParams(b=b),
        scheme=scheme,
        rule=rule,
        generations=60,
        measure_window=20,
        seed=2021,
    )


def _cases() -> dict[str, RunConfig]:
    cases = {}
    for scheme_name, scheme in SCHEMES.items():
        for rule_name, rule in RULES.items():
            # mutation only at the reference temptation, to keep the suite small
            for b in (1.8,) if rule_name == "fermi_mu" else (1.5, 1.8, 2.0):
                cases[f"{scheme_name}-{rule_name}-b{b}"] = _config(scheme, rule, b)
    for name, (scheme, b) in TIE_CASES.items():
        cases[name] = _config(scheme, Deterministic(), b)
    return cases


def result_digest(result: RunResult) -> str:
    h = hashlib.blake2b(digest_size=16)
    for rec in result.records:
        h.update(struct.pack("<qqdd", rec.generation, rec.coop_count,
                             rec.generation_cost, rec.cumulative_cost))
    h.update(struct.pack("<dd", result.stationary_coop_fraction, result.total_cost))
    h.update(f"{result.termination.value}|{result.cycle_period}|".encode())
    h.update(result.final_grid.side_length.to_bytes(8, "little"))
    h.update(result.final_grid.cells.tobytes())
    return h.hexdigest()


def config_record(path: Path) -> dict[str, str]:
    config = load_config(path)
    emitted = emit_config(config).encode()
    return {"config_hash": config_hash(config),
            "emitted_yaml_blake2b": hashlib.blake2b(emitted, digest_size=16).hexdigest()}


# CLI invocations whose data files are pinned: (command, config text).
CLI_CASES = {
    "run-pop-fermi": (
        "run",
        "model: {side_length: 10, b: 1.8}\n"
        "scheme: {kind: pop, p_c: 0.6, theta: 2.0}\n"
        "rule: {kind: fermi, K: 0.3, mu: 0.01}\n"
        "protocol: {generations: 20, measure_window: 5, replicates: 3, base_seed: 11}\n",
    ),
    "sweep-pop-det": (
        "sweep",
        "model: {side_length: 12, b: 1.8}\n"
        "scheme: {kind: pop}\n"
        "rule: {kind: deterministic}\n"
        "protocol: {generations: 20, measure_window: 5, replicates: 2, base_seed: 7}\n"
        "sweep: {theta_values: [2.0, 4.5], threshold_values: [0.5, 0.85, 1.0]}\n",
    ),
    "sweep-neb-fermi": (
        "sweep",
        "model: {side_length: 12, b: 1.8}\n"
        "scheme: {kind: neb}\n"
        "rule: {kind: fermi, K: 0.3}\n"
        "protocol: {generations: 20, measure_window: 5, replicates: 3, base_seed: 7}\n"
        "sweep: {theta_values: [3.0, 5.3], threshold_values: [2, 3]}\n",
    ),
}
DATA_FILES = ("metrics.csv", "final_grid_*.txt", "sweep.csv")


def cli_record(case: str, workers: int, work: Path) -> dict[str, str]:
    """Digest of each data file one CLI invocation writes, by file name."""
    command, text = CLI_CASES[case]
    config = work / f"{case}.yaml"
    config.write_text(text)
    out = work / f"{case}-w{workers}"
    argv = [command, "--config", str(config), "--out", str(out), "--workers", str(workers)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    (run_dir,) = out.iterdir()
    return {
        path.name: hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        for path in sorted(run_dir.iterdir())
        if any(fnmatch.fnmatch(path.name, pattern) for pattern in DATA_FILES)
    }


def cost_table_digest(workers: int = 1) -> str:
    labelled = [
        (name, replace(_config(SCHEMES[name], Fermi(K=0.3), 1.8), seed=31)) for name in SCHEMES
    ]
    table = cost_comparison(labelled, n=3, workers=workers)
    text = "".join(f"{label}|{cost!r}\n" for label, cost in table)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_result_digest(case):
    assert result_digest(run(CASES[case])) == _load("runs.json")[case]


def test_golden_covers_every_case():
    assert sorted(_load("runs.json")) == sorted(CASES)
    assert sorted(_load("configs.json")) == sorted(p.name for p in CONFIGS.glob("*.yaml"))
    assert sorted(_load("cli.json")) == sorted([*CLI_CASES, "cost_comparison"])


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_config_hash_and_emitted_yaml(name):
    assert config_record(CONFIGS / name) == _load("configs.json")[name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_data_file_digests(case, workers, tmp_path):
    assert cli_record(case, workers, tmp_path) == _load("cli.json")[case]


@pytest.mark.parametrize("workers", [1, 2])
def test_cost_comparison_digest(workers):
    assert cost_table_digest(workers) == _load("cli.json")["cost_comparison"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    runs = {case: result_digest(run(cfg)) for case, cfg in sorted(CASES.items())}
    configs = {p.name: config_record(p) for p in sorted(CONFIGS.glob("*.yaml"))}
    with tempfile.TemporaryDirectory() as work:
        cli = {case: cli_record(case, 1, Path(work)) for case in sorted(CLI_CASES)}
    cli["cost_comparison"] = cost_table_digest()
    for name, data in (("runs.json", runs), ("configs.json", configs), ("cli.json", cli)):
        (GOLDEN / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(runs)} run digests, {len(configs)} config records and "
          f"{len(cli)} CLI records in {GOLDEN}")
