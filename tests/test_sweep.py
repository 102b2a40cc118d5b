import csv
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from latticecoop.dynamics import Deterministic
from latticecoop.engine import RunConfig, derive_seed, run
from latticecoop.game import PayoffParams
from latticecoop.interference import Neb, NoInterference
from latticecoop.sweep import ARTIFACT_VERSION, SweepSpec, run_sweep, write_sweep


def base_config(**kw):
    defaults = dict(
        side_length=10,
        payoff=PayoffParams(b=1.8),
        scheme=NoInterference(),
        rule=Deterministic(),
        generations=20,
        measure_window=10,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def spec(**kw):
    defaults = dict(
        base=base_config(seed=77),
        scheme_kind="neb",
        theta_values=(4.5, 5.3),
        threshold_values=(2.0, 3.0),
        replicates=2,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(theta_values=())
    with pytest.raises(ValueError):
        spec(theta_values=(5.3, 4.5))  # unsorted
    with pytest.raises(ValueError):
        spec(theta_values=(4.5, 4.5))  # duplicate cell coordinates
    with pytest.raises(ValueError):
        spec(theta_values=(0.0, 4.5))
    with pytest.raises(ValueError):
        spec(threshold_values=(2.5,))  # non-integer n_c
    with pytest.raises(ValueError):
        spec(scheme_kind="pop", threshold_values=(0.5, 1.5))  # p_c out of range
    with pytest.raises(ValueError):
        spec(scheme_kind="neb_i", threshold_values=(0.1, 0.5))  # needs 1 theta
    with pytest.raises(ValueError):
        spec(replicates=0)
    with pytest.raises(ValueError):
        spec(scheme_kind="nope")
    with pytest.raises(ValueError):
        spec(theta_values=(4.5, float("inf")))  # a later theta is checked up front
    with pytest.raises(ValueError):
        spec(scheme_kind="none")  # no threshold axis to sweep
    for placeholder in (float("nan"), float("inf")):  # theta never reaches NebI, so checked here
        with pytest.raises(ValueError):
            spec(scheme_kind="neb_i", theta_values=(placeholder,), threshold_values=(0.1,))
    spec(scheme_kind="neb_i", theta_values=(1.0,), threshold_values=(0.1, 0.5))


def test_single_cell_single_replicate_equals_engine_run():
    table = run_sweep(
        spec(base=base_config(seed=9), theta_values=(5.3,), threshold_values=(3.0,), replicates=1)
    )
    assert len(table) == 1
    cell = table[0]
    # documented derivation: (base seed, theta bits, threshold bits, replicate)
    key = lambda v: int(np.float64(v).view(np.uint64))
    direct = run(
        replace(
            base_config(),
            scheme=Neb(n_c=3, theta=5.3),
            seed=derive_seed(9, key(5.3), key(3.0), 0),
        )
    )
    assert cell.mean_coop_fraction == direct.stationary_coop_fraction
    assert cell.mean_total_cost == direct.total_cost
    assert cell.stderr_coop == 0.0


def test_sweep_ordering_lexicographic():
    table = run_sweep(spec())
    assert [(c.theta, c.threshold) for c in table] == [
        (4.5, 2.0),
        (4.5, 3.0),
        (5.3, 2.0),
        (5.3, 3.0),
    ]


def test_cell_independence():
    # removing a theta value does not change the remaining cells' numbers
    full = run_sweep(spec())
    reduced = run_sweep(spec(theta_values=(5.3,)))
    kept = {(c.theta, c.threshold): c for c in full if c.theta == 5.3}
    for cell in reduced:
        other = kept[(cell.theta, cell.threshold)]
        assert cell == other


def test_sweep_reproducible():
    assert run_sweep(spec()) == run_sweep(spec())


def test_worker_count_invariance():
    assert run_sweep(spec(), workers=1) == run_sweep(spec(), workers=2)


def test_progress_callback_sees_every_cell():
    seen = []
    run_sweep(spec(), progress=lambda done, total, cell: seen.append((done, total)))
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


def test_sweep_aggregates_each_cell_before_running_the_next(monkeypatch):
    import latticecoop.engine as engine

    ran = []
    monkeypatch.setattr(engine, "run", lambda config, run=engine.run: ran.append(config) or run(config))
    seen = []
    run_sweep(spec(), progress=lambda done, total, cell: seen.append(len(ran)))
    assert seen == [2, 4, 6, 8]  # two replicates per cell, run only as each cell is read


def test_neb_i_sweep_uses_eps_thresholds():
    table = run_sweep(
        spec(scheme_kind="neb_i", theta_values=(1.0,), threshold_values=(0.1, 0.5))
    )
    assert [(c.theta, c.threshold) for c in table] == [(1.0, 0.1), (1.0, 0.5)]


def test_neb_threshold_landscape():
    # above the n_c=3 escape threshold, only watching-the-frontier levels
    # n_c >= 3 reach full cooperation; lower levels sustain a partial state
    s = spec(
        base=base_config(side_length=50, generations=100, measure_window=20, seed=14),
        theta_values=(5.3,),
        threshold_values=(1.0, 2.0, 3.0, 4.0),
        replicates=3,
    )
    by_level = {cell.threshold: cell.mean_coop_fraction for cell in run_sweep(s)}
    assert by_level[3.0] == 1.0 and by_level[4.0] == 1.0
    assert by_level[1.0] < 1.0 and by_level[2.0] < 1.0
    assert by_level[1.0] < by_level[2.0]


def test_metadata_sidecar(tmp_path):
    # provenance only: the parameters are the experiment's, in its config.yaml
    path = tmp_path / "metadata.json"
    before = time.time()
    write_sweep(spec(replicates=1), path, tmp_path / "sweep.csv")
    meta = json.loads(path.read_text())
    assert sorted(meta) == ["artifact_version", "cost_normalisation", "created_unix"]
    assert meta["artifact_version"] == ARTIFACT_VERSION
    assert before <= meta["created_unix"] <= time.time()
    assert meta["cost_normalisation"] == "raw totals (no 1e7 division applied)"
    assert path.read_text().endswith("}\n")


def test_write_sweep(tmp_path):
    s = spec()
    metadata, table = tmp_path / "metadata.json", tmp_path / "sweep.csv"
    on_disk = []

    def progress(done, total, cell):
        assert metadata.exists()  # the sidecar comes first
        with open(table, newline="") as fh:
            on_disk.append(list(csv.reader(fh)))  # this cell's row is already flushed

    cells = write_sweep(s, metadata, table, workers=1, progress=progress)
    assert cells == run_sweep(s)
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "theta", "threshold", "mean_coop_fraction", "stderr_coop",
        "mean_total_cost", "stderr_cost", "n_replicates",
    ]
    assert on_disk == [rows[: 2 + i] for i in range(len(cells))]
    for row, cell in zip(rows[1:], cells):
        assert [float(value) for value in row[:6]] == [
            cell.theta, cell.threshold, cell.mean_coop_fraction, cell.stderr_coop,
            cell.mean_total_cost, cell.stderr_cost,
        ]
        assert row[6] == "2"
    assert sorted(json.loads(metadata.read_text())) == [  # no parameter of the sweep
        "artifact_version", "cost_normalisation", "created_unix",
    ]
