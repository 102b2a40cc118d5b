from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecoop.analysis import (
    MicroOutcome,
    aggregate,
    classify_pop_regime,
    cost_comparison,
    lone_defector_grid,
    microscopic_check,
    thresholds,
    verify_thresholds,
)
from latticecoop.dynamics import Deterministic, Fermi
from latticecoop.engine import RunConfig, run_replicates
from latticecoop.game import PayoffParams
from latticecoop.grid import coop_count
from latticecoop.interference import Neb, Pop


def test_thresholds_at_reference_temptation():
    report = thresholds(1.8)
    assert report.pop_escape_threshold == pytest.approx(4.2)
    assert report.neb3_escape_threshold == pytest.approx(5.2)
    low, high = report.pop_stable_band
    assert (low, high) == (pytest.approx(3.2), pytest.approx(4.2))


def test_thresholds_edge_values():
    assert thresholds(2.0).pop_escape_threshold == 5.0
    assert thresholds(2.0).neb3_escape_threshold == 6.0
    assert thresholds(2.0).pop_stable_band[0] == 4.0
    near_one = thresholds(1.0 + 1e-9)
    assert near_one.pop_stable_band[0] == pytest.approx(0.0, abs=1e-8)
    assert near_one.pop_escape_threshold == pytest.approx(1.0)
    assert near_one.neb3_escape_threshold == pytest.approx(2.0)


def test_thresholds_ordering_property():
    for b in np.linspace(1.01, 2.0, 25):
        rep = thresholds(float(b))
        assert rep.pop_stable_band[0] < rep.pop_escape_threshold < rep.neb3_escape_threshold
        assert rep.pop_stable_band[0] > 0 or b <= 1.0


def test_thresholds_rejects_out_of_range():
    for b in (0.9, 1.0, 2.5):
        with pytest.raises(ValueError):
            thresholds(b)


def test_lone_defector_grid_shape():
    g = lone_defector_grid(9)
    assert coop_count(g) == 80
    assert g.cells[4, 4] == 0


def test_microscopic_check_regimes():
    assert microscopic_check(1.8, Pop(p_c=1.0, theta=4.3)) == MicroOutcome.D_CONVERTS
    assert microscopic_check(1.8, Pop(p_c=1.0, theta=4.1)) == MicroOutcome.STABLE
    assert microscopic_check(1.8, Pop(p_c=1.0, theta=3.0)) == MicroOutcome.C_CONVERTS


def test_classify_pop_regime_directions():
    assert classify_pop_regime(1.8, 4.21) == MicroOutcome.D_CONVERTS
    assert classify_pop_regime(1.8, 4.2) == MicroOutcome.STABLE  # theta <= 4b-3 stays
    assert classify_pop_regime(1.8, 3.21) == MicroOutcome.STABLE
    assert classify_pop_regime(1.8, 3.1) == MicroOutcome.C_CONVERTS


@pytest.mark.parametrize("b", [1.4, 1.6, 1.8, 2.0])
def test_verify_thresholds_across_b(b):
    report = verify_thresholds(b, n_points=50)
    assert report.passed, report.mismatches
    assert len(report.checked_thetas) + len(report.skipped_thetas) == 50
    # the guard band only drops a handful of near-boundary points
    assert len(report.skipped_thetas) <= 6


def test_verify_thresholds_needs_a_checked_point():
    with pytest.raises(ValueError, match="n_points"):
        verify_thresholds(1.8, n_points=0)
    lone = verify_thresholds(1.8, n_points=1)  # the single point is the boundary 4b - 3
    assert lone.checked_thetas == () and not lone.mismatches and not lone.passed


def test_verify_thresholds_scaling_invariance():
    # the one-step classification cannot depend on the lattice size
    small = verify_thresholds(1.8, n_points=20, side_length=7)
    large = verify_thresholds(1.8, n_points=20, side_length=15)
    assert small.passed and large.passed


def test_aggregate_single_result():
    cfg = RunConfig(
        side_length=10,
        payoff=PayoffParams(b=1.8),
        scheme=Neb(n_c=3, theta=5.3),
        rule=Deterministic(),
    )
    [result] = run_replicates(replace(cfg, seed=3), 1)
    cell = aggregate([result], theta=5.3, threshold=3)
    assert cell.mean_coop_fraction == result.stationary_coop_fraction
    assert cell.mean_total_cost == result.total_cost
    assert cell.stderr_coop == 0.0
    assert cell.stderr_cost == 0.0
    assert cell.n_replicates == 1


def test_aggregate_mean_and_stderr():
    class Fake:
        def __init__(self, coop, cost):
            self.stationary_coop_fraction = coop
            self.total_cost = cost

    cell = aggregate([Fake(0.4, 10.0), Fake(0.6, 30.0)], theta=1.0, threshold=0.5)
    assert cell.mean_coop_fraction == pytest.approx(0.5)
    assert cell.mean_total_cost == pytest.approx(20.0)
    # unbiased sample std over sqrt(n)
    assert cell.stderr_coop == pytest.approx(np.std([0.4, 0.6], ddof=1) / np.sqrt(2))
    assert cell.stderr_cost == pytest.approx(np.std([10.0, 30.0], ddof=1) / np.sqrt(2))


@settings(max_examples=30)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 100)), min_size=2, max_size=8), st.randoms())
def test_aggregate_permutation_invariance(values, rnd):
    class Fake:
        def __init__(self, coop, cost):
            self.stationary_coop_fraction = coop
            self.total_cost = cost

    results = [Fake(c, k) for c, k in values]
    shuffled = list(results)
    rnd.shuffle(shuffled)
    a = aggregate(results, 1.0, 1.0)
    b = aggregate(shuffled, 1.0, 1.0)
    assert a.mean_coop_fraction == pytest.approx(b.mean_coop_fraction)
    assert a.stderr_cost == pytest.approx(b.stderr_cost)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([], 1.0, 1.0)


def test_cost_comparison_deterministic_and_labelled():
    pay = PayoffParams(b=1.8)
    configs = [
        ("neb3", RunConfig(side_length=12, payoff=pay, scheme=Neb(n_c=3, theta=5.3), rule=Deterministic())),
        ("neb4", RunConfig(side_length=12, payoff=pay, scheme=Neb(n_c=4, theta=4.3), rule=Deterministic())),
    ]
    configs = [(label, replace(cfg, seed=1)) for label, cfg in configs]
    table_a = cost_comparison(configs, n=3)
    table_b = cost_comparison(configs, n=3)
    assert table_a == table_b
    assert [label for label, _ in table_a] == ["neb3", "neb4"]


def test_cost_comparison_worker_count_invariance():
    pay = PayoffParams(b=1.8)
    configs = [
        ("pop", RunConfig(side_length=12, payoff=pay, scheme=Pop(p_c=0.6, theta=2.0), rule=Fermi(K=0.3))),
        ("neb3", RunConfig(side_length=12, payoff=pay, scheme=Neb(n_c=3, theta=5.3), rule=Deterministic())),
    ]
    configs = [(label, replace(cfg, seed=2)) for label, cfg in configs]
    assert cost_comparison(configs, n=3, workers=1) == cost_comparison(configs, n=3, workers=2)


def test_cost_comparison_seeds_each_label_from_its_own_config():
    cfg = RunConfig(
        side_length=12,
        payoff=PayoffParams(b=1.8),
        scheme=Pop(p_c=0.6, theta=2.0),
        rule=Fermi(K=0.3, mu=0.01),
        generations=20,
        measure_window=5,
    )
    table = cost_comparison([("a", replace(cfg, seed=1)), ("b", replace(cfg, seed=2))], n=2)
    assert table == [
        (label, float(np.mean([r.total_cost for r in run_replicates(replace(cfg, seed=seed), 2)])))
        for label, seed in (("a", 1), ("b", 2))
    ]
    assert table[0][1] != table[1][1]


def test_cost_comparison_rejects_duplicate_labels():
    pay = PayoffParams(b=1.8)
    cfg = RunConfig(side_length=10, payoff=pay, scheme=Neb(n_c=3, theta=5.3), rule=Deterministic())
    with pytest.raises(ValueError):
        cost_comparison([("x", cfg), ("x", cfg)], n=1)
