"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Full-scale parameters throughout (L=100 unless a criterion leaves
the lattice size free, where noted).
"""

import math
import time
from dataclasses import replace

import numpy as np

from latticecoop.analysis import (
    MicroOutcome,
    aggregate,
    cost_comparison,
    microscopic_check,
    verify_thresholds,
)
from latticecoop.dynamics import Deterministic, Fermi
from latticecoop.engine import (
    RunConfig,
    Termination,
    run,
    run_replicates,
    step_generation,
    write_metrics_csv,
)
from latticecoop.game import PayoffParams
from latticecoop.grid import (
    Strategy,
    coop_count,
    format_snapshot,
    parse_snapshot,
    random_grid,
)
from latticecoop.interference import Neb, NebI, NebII, Pop, apply

from conftest import fermi_probability

B = 1.8
PAY = PayoffParams(b=B)


def _report(number: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _budget(number: int, name: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, (
        f"criterion {number} ({name}) runtime {elapsed:.1f}s exceeds budget {budget}s"
    )


def test_criterion_1_microscopic_regimes():
    t0 = time.perf_counter()
    outcomes = {
        theta: microscopic_check(B, Pop(p_c=1.0, theta=theta))
        for theta in (4.3, 4.1, 3.0)
    }
    ok = outcomes == {
        4.3: MicroOutcome.D_CONVERTS,
        4.1: MicroOutcome.STABLE,
        3.0: MicroOutcome.C_CONVERTS,
    }
    elapsed = time.perf_counter() - t0
    _report(1, "lone-defector regimes", ok, elapsed, f"observed={outcomes}")
    _budget(1, "lone-defector regimes", elapsed, 1.0)


def test_criterion_2_neb3_thresholds():
    t0 = time.perf_counter()
    base = RunConfig(side_length=100, payoff=PAY, scheme=Neb(n_c=3, theta=5.3), rule=Deterministic())

    above = run_replicates(replace(base, seed=20_001), 50)
    all_c = all(
        r.termination == Termination.HOMOGENEOUS_C and r.stationary_coop_fraction == 1.0
        for r in above
    )

    below = run_replicates(replace(base, scheme=Neb(n_c=3, theta=5.1), seed=20_002), 50)
    cyclic = sum(
        1
        for r in below
        if r.termination == Termination.CYCLE_DETECTED and r.stationary_coop_fraction < 1.0
    )

    elapsed = time.perf_counter() - t0
    ok = all_c and cyclic >= 45
    _report(
        2,
        "NEB-3 escape threshold",
        ok,
        elapsed,
        f"theta=5.3 all homogeneous_C={all_c}; theta=5.1 cyclic {cyclic}/50",
    )
    _budget(2, "NEB-3 escape threshold", elapsed, 60.0)


def test_criterion_3_neb4_pop_equivalence():
    # the criterion fixes seeds, rules and theta but not the lattice size;
    # L=50 keeps the 120-run comparison quick without loss of generality
    t0 = time.perf_counter()
    mismatches = []
    for rule in (Deterministic(), Fermi(K=0.3)):
        for theta in (2.0, 4.3, 5.5):
            for seed_index in range(10):
                seed = 30_000 + seed_index
                cfg_neb = RunConfig(
                    side_length=50, payoff=PAY, scheme=Neb(n_c=4, theta=theta), rule=rule, seed=seed
                )
                cfg_pop = replace(cfg_neb, scheme=Pop(p_c=1.0, theta=theta))
                if run(cfg_neb) != run(cfg_pop):
                    mismatches.append((type(rule).__name__, theta, seed, "run"))
                # explicit generation-by-generation grid identity
                rng_a = np.random.default_rng(seed)
                rng_b = np.random.default_rng(seed)
                g_a = random_grid(50, 0.5, rng_a)
                g_b = random_grid(50, 0.5, rng_b)
                needs_rng = isinstance(rule, Fermi)
                for _ in range(40):
                    g_a, _ = step_generation(
                        g_a, PAY, Neb(n_c=4, theta=theta), rule, rng_a if needs_rng else None
                    )
                    g_b, _ = step_generation(
                        g_b, PAY, Pop(p_c=1.0, theta=theta), rule, rng_b if needs_rng else None
                    )
                    if g_a != g_b:
                        mismatches.append((type(rule).__name__, theta, seed, "lockstep"))
                        break
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "NEB(n_c=4) == POP(p_c=1.0) trajectories",
        not mismatches,
        elapsed,
        f"mismatches={mismatches or 'none'} over 10 seeds x 3 theta x 2 rules",
    )


def test_criterion_4_cost_ordering():
    t0 = time.perf_counter()
    details = []
    ok = True
    for eps in (0.1, 0.5, 1.0):
        labelled = [
            ("neb3", RunConfig(100, PAY, Neb(n_c=3, theta=4 * B - 2 + eps), Deterministic(), seed=40_000)),
            ("neb4", RunConfig(100, PAY, Neb(n_c=4, theta=4 * B - 3 + eps), Deterministic(), seed=40_000)),
            ("neb_i", RunConfig(100, PAY, NebI(eps=eps), Deterministic(), seed=40_000)),
            ("neb_ii", RunConfig(100, PAY, NebII(eps=eps), Deterministic(), seed=40_000)),
        ]
        table = dict(cost_comparison(labelled, n=50))
        ordered = (
            table["neb3"] < table["neb4"]
            and table["neb_ii"] <= table["neb_i"] <= 1.1 * table["neb3"]
        )
        ok = ok and ordered
        details.append(
            f"eps={eps}: neb3={table['neb3']:.0f} neb4={table['neb4']:.0f} "
            f"neb_i={table['neb_i']:.0f} neb_ii={table['neb_ii']:.0f} ok={ordered}"
        )
    elapsed = time.perf_counter() - t0
    _report(4, "epsilon-sweep cost ordering", ok, elapsed, "; ".join(details))
    _budget(4, "epsilon-sweep cost ordering", elapsed, 300.0)


def test_criterion_5_stochastic_costs():
    t0 = time.perf_counter()
    fermi = Fermi(K=0.3, mu=0.0)
    neb = RunConfig(side_length=100, payoff=PAY, scheme=Neb(n_c=3, theta=3.0), rule=fermi)
    pop = RunConfig(side_length=100, payoff=PAY, scheme=Pop(p_c=1.0, theta=3.0), rule=fermi)
    neb_cost = float(np.mean([r.total_cost for r in run_replicates(replace(neb, seed=50_001), 20)]))
    pop_cost = float(np.mean([r.total_cost for r in run_replicates(replace(pop, seed=50_002), 20)]))
    ratio = pop_cost / neb_cost
    ok = 0.7e5 <= neb_cost <= 7e5 and 0.7e6 <= pop_cost <= 7e6 and ratio >= 5.0
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "stochastic total costs",
        ok,
        elapsed,
        f"neb3={neb_cost:.3g} in [7e4, 7e5], pop={pop_cost:.3g} in [7e5, 7e6], ratio={ratio:.1f}",
    )
    _budget(5, "stochastic total costs", elapsed, 120.0)


def test_criterion_6_pop_needs_high_threshold():
    t0 = time.perf_counter()
    cells = []
    for p_c in (0.5, 0.7, 0.85, 0.95, 1.0):
        cfg = RunConfig(
            side_length=100, payoff=PAY, scheme=Pop(p_c=p_c, theta=4.5), rule=Deterministic()
        )
        results = run_replicates(replace(cfg, seed=60_000), 50)
        cells.append(aggregate(results, theta=4.5, threshold=p_c))
    low_ok = cells[0].mean_coop_fraction < 0.6
    full_ok = cells[-1].mean_coop_fraction == 1.0
    monotone_ok = all(
        a.mean_coop_fraction - b.mean_coop_fraction
        <= 2.0 * math.hypot(a.stderr_coop, b.stderr_coop)
        for a, b in zip(cells, cells[1:])
    )
    ok = low_ok and full_ok and monotone_ok
    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"p_c={c.threshold}: {c.mean_coop_fraction:.3f}+-{c.stderr_coop:.3f}" for c in cells
    )
    _report(6, "POP threshold landscape", ok, elapsed, detail)
    _budget(6, "POP threshold landscape", elapsed, 180.0)


def test_criterion_7_per_generation_cost_windows():
    # As stated, this criterion compares the total interference cost over
    # generations 1-5 against the total over the 5 generations immediately
    # before convergence; the windows must exist and be disjoint, which
    # needs convergence at generation >= 11. At the stated parameters
    # (b=1.8, L=100, theta=5.5/4.5, 50/50 random start, deterministic rule)
    # convergence occurs at generation 3-5 for every seed (120-seed scan), so
    # the stated windows are undefined. The test asserts the criterion as
    # written and is expected to fail; the cost-trend substance it encodes
    # (strictly decreasing per-generation cost for NEB-3, strictly
    # increasing for NEB-4) is verified and passes in
    # test_engine.py::test_per_generation_cost_trends.
    t0 = time.perf_counter()
    seed = 42
    outcomes = {}
    windows_ok = True
    for label, scheme in (("neb3", Neb(n_c=3, theta=5.5)), ("neb4", Neb(n_c=4, theta=4.5))):
        result = run(
            RunConfig(side_length=100, payoff=PAY, scheme=scheme, rule=Deterministic(), seed=seed)
        )
        assert result.termination == Termination.HOMOGENEOUS_C
        costs = [rec.generation_cost for rec in result.records]
        conv = len(result.records) - 1  # generation of the homogeneous record
        early = costs[1:6]
        late = costs[max(0, conv - 5):conv]
        disjoint = conv - 5 >= 6
        windows_ok = windows_ok and disjoint
        outcomes[label] = (costs, conv, sum(early), sum(late), disjoint)
        print(
            f"  {label}: convergence at generation {conv}, per-generation costs="
            f"{[round(c, 1) for c in costs]}, "
            f"sum(gens 1-5)={sum(early):.1f}, sum(last 5 pre-convergence)={sum(late):.1f}, "
            f"windows disjoint={disjoint}"
        )
    trend_detail = (
        "trend substance holds (see test_per_generation_cost_trends); "
        f"stated 5-generation windows undefined: convergence at generations "
        f"{outcomes['neb3'][1]} and {outcomes['neb4'][1]} < 11"
    )
    ok = (
        windows_ok
        and outcomes["neb3"][3] < outcomes["neb3"][2]
        and outcomes["neb4"][3] > outcomes["neb4"][2]
    )
    elapsed = time.perf_counter() - t0
    _report(7, "per-generation cost windows", ok, elapsed, trend_detail)
    _budget(7, "per-generation cost windows", elapsed, 10.0)


def test_criterion_8_property_suite(tmp_path):
    t0 = time.perf_counter()
    checks = {}

    # Fermi identities
    rng = np.random.default_rng(0)
    fs = rng.uniform(-20, 20, size=200)
    checks["fermi_half"] = all(fermi_probability(f, f, 0.3) == 0.5 for f in fs[:50])
    checks["fermi_complement"] = all(
        abs(fermi_probability(a, b, 0.7) + fermi_probability(b, a, 0.7) - 1.0) < 1e-12
        for a, b in zip(fs[:100], fs[100:])
    )
    diffs = np.sort(rng.uniform(-30, 30, size=50))
    probs = [fermi_probability(float(d), 0.0, 0.5) for d in diffs]
    checks["fermi_monotone"] = all(b <= a for a, b in zip(probs, probs[1:]))

    # cost conservation, exact
    cfg = RunConfig(
        side_length=30, payoff=PAY, scheme=Neb(n_c=2, theta=3.0), rule=Deterministic(), seed=5
    )
    result = run(cfg)
    # cumulative cost is accumulated left to right, so plain sum matches exactly
    checks["cost_conservation"] = result.total_cost == sum(
        rec.generation_cost for rec in result.records
    )

    # no defector paid, all schemes: pop and neb pay by code, neb_i and neb_ii per cell
    g = random_grid(30, 0.5, np.random.default_rng(9))
    defectors = g.cells == Strategy.D.value
    checks["no_defector_paid"] = all(
        not np.any(apply(s, g, PAY).surplus[:5] > 0) for s in (
            Pop(p_c=1.0, theta=2.0),
            Pop(p_c=0.3, theta=2.0),
            Neb(n_c=4, theta=2.0),
            Neb(n_c=1, theta=2.0),
        )
    ) and all(
        not np.any(apply(s, g, PAY).surplus[defectors] > 0)
        for s in (NebI(eps=0.2), NebII(eps=0.2))
    )

    # absorption: homogeneous stays homogeneous at zero cost
    hom = run(
        RunConfig(
            side_length=20,
            payoff=PAY,
            scheme=Neb(n_c=4, theta=5.0),
            rule=Fermi(K=0.3, mu=0.0),
            seed=3,
            initial_coop_probability=1.0,
            early_stop_on_homogeneous=False,
            generations=30,
            measure_window=10,
        )
    )
    checks["absorption"] = (
        all(rec.generation_cost == 0.0 and rec.coop_count == 400 for rec in hom.records)
        and coop_count(hom.final_grid) == 400
    )

    # seed determinism: byte-identical CSV across two executions and
    # across worker counts 1 vs 2
    fermi_cfg = RunConfig(
        side_length=30, payoff=PAY, scheme=Neb(n_c=3, theta=5.1), rule=Fermi(K=0.3, mu=0.01),
        generations=40, measure_window=10,
    )
    paths = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        results = run_replicates(replace(fermi_cfg, seed=123), 3, workers=workers)
        path = tmp_path / f"metrics_{tag}.csv"
        write_metrics_csv(path, [(f"rep{i:03d}", r) for i, r in enumerate(results)])
        paths.append(path.read_bytes())
    checks["seed_determinism"] = paths[0] == paths[1] == paths[2]

    # snapshot round-trip
    snap = random_grid(25, 0.4, np.random.default_rng(77))
    checks["snapshot_round_trip"] = parse_snapshot(format_snapshot(snap)) == snap

    elapsed = time.perf_counter() - t0
    ok = all(checks.values())
    _report(8, "property suite", ok, elapsed, str(checks))
    _budget(8, "property suite", elapsed, 30.0)


def test_criterion_9_closed_form_verification():
    t0 = time.perf_counter()
    failures = {}
    for b in (1.4, 1.6, 1.8, 2.0):
        report = verify_thresholds(b, n_points=50)
        if not report.passed:
            failures[b] = report.mismatches
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "one-step outcomes match closed form",
        not failures,
        elapsed,
        f"b in (1.4, 1.6, 1.8, 2.0), 50-point theta grids; failures={failures or 'none'}",
    )
    _budget(9, "one-step outcomes match closed form", elapsed, 30.0)
