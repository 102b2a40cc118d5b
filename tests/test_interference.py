import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecoop import interference
from latticecoop.analysis import lone_defector_grid
from latticecoop.game import PayoffParams, by_code, compute_scores, key_table, score_table
from latticecoop.grid import Grid, Strategy, check_field_types, coop_count, random_grid
from latticecoop.interference import (
    Neb,
    NebI,
    NebII,
    NoInterference,
    Pop,
    apply,
    apply_neb,
    apply_neb_i,
    apply_neb_ii,
    apply_pop,
    flat_payment,
    flat_surplus,
)

from conftest import (
    diamond_lattice,
    flat_surplus_bruteforce,
    grids,
    neb_i_bruteforce,
    neb_ii_bruteforce,
    paid_score_table,
    payoffs,
)

C, D = Strategy.C, Strategy.D


def per_cell(g, out):
    """``out``'s surplus per cell: flat schemes give the ten by code."""
    return by_code(g.code, out.surplus) if out.surplus.shape == (10,) else out.surplus


def make_grid(side, defectors=()):
    cells = np.ones((side, side), dtype=np.uint8)
    for r, c in defectors:
        cells[r, c] = D.value
    return Grid(cells)


def test_scheme_validation():
    with pytest.raises(ValueError):
        Pop(p_c=1.2, theta=1.0)
    with pytest.raises(ValueError):
        Pop(p_c=0.5, theta=0.0)
    with pytest.raises(ValueError):
        Neb(n_c=5, theta=1.0)
    with pytest.raises(ValueError):
        Neb(n_c=3, theta=-1.0)
    with pytest.raises(ValueError):
        NebI(eps=0.0)
    with pytest.raises(ValueError):
        NebII(eps=-0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_schemes_reject_non_finite_amounts(value):
    for make in (
        lambda v: Pop(p_c=0.5, theta=v),
        lambda v: Neb(n_c=3, theta=v),
        lambda v: NebI(eps=v),
        lambda v: NebII(eps=v),
    ):
        with pytest.raises(ValueError, match="finite"):
            make(value)


def test_pop_invests_in_every_cooperator():
    g = make_grid(10)
    out = apply_pop(g, Pop(p_c=1.0, theta=0.5))
    assert np.all(by_code(g.code, out.surplus) == 0.5)
    assert out.generation_cost == 50.0


def test_pop_does_not_invest_above_threshold():
    # 90 cooperators out of 100 with p_c = 0.85: no investment at all
    g = random_grid(10, 0.9, np.random.default_rng(1), exact_fraction=True)
    assert coop_count(g) == 90
    out = apply_pop(g, Pop(p_c=0.85, theta=2.0))
    assert out.generation_cost == 0.0
    assert np.all(out.surplus == 0.0)  # all ten by code


def test_pop_all_defectors_costs_nothing():
    g = Grid(np.zeros((10, 10), dtype=np.uint8))
    out = apply_pop(g, Pop(p_c=1.0, theta=3.0))
    assert out.generation_cost == 0.0


def test_pop_threshold_boundary_is_inclusive():
    # x_C == p_c * Z must trigger investment despite float scaling of p_c
    g = random_grid(100, 0.7, np.random.default_rng(3), exact_fraction=True)
    assert coop_count(g) == 7000
    out = apply_pop(g, Pop(p_c=0.7, theta=1.0))
    assert out.generation_cost == 7000.0


@settings(max_examples=50)
@given(grids(), st.floats(0.0, 1.0), st.floats(0.1, 8.0))
def test_pop_is_all_or_nothing(g, p_c, theta):
    out = apply_pop(g, Pop(p_c=p_c, theta=theta))
    paid = by_code(g.code, out.surplus)[g.cells == C.value]
    assert np.all(paid == theta) or np.all(paid == 0.0)


def test_neb_pays_only_boundary_cooperators():
    g = make_grid(10, [(5, 5)])
    out = apply_neb(g, Neb(n_c=3, theta=5.3))
    paid = np.argwhere(by_code(g.code, out.surplus) > 0)
    assert {tuple(x) for x in paid} == {(4, 5), (6, 5), (5, 4), (5, 6)}
    assert out.generation_cost == 4 * 5.3


def test_neb_nc4_pays_all_cooperators():
    g = make_grid(10, [(5, 5)])
    out = apply_neb(g, Neb(n_c=4, theta=2.0))
    assert np.count_nonzero(by_code(g.code, out.surplus)) == 99
    assert out.generation_cost == 99 * 2.0


def test_neb_all_c_nc3_costs_nothing():
    g = make_grid(8)
    assert apply_neb(g, Neb(n_c=3, theta=5.0)).generation_cost == 0.0


def test_neb_i_lone_defector():
    # each of the defector's 4 neighbours is outbid from 3.0 to 7.2 + eps
    g = lone_defector_grid(10)
    out = apply_neb_i(g, PayoffParams(b=1.8), NebI(eps=0.1))
    grant = 7.2 - 3.0 + 0.1
    paid = np.argwhere(out.surplus > 0)
    assert {tuple(x) for x in paid} == {(4, 5), (6, 5), (5, 4), (5, 6)}
    assert np.all(out.surplus[out.surplus > 0] == grant)
    assert out.generation_cost == pytest.approx(4 * grant, rel=1e-12)


def test_neb_i_interior_cooperator_gets_nothing():
    g = make_grid(8)
    out = apply_neb_i(g, PayoffParams(b=1.8), NebI(eps=0.5))
    assert out.generation_cost == 0.0


def test_neb_i_equal_score_defector_is_not_matched():
    # b=1.5: cooperator at (2,2) scores 3.0; its north neighbour is a
    # defector also scoring 3.0 and winning the N,E,S,W tie-break. The
    # "strictly larger" condition must leave the cooperator unpaid.
    g = make_grid(6, [(1, 2), (1, 3), (1, 1), (4, 2)])
    payoff = PayoffParams(b=1.5)
    base = compute_scores(g, payoff)
    assert base[2, 2] == 3.0 and base[1, 2] == 3.0
    out = apply_neb_i(g, payoff, NebI(eps=0.1))
    assert out.surplus[2, 2] == 0.0


def test_neb_i_strictly_fitter_defector_is_matched():
    g = make_grid(6, [(1, 2), (1, 1), (4, 2)])
    payoff = PayoffParams(b=1.5)
    base = compute_scores(g, payoff)
    assert base[1, 2] == 4.5 and base[2, 2] == 3.0
    out = apply_neb_i(g, payoff, NebI(eps=0.1))
    assert out.surplus[2, 2] == 4.5 - 3.0 + 0.1


def test_neb_ii_lone_defector_equals_neb_i():
    # the lone defector's best-scoring neighbour is a cooperator, so the
    # luring phase adds nothing
    g = lone_defector_grid(10)
    payoff = PayoffParams(b=1.8)
    out_i = apply_neb_i(g, payoff, NebI(eps=0.1))
    out_ii = apply_neb_ii(g, payoff, NebII(eps=0.1))
    np.testing.assert_array_equal(out_i.surplus, out_ii.surplus)
    assert out_i.generation_cost == out_ii.generation_cost


def test_neb_ii_tops_up_against_defector_role_model():
    # Cooperator i=(2,3) sits above a weak defector d=(3,3) (one cooperating
    # neighbour, base 1.8) whose own best-scoring neighbour is a defector at
    # base M=5.4. Phase one skips i (its best neighbour is an interior
    # cooperator at 4.0), so phase two must raise i to M + eps.
    g = make_grid(8, [(3, 3), (3, 2), (3, 4), (4, 3)])
    payoff = PayoffParams(b=1.8)
    base = compute_scores(g, payoff)
    assert base[3, 3] == 1.8 and base[3, 4] == 5.4 and base[2, 3] == 3.0
    out_i = apply_neb_i(g, payoff, NebI(eps=0.1))
    out_ii = apply_neb_ii(g, payoff, NebII(eps=0.1))
    assert out_i.surplus[2, 3] == 0.0
    assert out_ii.surplus[2, 3] == (5.4 + 0.1) - 3.0


def test_neb_ii_no_defectors_costs_nothing():
    g = make_grid(8)
    assert apply_neb_ii(g, PayoffParams(b=1.8), NebII(eps=0.3)).generation_cost == 0.0


# At b=1.5 and b=2.0 some defector scores k*b equal integer cooperator scores,
# which exercises the N, E, S, W tie-break of the best-neighbour search.
TIE_BS = (1.5, 1.8, 2.0)
TIE_PAYOFFS = tuple(PayoffParams(b=b, punishment=p) for b in TIE_BS for p in (0.0, 0.1))


def _zero_top_up_eps(payoff):
    """Amounts eps with M + eps == c exactly for a cooperator's base score c and
    a defector's base score M < c: an unpaid cooperator scoring c whose lured
    defector neighbour has a role model scoring M gets a top-up of exactly 0."""
    scores = score_table(payoff).tolist()
    return sorted({c - m for c in scores[5:] for m in scores[:5] if m < c and m + (c - m) == c})


@settings(max_examples=60)
@given(grids(), st.floats(0.01, 2.0))
def test_neb_i_matches_bruteforce(g, eps):
    for b in TIE_BS:  # every example is checked at each temptation
        payoff = PayoffParams(b=b)
        base = compute_scores(g, payoff)
        out = apply_neb_i(g, payoff, NebI(eps=eps))
        np.testing.assert_array_equal(out.surplus, neb_i_bruteforce(g, base, eps))


def test_neb_i_exhaustive_over_radius2_diamonds():
    # a centre's neb_i surplus is decided by the 13 cells within distance 2;
    # eps = b - 1 makes post-investment scores tie with other scores
    g, centres = diamond_lattice()
    agents = centres.tolist()
    for payoff in (PayoffParams(b=b, punishment=p) for b in (1.5, 1.8, 2.0) for p in (0.0, 0.1)):
        base = compute_scores(g, payoff)
        for eps in sorted({0.1, 0.5, 1.0, payoff.b - 1}):
            got = apply_neb_i(g, payoff, NebI(eps=eps)).surplus.reshape(-1)[centres]
            expected = neb_i_bruteforce(g, base, eps, agents).reshape(-1)[centres]
            assert got.tobytes() == expected.tobytes(), (payoff, eps)


@settings(max_examples=60)
@given(grids(), st.floats(0.01, 2.0), st.data())
def test_neb_ii_matches_bruteforce(g, eps, data):
    for payoff in TIE_PAYOFFS:
        base = compute_scores(g, payoff)
        zero_top_up = data.draw(st.sampled_from(_zero_top_up_eps(payoff)), label="eps")
        for amount in (eps, zero_top_up):
            out = apply_neb_ii(g, payoff, NebII(eps=amount))
            assert out.surplus.tobytes() == neb_ii_bruteforce(g, base, amount).tobytes()


def _bits(value) -> str:
    return float(value).hex()


@pytest.mark.parametrize("payoff", TIE_PAYOFFS, ids=repr)
def test_neb_tables_equal_the_scalar_formula(payoff):
    # every reachable entry, by (own code, best neighbour's rank and strategy,
    # largest lure rank around), equals the rule evaluated on Python floats
    scores = score_table(payoff).tolist()
    levels = sorted(set(scores))  # base score by rank
    keys = key_table(score_table(payoff))  # the node keys _best_index looks up
    assert keys.tolist() == [16 * levels.index(s) + (code >= 5) for code, s in enumerate(scores)]
    assert not keys.flags.writeable
    for eps in (0.1, 0.5, 1.0, payoff.b - 1, *_zero_top_up_eps(payoff)):
        neb_i = interference._neb_i_table(payoff, eps)
        lure, neb_ii = interference._neb_ii_tables(payoff, eps)
        assert not (neb_i.flags.writeable or lure.flags.writeable or neb_ii.flags.writeable)
        for code, base in enumerate(scores):
            cooperates = code >= 5
            for rank, best in enumerate(levels):
                for strategy in (D.value, C.value):
                    index = 20 * code + 2 * rank + strategy
                    paid = cooperates and strategy == D.value and best > base
                    phase_one = best - base + eps if paid else 0.0
                    assert _bits(neb_i[index]) == _bits(phase_one)
                    lured = not cooperates and strategy == D.value
                    assert lure[index] == (rank + 1 if lured else 0)
                    for lure_rank, m in enumerate([-math.inf, *levels]):
                        top_up = max(0.0, m + eps - (base + phase_one)) if cooperates else 0.0
                        expected = phase_one + top_up
                        assert _bits(neb_ii[11 * index + lure_rank]) == _bits(expected), (
                            eps, code, rank, strategy, lure_rank
                        )


def _schemes():
    return st.one_of(
        st.just(NoInterference()),
        st.builds(Pop, p_c=st.floats(0.0, 1.0), theta=st.floats(0.1, 8.0)),
        st.builds(Neb, n_c=st.integers(0, 4), theta=st.floats(0.1, 8.0)),
        st.builds(NebI, eps=st.floats(0.01, 2.0)),
        st.builds(NebII, eps=st.floats(0.01, 2.0)),
    )


@settings(max_examples=80)
@given(grids(), _schemes())
def test_no_defector_is_ever_paid(g, scheme):
    for payoff in TIE_PAYOFFS:
        surplus = per_cell(g, apply(scheme, g, payoff))
        assert np.all(surplus[g.cells == D.value] == 0.0)
        assert np.all(surplus >= 0.0)


@settings(max_examples=80)
@given(grids(), _schemes())
def test_cost_equals_surplus_sum_exactly(g, scheme):
    for payoff in TIE_PAYOFFS:
        out = apply(scheme, g, payoff)
        assert out.generation_cost == float(per_cell(g, out).sum())


@settings(max_examples=60)
@given(grids(), st.floats(0.01, 2.0))
def test_neb_ii_dominates_neb_i_pointwise(g, eps):
    payoff = PayoffParams(b=1.8)
    s_i = apply_neb_i(g, payoff, NebI(eps=eps)).surplus
    s_ii = apply_neb_ii(g, payoff, NebII(eps=eps)).surplus
    assert np.all(s_ii >= s_i)


@settings(max_examples=60)
@given(grids(), st.floats(0.1, 8.0))
def test_pop_full_threshold_equals_neb4(g, theta):
    payoff = PayoffParams(b=1.8)
    out_pop = apply(Pop(p_c=1.0, theta=theta), g, payoff)
    out_neb = apply(Neb(n_c=4, theta=theta), g, payoff)
    np.testing.assert_array_equal(out_pop.surplus, out_neb.surplus)
    assert out_pop.generation_cost == out_neb.generation_cost


def test_dispatch_none_is_free():
    g = make_grid(6, [(2, 2)])
    out = apply(NoInterference(), g, PayoffParams(b=1.8))
    assert out.generation_cost == 0.0
    assert np.all(out.surplus == 0.0)


def _flat_thetas(z):
    """Amounts for a flat outcome on z cells, each side of the exact-cost rule.

    A flat cost is ``paid * theta`` only while theta = m * 2**e (m odd) has
    m * z < 2**53; the largest odd m below that bound and the smallest odd m
    at or above it sit on either side of it.
    """
    below = (2**53 - 1) // z
    below -= 1 - below % 2
    above = -(-(2**53) // z)
    above += 1 - above % 2
    odd = st.integers(0, 2**20).map(lambda n: 2 * n + 1)
    return st.one_of(
        st.sampled_from((0.0, 0.1, 5.3, 5e-324, 3, 7, 4.5, 2.0**-1074 * 3)),
        st.builds(math.ldexp, odd, st.integers(-40, 10)),
        st.builds(math.ldexp, st.sampled_from((below, above)), st.integers(-80, 0)),
        st.floats(0.01, 10.0),
    )


class _AnyTheta(Neb):
    """``Neb`` without its range checks, so that theta may be 0.0, which is never paid."""

    def __post_init__(self) -> None:
        check_field_types(self)


def _paid_table(g, n_c, theta):
    """``flat_payment`` of neb(n_c, theta) on ``g``: (the surplus by code it
    pays, none's where it pays nothing; its cost)."""
    scheme = _AnyTheta(n_c, theta)
    invests, cost = flat_payment(scheme, g.code, coop_count(g))
    return flat_surplus(scheme if invests else NoInterference()), cost


@settings(max_examples=300, deadline=None)
@given(grids(3, 9), st.integers(0, 4), st.data())
def test_flat_cost_is_the_surplus_sum_bit_for_bit(g, n_c, data):
    theta = data.draw(_flat_thetas(g.size), label="theta")
    table, cost = _paid_table(g, n_c, theta)
    assert table.shape == (10,) and table.dtype == np.float64
    assert not table.flags.writeable
    surplus = by_code(g.code, table)
    expected = flat_surplus_bruteforce(g, Neb(n_c, theta)) if theta else np.zeros(g.cells.shape)
    np.testing.assert_array_equal(surplus, expected)
    assert np.float64(cost).tobytes() == surplus.sum().tobytes()


@settings(max_examples=60)
@given(grids(3, 9), payoffs(), st.integers(0, 4), st.sampled_from((0.5, 1.0, 3)) | st.floats(0.01, 8.0))
def test_paid_scores_equal_base_plus_surplus(g, params, n_c, theta):
    # the ten sums by code, looked up per cell, are the per-cell sums bit for bit
    surplus = apply(Neb(n_c=n_c, theta=theta), g, params).surplus
    expected = compute_scores(g, params) + by_code(g.code, surplus)
    got = by_code(g.code, score_table(params) + surplus)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("b", [1.5, 1.8, 2.0])
@pytest.mark.parametrize("punishment", [0.0, 0.1])
def test_base_plus_flat_surplus_is_the_paid_score_table_bit_for_bit(b, punishment):
    # theta goes to each cooperator with k <= n_c; every other entry keeps the
    # base score's bits
    params = PayoffParams(b=b, punishment=punishment)
    g = random_grid(6, 0.5, np.random.default_rng(2))
    for theta in (0.1, 0.5, 1.0, 1.5, 2.0):
        for n_c in range(5):
            got = score_table(params) + _paid_table(g, n_c, theta)[0]
            expected = paid_score_table(params, theta, n_c)
            assert got.tobytes() == expected.tobytes(), (theta, n_c)


@given(payoffs(), st.integers(0, 4))
def test_score_table_at_zero_theta_is_the_base_table(params, n_c):
    g = random_grid(6, 0.5, np.random.default_rng(2))
    got = score_table(params) + _paid_table(g, n_c, 0.0)[0]
    assert got.tobytes() == score_table(params).tobytes()


@pytest.mark.parametrize("scheme", [NoInterference(), Neb(n_c=3, theta=2.0), NebI(eps=0.5)])
def test_outcome_equality_and_hash_do_not_raise(scheme):
    # outcomes hold a surplus array, so they compare by identity
    g = random_grid(6, 0.5, np.random.default_rng(1))
    payoff = PayoffParams(b=1.8)
    a, b = apply(scheme, g, payoff), apply(scheme, g, payoff)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("scheme", [Pop(p_c=1.0, theta=4.0), Neb(n_c=3, theta=4.0)])
def test_flat_schemes_build_no_float_surplus(scheme):
    # a Z-element float64 temporary alone takes Z * 8 bytes
    g = random_grid(200, 0.5, np.random.default_rng(3))
    payoff = PayoffParams(b=1.8)
    compute_scores(g, payoff)  # the grid caches its codes
    coop_count(g)  # and its x_C, so only apply's own temporaries are traced
    tracemalloc.start()
    try:
        outcome = apply(scheme, g, payoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.generation_cost > 0.0
    assert peak < g.size * 8
