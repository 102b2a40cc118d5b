import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecoop.analysis import lone_defector_grid
from latticecoop.game import PayoffParams, by_code, compute_scores, score_table
from latticecoop.grid import Grid, Strategy, coop_count, random_grid
from latticecoop.interference import (
    InvestmentOutcome,
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
)

from conftest import flat_surplus_bruteforce, grids, neb_i_bruteforce, neb_ii_bruteforce, payoffs

C, D = Strategy.C, Strategy.D


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
    assert np.all(out.surplus == 0.5)
    assert out.generation_cost == 50.0


def test_pop_does_not_invest_above_threshold():
    # 90 cooperators out of 100 with p_c = 0.85: no investment at all
    g = random_grid(10, 0.9, np.random.default_rng(1), exact_fraction=True)
    assert coop_count(g) == 90
    out = apply_pop(g, Pop(p_c=0.85, theta=2.0))
    assert out.generation_cost == 0.0
    assert np.all(out.surplus == 0.0)


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
    paid = out.surplus[g.cells == C.value]
    assert np.all(paid == theta) or np.all(paid == 0.0)


def test_neb_pays_only_boundary_cooperators():
    g = make_grid(10, [(5, 5)])
    out = apply_neb(g, Neb(n_c=3, theta=5.3))
    paid = np.argwhere(out.surplus > 0)
    assert {tuple(x) for x in paid} == {(4, 5), (6, 5), (5, 4), (5, 6)}
    assert out.generation_cost == 4 * 5.3


def test_neb_nc4_pays_all_cooperators():
    g = make_grid(10, [(5, 5)])
    out = apply_neb(g, Neb(n_c=4, theta=2.0))
    assert np.count_nonzero(out.surplus) == 99
    assert out.generation_cost == 99 * 2.0


def test_neb_all_c_nc3_costs_nothing():
    g = make_grid(8)
    assert apply_neb(g, Neb(n_c=3, theta=5.0)).generation_cost == 0.0


def test_neb_i_lone_defector():
    # each of the defector's 4 neighbours is outbid from 3.0 to 7.2 + eps
    g = lone_defector_grid(10)
    base = compute_scores(g, PayoffParams(b=1.8))
    out = apply_neb_i(g, base, NebI(eps=0.1))
    grant = 7.2 - 3.0 + 0.1
    paid = np.argwhere(out.surplus > 0)
    assert {tuple(x) for x in paid} == {(4, 5), (6, 5), (5, 4), (5, 6)}
    assert np.all(out.surplus[out.surplus > 0] == grant)
    assert out.generation_cost == pytest.approx(4 * grant, rel=1e-12)


def test_neb_i_interior_cooperator_gets_nothing():
    g = make_grid(8)
    base = compute_scores(g, PayoffParams(b=1.8))
    out = apply_neb_i(g, base, NebI(eps=0.5))
    assert out.generation_cost == 0.0


def test_neb_i_equal_score_defector_is_not_matched():
    # b=1.5: cooperator at (2,2) scores 3.0; its north neighbour is a
    # defector also scoring 3.0 and winning the N,E,S,W tie-break. The
    # "strictly larger" condition must leave the cooperator unpaid.
    g = make_grid(6, [(1, 2), (1, 3), (1, 1), (4, 2)])
    base = compute_scores(g, PayoffParams(b=1.5))
    assert base[2, 2] == 3.0 and base[1, 2] == 3.0
    out = apply_neb_i(g, base, NebI(eps=0.1))
    assert out.surplus[2, 2] == 0.0


def test_neb_i_strictly_fitter_defector_is_matched():
    g = make_grid(6, [(1, 2), (1, 1), (4, 2)])
    base = compute_scores(g, PayoffParams(b=1.5))
    assert base[1, 2] == 4.5 and base[2, 2] == 3.0
    out = apply_neb_i(g, base, NebI(eps=0.1))
    assert out.surplus[2, 2] == 4.5 - 3.0 + 0.1


def test_neb_ii_lone_defector_equals_neb_i():
    # the lone defector's best-scoring neighbour is a cooperator, so the
    # luring phase adds nothing
    g = lone_defector_grid(10)
    base = compute_scores(g, PayoffParams(b=1.8))
    out_i = apply_neb_i(g, base, NebI(eps=0.1))
    out_ii = apply_neb_ii(g, base, NebII(eps=0.1))
    np.testing.assert_array_equal(out_i.surplus, out_ii.surplus)
    assert out_i.generation_cost == out_ii.generation_cost


def test_neb_ii_tops_up_against_defector_role_model():
    # Cooperator i=(2,3) sits above a weak defector d=(3,3) (one cooperating
    # neighbour, base 1.8) whose own best-scoring neighbour is a defector at
    # base M=5.4. Phase one skips i (its best neighbour is an interior
    # cooperator at 4.0), so phase two must raise i to M + eps.
    g = make_grid(8, [(3, 3), (3, 2), (3, 4), (4, 3)])
    base = compute_scores(g, PayoffParams(b=1.8))
    assert base[3, 3] == 1.8 and base[3, 4] == 5.4 and base[2, 3] == 3.0
    out_i = apply_neb_i(g, base, NebI(eps=0.1))
    out_ii = apply_neb_ii(g, base, NebII(eps=0.1))
    assert out_i.surplus[2, 3] == 0.0
    assert out_ii.surplus[2, 3] == (5.4 + 0.1) - 3.0


def test_neb_ii_no_defectors_costs_nothing():
    g = make_grid(8)
    base = compute_scores(g, PayoffParams(b=1.8))
    assert apply_neb_ii(g, base, NebII(eps=0.3)).generation_cost == 0.0


# At b=1.5 and b=2.0 some defector scores k*b equal integer cooperator scores,
# which exercises the N, E, S, W tie-break of the best-neighbour search.
TIE_BS = (1.5, 1.8, 2.0)


@settings(max_examples=60)
@given(grids(), st.floats(0.01, 2.0))
def test_neb_i_matches_bruteforce(g, eps):
    for b in TIE_BS:  # every example is checked at each temptation
        base = compute_scores(g, PayoffParams(b=b))
        out = apply_neb_i(g, base, NebI(eps=eps))
        np.testing.assert_array_equal(out.surplus, neb_i_bruteforce(g, base, eps))


@settings(max_examples=60)
@given(grids(), st.floats(0.01, 2.0))
def test_neb_ii_matches_bruteforce(g, eps):
    for b in TIE_BS:
        base = compute_scores(g, PayoffParams(b=b))
        out = apply_neb_ii(g, base, NebII(eps=eps))
        np.testing.assert_array_equal(out.surplus, neb_ii_bruteforce(g, base, eps))


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
    base = compute_scores(g, PayoffParams(b=1.8))
    out = apply(scheme, g, base)
    assert np.all(out.surplus[g.cells == D.value] == 0.0)
    assert np.all(out.surplus >= 0.0)


@settings(max_examples=80)
@given(grids(), _schemes())
def test_cost_equals_surplus_sum_exactly(g, scheme):
    base = compute_scores(g, PayoffParams(b=1.8))
    out = apply(scheme, g, base)
    assert out.generation_cost == float(out.surplus.sum())


@settings(max_examples=60)
@given(grids(), st.floats(0.01, 2.0))
def test_neb_ii_dominates_neb_i_pointwise(g, eps):
    base = compute_scores(g, PayoffParams(b=1.8))
    s_i = apply_neb_i(g, base, NebI(eps=eps)).surplus
    s_ii = apply_neb_ii(g, base, NebII(eps=eps)).surplus
    assert np.all(s_ii >= s_i)


@settings(max_examples=60)
@given(grids(), st.floats(0.1, 8.0))
def test_pop_full_threshold_equals_neb4(g, theta):
    base = compute_scores(g, PayoffParams(b=1.8))
    out_pop = apply(Pop(p_c=1.0, theta=theta), g, base)
    out_neb = apply(Neb(n_c=4, theta=theta), g, base)
    np.testing.assert_array_equal(out_pop.surplus, out_neb.surplus)
    assert out_pop.generation_cost == out_neb.generation_cost


def test_dispatch_none_is_free():
    g = make_grid(6, [(2, 2)])
    base = compute_scores(g, PayoffParams(b=1.8))
    out = apply(NoInterference(), g, base)
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


@settings(max_examples=300, deadline=None)
@given(grids(3, 9), st.integers(0, 4), st.data())
def test_flat_cost_is_the_surplus_sum_bit_for_bit(g, n_c, data):
    theta = data.draw(_flat_thetas(g.size), label="theta")
    outcome = InvestmentOutcome.flat(g, theta, n_c)
    expected = flat_surplus_bruteforce(g, Neb(n_c, theta)) if theta else np.zeros(g.cells.shape)
    np.testing.assert_array_equal(outcome.surplus, expected)
    assert outcome.surplus.dtype == np.float64
    assert np.float64(outcome.generation_cost).tobytes() == outcome.surplus.sum().tobytes()


@settings(max_examples=60)
@given(grids(3, 9), payoffs(), st.integers(0, 4), st.sampled_from((0.5, 1.0, 3)) | st.floats(0.01, 8.0))
def test_paid_scores_equal_base_plus_surplus(g, params, n_c, theta):
    base = compute_scores(g, params)
    expected = base + apply(Neb(n_c=n_c, theta=theta), g, base).surplus
    got = by_code(g.code, score_table(params, theta, n_c))
    assert got.tobytes() == expected.tobytes()


@given(payoffs(), st.integers(0, 4))
def test_score_table_at_zero_theta_is_the_base_table(params, n_c):
    assert score_table(params, 0.0, n_c).tobytes() == score_table(params).tobytes()


@pytest.mark.parametrize("scheme", [NoInterference(), Neb(n_c=3, theta=2.0), NebI(eps=0.5)])
def test_outcome_equality_and_hash_do_not_raise(scheme):
    # flat outcomes hold a Grid, the others a surplus array: both compare by identity
    g = random_grid(6, 0.5, np.random.default_rng(1))
    base = compute_scores(g, PayoffParams(b=1.8))
    a, b = apply(scheme, g, base), apply(scheme, g, base)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("scheme", [Pop(p_c=1.0, theta=4.0), Neb(n_c=3, theta=4.0)])
def test_flat_schemes_build_no_float_surplus(scheme):
    # a Z-element float64 temporary alone takes Z * 8 bytes
    g = random_grid(200, 0.5, np.random.default_rng(3))
    base = compute_scores(g, PayoffParams(b=1.8))  # the grid caches its codes
    coop_count(g)  # and its x_C, so only apply's own temporaries are traced
    tracemalloc.start()
    try:
        outcome = apply(scheme, g, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.generation_cost > 0.0
    assert peak < g.size * 8
