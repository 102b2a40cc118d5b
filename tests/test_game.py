import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecoop.analysis import lone_defector_grid
from latticecoop.game import (
    PayoffParams,
    acceptance_table,
    by_code,
    compute_scores,
    key_table,
    logistic,
    score_table,
)
from latticecoop.grid import Grid, Strategy

from conftest import (
    TIE_THETAS,
    fermi_probability,
    grids,
    neighbours,
    paid_score_table,
    pair_payoff,
    payoffs,
    scores_bruteforce,
)

C, D = Strategy.C, Strategy.D


def test_payoff_params_validation():
    with pytest.raises(ValueError):
        PayoffParams(b=1.0)  # strict lower bound
    with pytest.raises(ValueError):
        PayoffParams(b=2.3)
    with pytest.raises(ValueError):
        PayoffParams(b=1.8, punishment=-0.1)
    with pytest.raises(ValueError):
        PayoffParams(b=1.8, punishment=1.0)  # must stay below R
    PayoffParams(b=1.8, punishment=0.05)  # strict-PD variant accepted


def test_pair_payoff_matrix():
    p = PayoffParams(b=1.8)
    assert pair_payoff(C, C, p) == 1.0
    assert pair_payoff(D, C, p) == 1.8
    assert pair_payoff(C, D, p) == 0.0
    assert pair_payoff(D, D, p) == 0.0
    strict = PayoffParams(b=1.8, punishment=0.1)
    assert pair_payoff(D, D, strict) == 0.1


def test_all_c_scores():
    g = Grid(np.ones((6, 6), dtype=np.uint8))
    scores = compute_scores(g, PayoffParams(b=1.8))
    assert np.all(scores == 4.0)


def test_all_d_scores():
    g = Grid(np.zeros((6, 6), dtype=np.uint8))
    assert np.all(compute_scores(g, PayoffParams(b=1.8)) == 0.0)
    assert np.all(compute_scores(g, PayoffParams(b=1.8, punishment=0.1)) == 4 * 0.1)


def test_lone_defector_scores():
    # the configuration behind the microscopic threshold analysis
    g = lone_defector_grid(10)
    scores = compute_scores(g, PayoffParams(b=1.8))
    centre = 10 // 2
    assert scores[centre, centre] == 4 * 1.8  # defector exploits 4 cooperators
    for r, c in ((centre - 1, centre), (centre + 1, centre), (centre, centre - 1), (centre, centre + 1)):
        assert scores[r, c] == 3.0
    assert scores[0, 0] == 4.0  # interior cooperator


@settings(max_examples=60)
@given(grids(), payoffs())
def test_scores_match_bruteforce(g, params):
    expected = scores_bruteforce(g, params)
    got = compute_scores(g, params)
    if params.punishment == 0.0:
        # all partial sums are k*b / k*R forms, so both routes are exact
        np.testing.assert_array_equal(got, expected)
    else:
        # routes associate the four payoffs differently; ulp-level slack only
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=60)
@given(grids(), st.sampled_from([1.5, 1.8, 2.0]), st.floats(0.01, 0.5))
def test_scores_equal_closed_form_exactly(g, b, punishment):
    # With P > 0 the brute-force oracle sums payoffs in another order and
    # needs allclose; the closed form k*b + (4-k)*P pins every bit.
    params = PayoffParams(b=b, punishment=punishment)
    flat = g.cells.reshape(-1)
    expected = []
    for i in range(g.size):
        k = sum(int(flat[j]) for j in neighbours(i, g.side_length))
        expected.append(k * 1.0 + (4 - k) * 0.0 if flat[i] == C.value else k * b + (4 - k) * punishment)
    got = compute_scores(g, params)
    np.testing.assert_array_equal(got, np.array(expected).reshape(g.cells.shape))


@settings(max_examples=40)
@given(grids(min_side=4), payoffs(), st.data())
def test_flipping_neighbour_to_d_never_raises_score(g, params, data):
    i = data.draw(st.integers(0, g.size - 1))
    coop_nbrs = [j for j in neighbours(i, g.side_length) if g.cells.reshape(-1)[j] == C.value]
    if not coop_nbrs:
        return
    j = data.draw(st.sampled_from(coop_nbrs))
    flipped = g.cells.copy().reshape(-1)
    flipped[j] = D.value
    g2 = Grid(flipped.reshape(g.side_length, g.side_length))
    before = compute_scores(g, params).reshape(-1)[i]
    after = compute_scores(g2, params).reshape(-1)[i]
    assert after <= before


@settings(max_examples=40)
@given(grids(min_side=5), payoffs(), st.data())
def test_score_locality(g, params, data):
    # perturbing a cell at lattice distance > 1 never changes agent i's score
    i = data.draw(st.integers(0, g.size - 1))
    local = {i, *neighbours(i, g.side_length)}
    far = [j for j in range(g.size) if j not in local]
    j = data.draw(st.sampled_from(far))
    flipped = g.cells.copy().reshape(-1)
    flipped[j] ^= 1
    g2 = Grid(flipped.reshape(g.side_length, g.side_length))
    before = compute_scores(g, params).reshape(-1)[i]
    after = compute_scores(g2, params).reshape(-1)[i]
    assert before == after


@settings(max_examples=40)
@given(grids())
def test_default_params_score_formula(g):
    # defaults: defector with k cooperating neighbours scores exactly k*b,
    # cooperator scores exactly k
    params = PayoffParams(b=1.7)
    scores = compute_scores(g, params).reshape(-1)
    flat = g.cells.reshape(-1)
    for i in range(g.size):
        k = sum(flat[j] == C.value for j in neighbours(i, g.side_length))
        assert scores[i] == (k if flat[i] == C.value else k * 1.7)


def _ranks(params: PayoffParams, theta: float, n_c: int) -> np.ndarray:
    """The dense ranks by code that ``key_table`` keys on, above the strategy bits."""
    return key_table(paid_score_table(params, theta, n_c)) >> 4


@pytest.mark.parametrize("b, theta", [(2.0, 1.0), (1.5, 0.5), (1.8, 0.3), (1.8, 1e-300)])
def test_rank_table_share_ties_and_keep_order(b, theta):
    params = PayoffParams(b=b)
    for n_c in range(5):
        # a cooperator (code 5 + k) with k <= n_c is paid theta
        scores = [s + (theta if 5 <= code <= 5 + n_c else 0.0)
                  for code, s in enumerate(score_table(params))]
        ranks = _ranks(params, theta, n_c)
        assert ranks.dtype == np.uint8 and sorted(set(ranks)) == list(range(len(set(scores))))
        for i in range(10):
            for j in range(10):
                assert (ranks[i] == ranks[j]) == (scores[i] == scores[j])
                assert (ranks[i] > ranks[j]) == (scores[i] > scores[j])


def test_rank_table_tie_invested_cooperator_with_defector():
    # code 5*s + k: a cooperator with k=1 paid theta=1 (code 6) ties a
    # defector with k'=1 (code 1) at b=2.0; at b=1.5, C(4) + 0.5 ties D(3)
    assert _ranks(PayoffParams(b=2.0), 1.0, 4)[6] == _ranks(PayoffParams(b=2.0), 1.0, 4)[1]
    assert _ranks(PayoffParams(b=1.5), 0.5, 4)[9] == _ranks(PayoffParams(b=1.5), 0.5, 4)[3]
    # unpaid, the same cooperators do not tie
    assert _ranks(PayoffParams(b=2.0), 1.0, 0)[6] < _ranks(PayoffParams(b=2.0), 1.0, 0)[1]


@pytest.mark.parametrize("b", [1.5, 1.8, 2.0])
@pytest.mark.parametrize("punishment", [0.0, 0.1])
def test_key_table_is_sixteen_times_the_dense_rank_plus_strategy(b, punishment):
    # entry by code 5 * strategy + k: codes 5..9 are cooperators (strategy 1)
    params = PayoffParams(b=b, punishment=punishment)
    for theta in (*TIE_THETAS, 4 * b - 4, 4 * b - 3, 4 * b - 2):
        for n_c in range(5):
            scores = paid_score_table(params, theta, n_c).tolist()
            levels = sorted(set(scores))
            keys = key_table(paid_score_table(params, theta, n_c))
            assert keys.dtype == np.uint8 and not keys.flags.writeable
            assert keys.tolist() == [16 * levels.index(s) + (code >= 5)
                                     for code, s in enumerate(scores)], (theta, n_c)
            # cached by value: an equal score table gives the same object
            assert key_table(np.array(scores)) is keys


@settings(max_examples=40)
@given(grids(3, 9), st.floats(0.01, 6.0), st.integers(0, 4))
def test_cell_ranks_equal_a_plain_take(g, theta, n_c):
    # pairs of cells are looked up at once when Z is even; odd Z takes one at a time
    ranks = _ranks(PayoffParams(b=1.8), theta, n_c)
    got = by_code(g.code, ranks)
    assert got.dtype == np.uint8 and got.shape == g.code.shape
    assert np.array_equal(got, ranks.take(g.code))


@settings(max_examples=40)
@given(grids(3, 9), payoffs())
def test_float_pairs_equal_a_plain_take(g, params):
    # float64 pairs travel as 16-byte items; a take moves their bytes unchanged
    table = score_table(params)
    got = by_code(g.code, table)
    assert got.dtype == np.float64 and got.shape == g.code.shape
    assert got.tobytes() == table.take(g.code).tobytes()


@pytest.mark.parametrize("b", [1.5, 1.8, 2.0])
@pytest.mark.parametrize("punishment", [0.0, 0.1])
@pytest.mark.parametrize("k", [0.05, 0.3, 2.0])
def test_acceptance_table_equals_fermi_probability_bit_for_bit(b, punishment, k):
    # entry 10 * own + nbr: a cell of code own switching by copying a neighbour
    # of code nbr; codes 5..9 are cooperators, and copying one's own strategy
    # is no switch, so those entries are exactly 0.0
    params = PayoffParams(b=b, punishment=punishment)
    for theta in (0.0, 0.5, 1.0, 3.0, 5.3):
        for n_c in range(5):
            table = paid_score_table(params, theta, n_c).tolist()
            accept = acceptance_table(paid_score_table(params, theta, n_c), k)
            assert accept.shape == (100,) and not accept.flags.writeable
            # cached by value: an equal score table gives the same object
            assert acceptance_table(np.array(table), k) is accept
            expected = [fermi_probability(table[own], table[nbr], k)
                        if (own >= 5) != (nbr >= 5) else 0.0
                        for own in range(10) for nbr in range(10)]
            assert accept.tobytes() == np.array(expected).tobytes(), (theta, n_c)


def test_logistic_equals_scipy_expit_bit_for_bit():
    expit = pytest.importorskip("scipy.special").expit
    rng = np.random.default_rng(0)
    patterns = rng.integers(0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True).view(np.float64)
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
               np.nextafter(tiny, 0), -np.nextafter(tiny, 0)]
    x = np.concatenate((
        patterns[np.isfinite(patterns)],
        rng.normal(0.0, 20.0, 100_000),
        np.linspace(-760.0, 760.0, 200_001),  # across exp's overflow edge at +-709.78
        special,
    ))
    got = np.array([logistic(v) for v in x.tolist()])
    with np.errstate(all="ignore"):
        expected = expit(x)
    mismatches = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert mismatches.size == 0, x[mismatches[:10]]
