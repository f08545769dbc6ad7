import sys
import threading
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erfc
from scipy.stats import gamma as gamma_dist

from causalpred.core import Dataset, Query, QueryKind, ci_query_array
from causalpred.errors import (
    CausalPredError,
    DegenerateInput,
    InvalidParams,
    InvalidSize,
    UnknownNode,
    ZeroCorrelation,
)
from causalpred import stattests
from causalpred.models import Dag, d_separated_many
from causalpred.stattests import (
    TestOutcome,
    _gamma_p_value,
    anm_session,
    anm_test,
    corr_estimate,
    correlation_matrix,
    fisher_z_ci,
    fisher_z_from_corr,
    fisher_z_many,
    hsic_independence,
    hsic_statistic,
    kernel_regress,
    median_bandwidth,
    sign_estimate,
)
from causalpred.synthgen import gen_gam_chain, gen_gam_scm, gen_linear_scm, sample
from oracles import (
    ci_rows,
    closed_form_fisher_z_from_corr,
    closed_form_partial_correlation,
    enumerate_queries,
    ref_anm_test,
    ref_fisher_z_from_corr,
    ref_hsic_p_value,
    ref_hsic_statistic,
    ref_kernel_regress,
    ref_median_bandwidth,
)
from traced import traced_peak


def _dataset(*columns):
    return Dataset(np.column_stack(columns), tuple(range(len(columns))))


# --- TestOutcome --------------------------------------------------------------


def test_outcome_p_value_range():
    from causalpred.core import binary

    with pytest.raises(InvalidParams):
        TestOutcome(binary(1), 1.5, 0.05)


# --- Fisher-Z -----------------------------------------------------------------


def test_fisher_hand_example():
    # sample r = 0.5 at l = 100: statistic sqrt(97) * atanh(0.5) ~ 5.41
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    out = fisher_z_from_corr(corr, 100, (0, 1), (), alpha=0.05)
    stat = np.sqrt(97) * np.arctanh(0.5)
    assert stat == pytest.approx(5.41, abs=0.01)
    assert out.p_value == pytest.approx(6e-8, abs=1e-7)
    assert out.value.value == 0


def test_fisher_partial_correlation_screens_off():
    # chain with known covariance: conditioning on the middle node
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2000)
    y = 0.8 * x + 0.6 * rng.standard_normal(2000)
    z = 0.8 * y + 0.6 * rng.standard_normal(2000)
    d = _dataset(x, y, z)
    assert fisher_z_ci(d, Query.ci(0, 2, (1,)), 0.01).value.value == 1
    assert fisher_z_ci(d, Query.ci(0, 2), 0.01).value.value == 0


def test_fisher_invariant_under_canonicalization():
    rng = np.random.default_rng(1)
    cols = [rng.standard_normal(300) for _ in range(4)]
    cols[1] += cols[0]
    d = _dataset(*cols)
    a = fisher_z_ci(d, Query.ci(0, 1, (2, 3)), 0.05)
    b = fisher_z_ci(d, Query.ci(1, 0, (3, 2)), 0.05)
    assert a.p_value == b.p_value
    assert a.value == b.value


def test_fisher_ties_count_as_rejection():
    # value is 1 only for p strictly above alpha; p == alpha rejects
    corr = np.array([[1.0, 0.2], [0.2, 1.0]])
    out = fisher_z_from_corr(corr, 100, (0, 1), (), alpha=0.05)
    tied = fisher_z_from_corr(corr, 100, (0, 1), (), alpha=out.p_value)
    assert tied.value.value == 0
    _, p = fisher_z_many(corr, 100, [[0, 1]], 0.05)
    assert fisher_z_many(corr, 100, [[0, 1]], p[0])[0].tolist() == [0]


def test_fisher_preconditions():
    corr = np.eye(3)
    with pytest.raises(InvalidSize):
        fisher_z_from_corr(corr, 4, (0, 1), (2,), 0.05)
    with pytest.raises(InvalidParams):
        fisher_z_from_corr(corr, 100, (0, 1), (), 1.5)
    d = _dataset(np.ones(50), np.arange(50.0))
    with pytest.raises(DegenerateInput):
        fisher_z_ci(d, Query.ci(0, 1), 0.05)
    with pytest.raises(InvalidSize):
        fisher_z_ci(d, Query.ordered_pair(0, 1), 0.05)


def test_partial_correlation_singular():
    corr = np.ones((4, 4))
    for cond in [(2,), (2, 3)]:
        with pytest.raises(DegenerateInput):
            fisher_z_from_corr(corr, 100, (0, 1), cond, 0.05)


def test_partial_correlation_closed_form():
    # rho_{01.2} = (r01 - r02 r12) / sqrt((1-r02^2)(1-r12^2)), at l = 100
    corr = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.4], [0.5, 0.4, 1.0]])
    got = fisher_z_from_corr(corr, 100, (0, 1), (2,), 0.05).p_value
    want = (0.3 - 0.5 * 0.4) / np.sqrt((1 - 0.25) * (1 - 0.16))
    assert got == pytest.approx(erfc(np.sqrt(96) * np.arctanh(want) / np.sqrt(2.0)))


@pytest.mark.parametrize("target, cond, twin", [((0, 1), (-1,), (3,)), ((-1, 0), (), ())])
def test_fisher_z_from_corr_refuses_ids_outside_the_matrix(target, cond, twin):
    # -1 read the last row and column, as the twin query does; an id past
    # the matrix ended in IndexError
    corr = np.corrcoef(np.random.default_rng(0).standard_normal((100, 4)), rowvar=False)
    for t, c in [(target, cond), ((0, 4), ()), ((0, 1), (2, 4))]:
        with pytest.raises(UnknownNode):
            fisher_z_from_corr(corr, 100, t, c, 0.05)
    twin_target = tuple(3 if v == -1 else v for v in target)
    assert fisher_z_from_corr(corr, 100, twin_target, twin, 0.05).p_value > 0.0


# --- Fisher-Z closed form against the former inverse path ---------------------
#
# Given at most one variable the package takes the partial correlation in
# closed form and the tail as erfc; ``ref_fisher_z_from_corr`` inverts the
# submatrix behind an SVD condition-number guard and takes 2 * norm.sf.


def _fisher_pair(corr, l, a, b, cond, alpha):
    got = fisher_z_from_corr(corr, l, (a, b), cond, alpha)
    want = ref_fisher_z_from_corr(corr, l, (a, b), cond, alpha)
    return got, want


def _order01(k):
    for a, b in combinations(range(k), 2):
        yield a, b, ()
        for c in range(k):
            if c not in (a, b):
                yield a, b, (c,)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 6),
    st.sampled_from([20, 1000, 10_000]),
    st.floats(0.0, 3.0),
)
def test_fisher_z_closed_form_matches_inverse(seed, k, l, mixing):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, k)) @ (np.eye(k) + mixing * rng.standard_normal((k, k)))
    corr = np.corrcoef(x, rowvar=False)
    assume(np.linalg.cond(corr) < 1e3)
    for a, b, cond in _order01(k):
        got, want = _fisher_pair(corr, l, a, b, cond, 0.05)
        assert abs(got.p_value - want.p_value) <= 1e-12, (a, b, cond)
        assert got.value == want.value


@pytest.mark.parametrize("seed", [5, 17])
def test_fisher_z_closed_form_matches_inverse_on_the_ci_universe(seed):
    # the order-0/1 universe the CI experiment scores, at its n, l and alpha
    d = sample(gen_linear_scm(20, 1.5, seed), 10_000, seed + 1).dataset
    corr = np.corrcoef(d.samples, rowvar=False)
    universe = enumerate_queries(20, QueryKind.COND_INDEP, 0) + enumerate_queries(
        20, QueryKind.COND_INDEP, 1
    )
    worst = 0.0
    for q in universe:
        got, want = _fisher_pair(corr, d.l, *q.members, q.cond, 0.001)
        assert got.value == want.value, q
        worst = max(worst, abs(got.p_value - want.p_value))
    assert worst <= 1e-12


def _degenerate(f, *args):
    try:
        f(*args)
    except DegenerateInput:
        return True
    return False


def _collinear_cases():
    rng = np.random.default_rng(3)
    a, b, c, e = rng.standard_normal((4, 500))
    return {
        "collinear pair": ([a, 2.0 * a], ()),
        "anti-collinear pair": ([a, -0.5 * a], ()),
        "c collinear with a": ([a, b, 3.0 * a], (2,)),
        "c collinear with b": ([a, b, -b], (2,)),
        "a = b + c": ([b + c, b, c], (2,)),
        "a = b - 2c": ([b - 2.0 * c, b, c], (2,)),
        "|cond| = 2, a = b + c + e": ([b + c + e, b, c, e], (2, 3)),
        "|cond| = 2, collinear conditioning set": ([a, b, c, 2.0 * c], (2, 3)),
        "independent pair": ([a, b], ()),
        "independent given one": ([a, b, c], (2,)),
        "independent given two": ([a, b, c, e], (2, 3)),
    }


@pytest.mark.parametrize("case", sorted(_collinear_cases()))
def test_fisher_z_degenerate_inputs_match_former_guard(case):
    cols, cond = _collinear_cases()[case]
    corr = np.corrcoef(np.column_stack(cols), rowvar=False)
    args = (corr, 500, (0, 1), cond, 0.05)
    old = _degenerate(ref_fisher_z_from_corr, *args)
    assert _degenerate(fisher_z_from_corr, *args) == old
    assert old == (not case.startswith("independent"))


@pytest.mark.parametrize("cond", [(), (2,), (2, 3)])
def test_fisher_z_undefined_correlation_is_degenerate(cond):
    # a NaN correlation (a constant column) is refused, not turned into a
    # NaN p-value
    corr = np.eye(4)
    corr[0, 2] = corr[2, 0] = corr[0, 1] = corr[1, 0] = np.nan
    with pytest.raises(DegenerateInput):
        fisher_z_from_corr(corr, 100, (0, 1), cond, 0.05)


def _near_singular_triples(rng, count):
    """Correlation matrices of unit vectors a, b, c in R^3: a at a small
    angle to c, or b at a small angle to the plane of a and c."""
    c = np.array([1.0, 0.0, 0.0])
    for delta in np.logspace(-14, -6, count):
        th = np.sqrt(2.0 * delta) * rng.uniform(0.5, 2.0)
        b = rng.standard_normal(3)
        yield np.array([np.cos(th), np.sin(th), 0.0]), b / np.linalg.norm(b), c
        a = rng.standard_normal(3)
        a[2] = 0.0
        b = rng.standard_normal(3)
        b[2] = 0.0
        b = b / np.linalg.norm(b) * np.cos(th) + np.array([0.0, 0.0, np.sin(th)])
        yield a / np.linalg.norm(a), b, c


def test_fisher_z_guard_refuses_only_what_the_former_guard_refused():
    # The closed form refuses |r_ac| or |r_bc| >= 1 - 1e-12 and a partial
    # correlation at +-1; the former guard refused cond > 1e12.  They differ
    # only where the former guard refused a submatrix that the closed form
    # still evaluates: cond > 1e12 with each determinant factor above 1e-12.
    rng = np.random.default_rng(11)
    refused = differ = 0
    for vecs in _near_singular_triples(rng, 600):
        v = np.array(vecs)
        corr = v @ v.T
        np.fill_diagonal(corr, 1.0)
        args = (corr, 1000, (0, 1), (2,), 0.05)
        old = _degenerate(ref_fisher_z_from_corr, *args)
        new = _degenerate(fisher_z_from_corr, *args)
        assert old or not new
        if old != new:
            differ += 1
            assert np.linalg.cond(corr) > 1e12
        refused += new
    for delta in np.logspace(-14, -10, 200):
        r = 1.0 - delta
        corr = np.array([[1.0, r], [r, 1.0]])
        args = (corr, 1000, (0, 1), (), 0.05)
        old = _degenerate(ref_fisher_z_from_corr, *args)
        new = _degenerate(fisher_z_from_corr, *args)
        assert old or not new
        assert old == new or 1e-12 < delta < 2e-12
    assert refused > 0 and differ > 0


# --- batch Fisher-Z against the former scalar loop ----------------------------


def _universe(k, orders=(0, 1)):
    return [q for s in orders if s <= k - 2 for q in enumerate_queries(k, QueryKind.COND_INDEP, s)]


def _scalar_loop(corr, l, queries, alpha):
    """What ``fisher_z_many`` replaced: the former scalar query by query,
    labels and p-values, or the (class, message) of the first error."""
    try:
        outs = [closed_form_fisher_z_from_corr(corr, l, q.members, q.cond, alpha) for q in queries]
    except CausalPredError as exc:
        return type(exc), str(exc)
    return [o.value.value for o in outs], [o.p_value for o in outs]


def _batch(corr, l, queries, alpha):
    try:
        labels, p = fisher_z_many(corr, l, ci_rows(queries), alpha)
    except CausalPredError as exc:
        return type(exc), str(exc)
    assert labels.shape == p.shape == (len(queries),)
    return labels.tolist(), p.tolist()


def _assert_batch_matches_scalar(corr, l, queries, alpha):
    want, got = _scalar_loop(corr, l, queries, alpha), _batch(corr, l, queries, alpha)
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[0] == want[0]
    assert max((abs(g - w) for g, w in zip(got[1], want[1])), default=0.0) <= 1e-14


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 8),
    st.sampled_from([4, 5, 20, 1000, 10_000]),
    st.floats(0.0, 3.0),
    st.sampled_from([0.001, 0.05, 0.5]),
)
def test_fisher_z_many_matches_the_scalar_loop(seed, k, l, mixing, alpha):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, k)) @ (np.eye(k) + mixing * rng.standard_normal((k, k)))
    corr = np.corrcoef(x, rowvar=False)
    queries = _universe(k, (0, 1, 2))
    rng.shuffle(queries)
    _assert_batch_matches_scalar(corr, l, queries, alpha)


@pytest.mark.parametrize("seed", [5, 17])
def test_fisher_z_many_matches_the_scalar_loop_on_the_ci_universe(seed):
    d = sample(gen_linear_scm(20, 1.5, seed), 10_000, seed + 1).dataset
    _assert_batch_matches_scalar(correlation_matrix(d), d.l, _universe(20), 0.001)


@pytest.mark.parametrize("case", sorted(_collinear_cases()))
@pytest.mark.parametrize("l", [4, 500])
def test_fisher_z_many_raises_the_first_error_of_the_scalar_loop(case, l):
    # the case's own query comes last, after the order-0/1/2 universe of
    # its columns; at l = 4 every order-1 or order-2 query has too few
    # samples
    cols, cond = _collinear_cases()[case]
    corr = np.corrcoef(np.column_stack(cols), rowvar=False)
    queries = _universe(len(cols), (0, 1, 2)) + [Query.ci(0, 1, cond)]
    _assert_batch_matches_scalar(corr, l, queries, 0.05)
    refused = isinstance(_batch(corr, l, queries, 0.05)[0], type)
    assert refused == (not case.startswith("independent") or (l == 4 and len(cols) > 2))


def test_fisher_z_many_guards_at_the_boundary():
    # where the scalar's guards just pass or just refuse, the batch agrees
    rng = np.random.default_rng(11)
    for vecs in _near_singular_triples(rng, 300):
        v = np.array(vecs)
        corr = v @ v.T
        np.fill_diagonal(corr, 1.0)
        _assert_batch_matches_scalar(corr, 1000, [Query.ci(0, 1, (2,))], 0.05)
    for delta in np.logspace(-14, -10, 100):
        r = 1.0 - delta
        corr = np.array([[1.0, r], [r, 1.0]])
        _assert_batch_matches_scalar(corr, 1000, [Query.ci(0, 1)], 0.05)
    corr = np.eye(4)
    corr[0, 2] = corr[2, 0] = corr[0, 1] = corr[1, 0] = np.nan
    _assert_batch_matches_scalar(corr, 100, _universe(4, (0, 1, 2)), 0.05)


def test_fisher_z_many_inverts_each_submatrix_as_the_scalar_does():
    # the stacked inverse and condition number round each order-2 and
    # order-3 submatrix as the former scalar's one-matrix calls did, so
    # the p-value of its partial correlation is bit-equal
    d = sample(gen_linear_scm(15, 1.5, 3), 2000, 4).dataset
    corr = correlation_matrix(d)
    queries = _universe(15, (2, 3))[::6]
    _, p = fisher_z_many(corr, d.l, ci_rows(queries), 0.05)
    for q, got in zip(queries, p.tolist()):
        r = closed_form_partial_correlation(corr, q.members, q.cond)
        stat = np.sqrt(d.l - len(q.cond) - 3) * np.arctanh(r)
        assert got == erfc(abs(stat) / np.sqrt(2.0)), q


# the arguments where Cephes' erfc changes step: 0 and -0.0, both sides of
# 1, 8 and sqrt(MAXLOG), the band near 26.5 whose results are subnormal,
# and inf and NaN
ERFC_EDGES = np.array(
    [0.0, -0.0, np.inf, np.nan]
    + [np.nextafter(edge, side) for edge in (1.0, 8.0, stattests._SQRT_MAXLOG) for side in (0.0, 30.0)]
    + [1.0, 8.0, stattests._SQRT_MAXLOG, *np.linspace(26.2, 26.7, 101)]
)


def _assert_erfc_bit_equal(x):
    # a platform whose libm exp rounds otherwise than scipy's fails here
    assert stattests._erfc(x).tobytes() == erfc(x).tobytes(), x


def test_erfc_port_is_scipys_at_each_step_edge():
    x = ERFC_EDGES.copy()
    _assert_erfc_bit_equal(x)
    subnormal = (erfc(x) > 0) & (erfc(x) < np.finfo(float).tiny)
    assert subnormal.sum() > 10


def test_erfc_cut_is_where_the_square_passes_maxlog():
    # x <= _SQRT_MAXLOG is Cephes' test -x * x >= -MAXLOG, since a rounded
    # square grows with x
    cut = stattests._SQRT_MAXLOG
    after = np.nextafter(cut, 30.0)
    assert cut * cut <= stattests._MAXLOG < after * after


def test_erfc_port_is_scipys_across_blocks():
    x = np.random.default_rng(7).uniform(0.0, 30.0, 3 * stattests._ERFC_BLOCK + 5)
    _assert_erfc_bit_equal(x)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(0.0, 30.0), st.sampled_from(ERFC_EDGES.tolist())), min_size=1, max_size=200))
def test_erfc_port_is_scipys_bit_for_bit(xs):
    _assert_erfc_bit_equal(np.array(xs))


def test_fisher_z_many_preconditions():
    corr = np.eye(4)
    with pytest.raises(InvalidSize):
        fisher_z_many(corr, 100, [[0, 1, -1, 3]], 0.05)
    with pytest.raises(InvalidSize):
        fisher_z_many(corr, 100, [0, 1], 0.05)
    with pytest.raises(InvalidParams):
        fisher_z_many(corr, 100, [[0, 1]], 1.0)
    labels, p = fisher_z_many(corr, 100, ci_rows([]), 0.05)
    assert labels.shape == p.shape == (0,)


@pytest.mark.parametrize(
    "row, error",
    [([-2, 1], UnknownNode), ([0, 1, -3], UnknownNode), ([0, 5], UnknownNode), ([0, 0], InvalidSize),
     ([0, 1, 1], InvalidSize), ([0, 1, -1, 3], InvalidSize), ([0, 1, -1, 5], UnknownNode)],
)
def test_fisher_z_many_refuses_bad_rows_as_d_separated_many_does(row, error):
    # a negative id read a row from the end of the matrix, a condition below
    # -1 read as none, an id past the matrix ended in IndexError, a node
    # twice in DegenerateInput, and a node after the -1 padding was read as
    # a condition by d_separated_many
    rows = [[0, 1, 2, -1], row + [-1] * (4 - len(row)), [-2, 0, -1, -1]]
    with pytest.raises(error) as want:
        d_separated_many(Dag(4, []), rows)
    with pytest.raises(error) as got:
        fisher_z_many(np.eye(4), 100, rows, 0.05)
    assert str(got.value) == str(want.value)


def test_fisher_z_many_reads_padded_rows_as_the_narrow_ones():
    corr = correlation_matrix(sample(gen_linear_scm(6, 1.5, 3), 500, 4).dataset)
    rows = ci_query_array(6, (0, 1))
    wide = np.concatenate([rows, np.full((len(rows), 2), -1)], axis=1)
    want = fisher_z_many(corr, 500, rows, 0.05)
    assert all(np.array_equal(g, w) for g, w in zip(fisher_z_many(corr, 500, wide, 0.05), want))
    marginal = fisher_z_many(corr, 500, ci_query_array(6, [0]), 0.05)
    assert np.array_equal(marginal[1], want[1][:15])


def test_gamma_tail_equals_scipy_stats():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        mean, var = rng.uniform(1e-4, 1.0), 10.0 ** rng.uniform(-8, 0)
        m = int(rng.integers(20, 2000))
        shape, scale = mean**2 / var, var * m / mean
        stat = rng.uniform(-0.1, 4.0) * shape * scale
        want = float(gamma_dist.sf(stat, shape, scale=scale))
        assert _gamma_p_value(stat, mean, var, m) == want


# --- correlation estimators ---------------------------------------------------


def test_corr_linear_examples():
    y1 = np.arange(10.0)
    d = _dataset(y1, 2 * y1, -y1)
    assert corr_estimate(d, Query.unordered_pair(0, 1)).value.value == pytest.approx(1.0)
    assert corr_estimate(d, Query.unordered_pair(0, 2)).value.value == pytest.approx(-1.0)


def test_corr_monte_carlo():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100000)
    y = 0.3 * x + np.sqrt(1 - 0.09) * rng.standard_normal(100000)
    d = _dataset(x, y)
    assert corr_estimate(d, Query.unordered_pair(0, 1)).value.value == pytest.approx(0.3, abs=0.02)


def test_corr_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(500)
    y = x + rng.standard_normal(500)
    r1 = corr_estimate(_dataset(x, y), Query.unordered_pair(0, 1)).value.value
    r2 = corr_estimate(_dataset(3.0 * x + 7.0, y), Query.unordered_pair(0, 1)).value.value
    assert r1 == pytest.approx(r2)


def test_sign_examples():
    y1 = np.arange(10.0)
    d = _dataset(y1, 2 * y1, -y1)
    assert sign_estimate(d, Query.unordered_pair(0, 1)).value.value == 1
    assert sign_estimate(d, Query.unordered_pair(0, 2)).value.value == -1


def test_sign_flips_under_negation():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(500)
    y = x + rng.standard_normal(500)
    s1 = sign_estimate(_dataset(x, y), Query.unordered_pair(0, 1)).value.value
    s2 = sign_estimate(_dataset(x, -y), Query.unordered_pair(0, 1)).value.value
    assert s1 == -s2


def test_sign_zero_correlation():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ZeroCorrelation):
        sign_estimate(_dataset(x, y), Query.unordered_pair(0, 1))


def test_estimator_preconditions():
    d = _dataset(np.ones(2), np.ones(2))
    with pytest.raises(InvalidSize):
        corr_estimate(d, Query.unordered_pair(0, 1))
    with pytest.raises(DegenerateInput):
        corr_estimate(_dataset(np.ones(10), np.arange(10.0)), Query.unordered_pair(0, 1))


@pytest.mark.parametrize("target", [0, 1, 2])
def test_overflowing_variance_is_named(target):
    # the squares of values near 1e160 overflow, so numpy would divide a
    # finite cross product by an infinite deviation and report 0
    cols = list(np.random.default_rng(4).standard_normal((3, 100)))
    cols[target] = cols[target] * 1e160
    d = Dataset(np.column_stack(cols), (5, 6, 7))
    calls = [
        lambda: correlation_matrix(d),
        lambda: correlation_matrix(d, (7, 6, 5)),
        lambda: fisher_z_ci(d, Query.ci(5, 6, (7,)), 0.05),
    ]
    if target < 2:
        calls += [
            lambda: fisher_z_ci(d, Query.ci(5, 6), 0.05),
            lambda: corr_estimate(d, Query.unordered_pair(5, 6)),
            lambda: sign_estimate(d, Query.unordered_pair(5, 6)),
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DegenerateInput, match=f"variance of column {5 + target} overflows"):
                call()
        if target == 2:  # a test that leaves the column out still runs
            assert 0.0 <= fisher_z_ci(d, Query.ci(5, 6), 0.05).p_value <= 1.0


@pytest.mark.parametrize("seed", range(16))
def test_correlation_matrix_is_corrcoef_bit_for_bit(seed):
    # one np.cov pass serves the checks and the corrcoef division
    d = sample(gen_linear_scm(3 + 3 * seed, 1.5, seed), 5 + 331 * seed, seed + 1).dataset
    assert np.array_equal(correlation_matrix(d), np.corrcoef(d.samples, rowvar=False))
    ids = d.columns[::-1][:3]
    x = np.column_stack([d.column(v) for v in ids])
    assert np.array_equal(correlation_matrix(d, ids), np.corrcoef(x, rowvar=False))


def test_correlation_matrix_holds_one_k_by_k_array():
    # np.cov's result is divided and clipped in place; dividing and
    # clipping into copies held three k x k arrays, 96 MB traced here
    k = 2000
    d = _dataset(*np.random.default_rng(6).standard_normal((k, 5)))
    _, peak = traced_peak(lambda: correlation_matrix(d))
    assert peak < 1.05 * 8 * k * k


def test_one_row_is_refused_as_constant_without_a_numpy_warning():
    # np.cov of one row warns "Degrees of freedom <= 0"; the row is refused first
    d = Dataset(np.array([[1.0, 2.0, 3.0]]), (4, 5, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variables, first in ((None, 4), ((6, 5), 6)):
            with pytest.raises(DegenerateInput, match=f"^column {first} is constant$"):
                correlation_matrix(d, variables)


def test_correlation_matrix_of_variables_follows_their_order():
    d = _dataset(*np.random.default_rng(5).standard_normal((3, 50)))
    full = correlation_matrix(d)
    assert np.array_equal(correlation_matrix(d, (2, 0)), full[np.ix_([2, 0], [2, 0])])


# --- HSIC ---------------------------------------------------------------------


def test_median_bandwidth():
    x = np.array([0.0, 1.0, 2.0])
    # squared distances {1, 1, 4}, median 1, bandwidth sqrt(0.5)
    assert median_bandwidth(x) == pytest.approx(np.sqrt(0.5))
    with pytest.raises(DegenerateInput):
        median_bandwidth(np.ones(5))


def test_hsic_detects_nonlinear_dependence():
    hits = 0
    for s in range(20):
        rng = np.random.default_rng(s)
        x = rng.uniform(-1, 1, 500)
        y = x**2 + 0.05 * rng.standard_normal(500)
        out = hsic_independence(x, y, 0.05)
        hits += out.value.value == 0
    assert hits >= 19


def test_hsic_accepts_independent_data():
    hits = 0
    for s in range(60):
        rng = np.random.default_rng(1000 + s)
        out = hsic_independence(rng.uniform(size=200), rng.uniform(size=200), 0.05)
        hits += out.value.value == 1
    assert hits >= 50  # false-rejection far below 50%; calibration in acceptance


def test_hsic_invariant_under_joint_permutation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(100)
    y = x + rng.standard_normal(100)
    perm = rng.permutation(100)
    a = hsic_independence(x, y, 0.05)
    b = hsic_independence(x[perm], y[perm], 0.05)
    assert a.p_value == pytest.approx(b.p_value)


def test_hsic_preconditions():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidSize):
        hsic_independence(rng.standard_normal(10), rng.standard_normal(10), 0.05)
    with pytest.raises(InvalidSize):
        hsic_independence(rng.standard_normal(30), rng.standard_normal(31), 0.05)


# --- kernel regression --------------------------------------------------------


def test_kernel_regress_constant_target():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(200)
    resid = kernel_regress(x, np.full(200, 3.0))
    assert np.abs(resid).max() < 1e-6


def test_kernel_regress_sine_fit():
    rng = np.random.default_rng(12)
    x = rng.uniform(-3, 3, 500)
    resid = kernel_regress(x, np.sin(x))
    assert np.sqrt(np.mean(resid**2)) < 0.05


def test_kernel_regress_null_fit_keeps_variance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    resid = kernel_regress(x, y)
    assert abs(np.var(resid) / np.var(y) - 1.0) < 0.1


# --- additive-noise test ------------------------------------------------------


def test_anm_forward_direction_accepted():
    hits = 0
    for s in range(10):
        scm = gen_gam_chain(2, seed=s)
        d = sample(scm, 600, seed=s + 100).dataset
        out = anm_test(d, Query.ordered_pair(0, 1), 0.05)
        hits += out.value.value == 1
    assert hits >= 9


def test_anm_requires_marginal_dependence():
    rng = np.random.default_rng(14)
    d = _dataset(rng.uniform(size=300), rng.uniform(size=300))
    out = anm_test(d, Query.ordered_pair(0, 1), 0.05)
    assert out.value.value == 0


def test_anm_wrong_kind():
    rng = np.random.default_rng(15)
    d = _dataset(rng.uniform(size=50), rng.uniform(size=50))
    with pytest.raises(InvalidSize):
        anm_test(d, Query.ci(0, 1), 0.05)


# --- the kernel layer against its former dense formulas -----------------------


def _kernel_column(seed, m, ties):
    """A seeded column; with ``ties``, values from a handful of integers,
    so many distances repeat or vanish."""
    rng = np.random.default_rng(seed)
    if ties:
        return rng.integers(0, 7, m).astype(float)
    return rng.standard_normal(m)


KERNEL_CASES = [(20, False), (21, True), (57, False), (200, True), (333, False), (700, True)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CausalPredError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=120),
    st.sampled_from([1.0, 0.1, 1e-3, 1e6]),
)
def test_median_bandwidth_equals_full_matrix_median(values, scale):
    # integer-valued columns tie and repeat; both odd and even counts of
    # positive pairs occur
    x = np.asarray(values, dtype=float) * scale
    assert _outcome(median_bandwidth, x) == _outcome(ref_median_bandwidth, x)


@pytest.mark.parametrize("m,ties", KERNEL_CASES + [(2, False), (3, True), (1000, True)])
def test_median_bandwidth_seeded_bit_for_bit(m, ties):
    x = _kernel_column(m, m, ties)
    assert _outcome(median_bandwidth, x) == _outcome(ref_median_bandwidth, x)


def _bandwidth_outcomes(x):
    """The package's bandwidth or error, raised with every warning an
    error, and the reference's, whose overflowing median is the package's
    refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(median_bandwidth, x)
    want = _outcome(ref_median_bandwidth, x)
    return got, OVERFLOW_ERROR if want == np.inf else want


@st.composite
def _selection_columns(draw):
    """Columns of 2 to 1,200 values at scales from 1e-300, where every
    square underflows, to 1e150, where the middle ones can overflow: normal
    values, few values with -0.0 next to 0.0, all but one equal, and two
    far clusters of unequal size."""
    m = draw(st.integers(2, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "all but one", "clusters"]))
    if kind == "normal":
        x = rng.standard_normal(m)
    elif kind == "ties":
        x = rng.choice([-0.0, 0.0, 1.0, 3.0, -2.5], m)
    elif kind == "all but one":
        x = np.full(m, draw(st.sampled_from([-0.0, 0.0, 1.0])))
        x[rng.integers(m)] = 1.5
    else:
        small = draw(st.integers(1, max(m // 2, 1)))
        spread = draw(st.sampled_from([0.0, 1e-3, 1.0]))
        x = np.r_[rng.standard_normal(m - small), 1e6 + spread * np.arange(small)]
    return x * draw(st.sampled_from([1e-300, 1e-160, 1e-5, 1.0, 1e5, 1e150]))


@settings(max_examples=300, deadline=None)
@given(_selection_columns())
def test_the_selected_median_is_the_listed_median(x):
    got, want = _bandwidth_outcomes(x)
    assert got == want


# chosen columns, each compared bit for bit: both parities of the
# positive count, ties of -0.0 and 0.0, squares that underflow to 0 next
# to ones that do not, a mean of two middle squares that overflows and a
# lone middle square above half the largest double that does not, and two
# far clusters where the stride sample's first bracket misses the median
SELECTION_CASES = {
    "odd positives": np.array([0.0, 1.0, 3.0, 3.0]),
    "even positives": np.array([0.0, 1.0, 3.0, 7.0]),
    "signed zeros": np.array([-0.0, 0.0, 1.0, -0.0, 0.0, 2.0]),
    "underflow": np.r_[np.arange(300) * 1e-162, 1.0, 2.0],
    "overflow": np.r_[np.zeros(10), np.full(10, 1.2e154)],
    "odd near overflow": np.r_[np.zeros(9), np.full(11, 1.2e154)],
    "clusters": np.r_[np.arange(575.0), 1e6 + np.arange(25.0)],
    "all but one": np.r_[np.ones(999), 2.0],
}


@pytest.mark.parametrize("name", SELECTION_CASES)
def test_the_selected_median_on_chosen_columns(name):
    got, want = _bandwidth_outcomes(SELECTION_CASES[name])
    assert got == want


@pytest.mark.parametrize(
    "x",
    [
        SELECTION_CASES["clusters"],
        np.r_[np.arange(1151.0), 1e6 + np.arange(49.0)],
        np.random.default_rng(23).standard_normal(1200),
    ],
    ids=["clusters-600", "clusters-1200", "normal-1200"],
)
def test_the_selection_allocates_less_than_one_distance_array(monkeypatch, x):
    # these columns take more than one round of sampling: on the clusters
    # the first round's lower candidate lands above the median; yet the
    # selection holds a bounded number of m-vectors, under 1,000 bytes a
    # row, where listing every distance took 4 m^2 bytes and more
    m = x.size
    rounds = []
    sampled = stattests._bracket_squares

    def counted(s, starts, ends, positions=None):
        rounds.append(positions is not None)
        return sampled(s, starts, ends, positions)

    monkeypatch.setattr(stattests, "_bracket_squares", counted)
    median_bandwidth(x)
    rounds.clear()
    got, peak = traced_peak(lambda: median_bandwidth(x))
    assert sum(rounds) >= 2
    assert peak < 1000 * m < 8 * m * m
    assert got == ref_median_bandwidth(x)


NON_FINITE = (DegenerateInput, "column holds NaN or an infinite value")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_kernel_layer_refuses_a_non_finite_entry(bad):
    rng = np.random.default_rng(24)
    x = rng.uniform(-1, 1, 30)
    y = np.sin(3 * x) + 0.1 * rng.standard_normal(30)
    z = x.copy()
    z[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _error(median_bandwidth, z) == NON_FINITE
        for a, b in ((z, y), (y, z)):
            assert _error(hsic_independence, a, b, 0.05) == NON_FINITE
            assert _error(hsic_statistic, a, b) == NON_FINITE
            assert _error(kernel_regress, a, b) == NON_FINITE
            assert _error(anm_test, _dataset(a, b), Query.ordered_pair(0, 1), 0.05) == NON_FINITE
        # the size checks come first
        assert _error(hsic_independence, z[:10], y[:10], 0.05) == (InvalidSize, "need at least 20 samples")
        assert _error(kernel_regress, z, y[:29]) == (InvalidSize, "columns must have equal length")


@pytest.mark.parametrize("m,ties", KERNEL_CASES)
def test_hsic_matches_dense_centring(m, ties):
    x = _kernel_column(m, m, ties)
    y = np.sin(x) + 0.5 * _kernel_column(m + 1, m, ties)
    for got, want in zip(hsic_statistic(x, y), ref_hsic_statistic(x, y)):
        assert got == pytest.approx(want, rel=1e-10, abs=0)
    p = hsic_independence(x, y, 0.05).p_value
    assert abs(p - ref_hsic_p_value(x, y)) <= 1e-10


@pytest.mark.parametrize("m", [20, 21, 57, 200, 333, 600])
@pytest.mark.parametrize("ties", [False, True])
def test_hsic_independence_is_the_gamma_p_value_of_hsic_statistic(m, ties):
    # independent, weakly and strongly dependent pairs, so p-values spread
    # over (0, 1]; the label compares p with alpha, equal alpha included
    x = _kernel_column(m, m, ties)
    for slope in (0.0, 0.3, 1.0):
        y = slope * x + _kernel_column(m + 1, m, ties)
        p = _gamma_p_value(*hsic_statistic(x, y), m)
        for alpha in {0.01, 0.05, 0.5, p} - {0.0, 1.0}:
            out = hsic_independence(x, y, alpha)
            assert out.p_value == p
            assert out.value.value == (1 if p > alpha else 0)
            assert out.alpha == alpha


@pytest.mark.parametrize("m,ties", KERNEL_CASES)
def test_kernel_regress_matches_reference(m, ties):
    x = _kernel_column(m, m, ties)
    y = np.cos(2 * x) + 0.3 * _kernel_column(m + 1, m, ties)
    np.testing.assert_allclose(kernel_regress(x, y), ref_kernel_regress(x, y), rtol=0, atol=1e-10)


@pytest.mark.parametrize("m,ties", KERNEL_CASES)
def test_anm_matches_five_bandwidth_reference(m, ties):
    x = _kernel_column(m, m, ties)
    y = np.tanh(x) + 0.2 * _kernel_column(m + 1, m, ties)
    d = _dataset(x, y)
    for source, target, (a, b) in ((0, 1, (x, y)), (1, 0, (y, x))):
        out = anm_test(d, Query.ordered_pair(source, target), 0.05)
        value, p = ref_anm_test(a, b, 0.05)
        assert out.value.value == value
        assert abs(out.p_value - p) <= 1e-10


def test_anm_matches_reference_on_gam_chain():
    scm = gen_gam_chain(3, seed=4)
    d = sample(scm, 600, seed=104).dataset
    for s, t in ((0, 1), (1, 0), (1, 2), (0, 2)):
        out = anm_test(d, Query.ordered_pair(s, t), 0.05)
        value, p = ref_anm_test(d.column(s), d.column(t), 0.05)
        assert out.value.value == value
        assert abs(out.p_value - p) <= 1e-10


def test_anm_source_state_follows_the_column_values():
    # inside a session anm_test keeps the last source's Gram and ridge
    # factor: sources interleave and two datasets share column ids, and
    # every outcome must still be the reference's
    first = sample(gen_gam_chain(3, seed=5), 200, seed=105).dataset
    second = sample(gen_gam_chain(3, seed=6), 200, seed=106).dataset
    calls = [
        (first, 0, 1),
        (first, 1, 0),
        (first, 0, 2),
        (first, 0, 1),
        (second, 0, 1),
        (first, 0, 1),
    ]
    with anm_session(first):
        for d, s, t in calls:
            out = anm_test(d, Query.ordered_pair(s, t), 0.05)
            value, p = ref_anm_test(d.column(s), d.column(t), 0.05)
            assert out.value.value == value
            assert abs(out.p_value - p) <= 1e-10


def _error(fn, *args):
    with pytest.raises(CausalPredError) as info:
        fn(*args)
    return type(info.value), str(info.value)


# a column of two clusters 1.2e154 apart: the median squared distance
# overflows; the former code took an infinite bandwidth and an all-ones
# Gram, so the gamma moments vanished, and the package now refuses the
# column by its distances
OVERFLOW = np.r_[np.zeros(10), np.full(10, 1.2e154)]
OVERFLOW_ERROR = (DegenerateInput, "squared distances between points overflow; rescale the column")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_hsic_errors_unchanged_and_in_order():
    rng = np.random.default_rng(16)
    cases = [
        (rng.standard_normal(10), np.ones(11)),  # unequal lengths before too few
        (np.ones(10), np.ones(10)),  # too few before constant
        (np.ones(30), rng.standard_normal(30)),  # constant column
        (rng.standard_normal(30), np.full(30, 2.0)),
    ]
    want = [InvalidSize, InvalidSize, DegenerateInput, DegenerateInput]
    for (x, y), kind in zip(cases, want):
        got = _error(hsic_independence, x, y, 0.05)
        assert got[0] is kind
        assert got == _error(ref_hsic_p_value, x, y) == _error(hsic_statistic, x, y)
        # alpha is checked before the columns
        assert _error(hsic_independence, x, y, 1.0) == (InvalidParams, "alpha 1.0 outside (0, 1)")
    assert "gamma" in _error(ref_hsic_p_value, OVERFLOW, OVERFLOW[::-1].copy())[1]
    for x, y in ((OVERFLOW, OVERFLOW[::-1].copy()), (rng.standard_normal(20), OVERFLOW)):
        assert _error(hsic_independence, x, y, 0.05) == _error(hsic_statistic, x, y) == OVERFLOW_ERROR
    assert _error(median_bandwidth, OVERFLOW) == OVERFLOW_ERROR
    assert "gamma" in _error(_gamma_p_value, 1.0, 0.0, 1.0, 30)[1]
    for x, y in cases[:2]:
        assert _error(kernel_regress, x, y) == _error(ref_kernel_regress, x, y)
    x = np.ones(30)
    assert _error(kernel_regress, x, x) == _error(ref_kernel_regress, x, x)


def test_an_outlying_point_leaves_a_finite_bandwidth_and_no_warning():
    # one value 1e160 away: its squared distances overflow to inf and its
    # kernel values are 0, but the median, the bandwidth and the test stand
    rng = np.random.default_rng(18)
    x = np.r_[rng.uniform(-1, 1, 59), 1e160]
    y = np.sin(3 * x[::-1]) + 0.1 * rng.standard_normal(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = anm_test(_dataset(y, x), Query.ordered_pair(1, 0), 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, p = ref_anm_test(x, y, 0.05)
    assert out.value.value == value and abs(out.p_value - p) <= 1e-10


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_anm_errors_unchanged_and_in_order():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, 40)
    cases = [
        (np.ones(10), np.arange(10.0)),  # too few before constant
        (np.ones(40), x),  # constant source
        (x, np.full(40, 3.0)),  # constant target
        (x, 1e-5 * x),  # the ridge fit leaves a constant residual
    ]
    for a, b in cases:
        got = _error(anm_test, _dataset(a, b), Query.ordered_pair(0, 1), 0.05)
        assert got == _error(ref_anm_test, a, b, 0.05)
    for a, b in ((OVERFLOW, OVERFLOW[::-1].copy()), (x[:20], OVERFLOW)):
        assert _error(anm_test, _dataset(a, b), Query.ordered_pair(0, 1), 0.05) == OVERFLOW_ERROR
    assert _error(anm_test, _dataset(x, 1e-5 * x), Query.ordered_pair(0, 1), 0.05) == (
        DegenerateInput,
        "constant column",
    )


def _session():
    """The state ``anm_test`` shares inside the current ``anm_session``."""
    return stattests._anm_session.get()


def _outcomes(d, universe):
    return [(out.value.value, out.p_value.hex()) for out in (anm_test(d, q, 0.05) for q in universe)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_refused_source_leaves_no_remembered_state():
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, 20)
    y = np.sin(3 * x) + 0.1 * rng.standard_normal(20)
    d = _dataset(x, y, OVERFLOW)
    with anm_session(d):
        anm_test(d, Query.ordered_pair(0, 1), 0.05)
        for _ in range(2):
            assert _error(anm_test, d, Query.ordered_pair(2, 1), 0.05) == OVERFLOW_ERROR
            assert _session().source is None and _session().arrays[0].shape == (20, 20)
        for s, t in ((0, 1), (1, 0), (0, 1)):
            out = anm_test(d, Query.ordered_pair(s, t), 0.05)
            value, p = ref_anm_test(d.column(s), d.column(t), 0.05)
            assert out.value.value == value
            assert abs(out.p_value - p) <= 1e-10


def test_anm_universe_holds_at_most_four_grams():
    # the source's centred Gram and ridge factor, the target's centred Gram
    # and one product, plus a few m-vectors; a fifth m x m array would add
    # 3.5 % to the peak RSS of the anm_polytree benchmark, and taking a
    # bandwidth (about 1.06 arrays of distances and mask) while three
    # arrays are live adds about 40 m-vectors
    m = 600
    d = sample(gen_gam_scm(10, 1.5, 3), m, seed=4).dataset
    universe = enumerate_queries(10, QueryKind.ORDERED_PAIR)
    # one small test first, so that no first-call set-up is traced
    anm_test(sample(gen_gam_chain(2, seed=1), 40, seed=2).dataset, Query.ordered_pair(0, 1), 0.05)

    def one_pass():
        with anm_session(d):
            for q in universe:
                anm_test(d, q, 0.05)

    _, peak = traced_peak(one_pass)
    assert peak <= 4 * 8 * m * m + 16 * 8 * m


def test_a_second_universe_pass_reuses_the_workspace():
    # the first pass over m = 600 allocates the three m x m arrays of the
    # session; a second pass in the same session computes in them and
    # allocates less than one m x m array in all.  Both passes give the
    # same outcomes; every tenth, one or two per source, is checked against
    # the reference, which takes 0.16 s a test at this m
    m = 600
    d = sample(gen_gam_scm(10, 1.5, 3), m, seed=4).dataset
    universe = enumerate_queries(10, QueryKind.ORDERED_PAIR)
    with anm_session(d):
        first = [anm_test(d, q, 0.05) for q in universe]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            second = [anm_test(d, q, 0.05) for q in universe]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - start < 8 * m * m
    assert second == first
    for q, out in zip(universe[::10], second[::10]):
        value, p = ref_anm_test(d.column(q.members[0]), d.column(q.members[1]), 0.05)
        assert out.value.value == value
        assert abs(out.p_value - p) <= 1e-10


def test_a_session_frees_its_state_when_it_exits():
    # the three m x m arrays, the source and the marginals live only as
    # long as the block: after it, the traced memory is back where it was
    m = 300
    d = sample(gen_gam_scm(4, 1.5, 25), m, seed=26).dataset
    universe = enumerate_queries(4, QueryKind.ORDERED_PAIR)
    anm_test(d, universe[0], 0.05)  # no first-call set-up is traced
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with anm_session(d):
            for q in universe[:5]:  # 0 -> 2, 0 -> 3 and 1 -> 2 meet no reverse test
                anm_test(d, q, 0.05)
            assert tracemalloc.get_traced_memory()[0] - start >= 3 * 8 * m * m
            assert len(_session().marginals) == 3
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _session() is None
    assert end - start <= 16 * 8 * m


def test_the_workspace_follows_a_change_of_the_row_count():
    # inside a session on the 200-row dataset, tests on a 300-row dataset
    # interleave; each computes alone, in arrays of its own m, and leaves
    # the session's arrays and source as they were
    small = sample(gen_gam_scm(4, 1.5, 7), 200, seed=8).dataset
    large = sample(gen_gam_scm(4, 1.5, 9), 300, seed=10).dataset
    pairs = [(0, 1), (0, 2), (1, 0), (3, 2)]
    with anm_session(small):
        for d, (s, t) in [(d, pair) for pair in pairs for d in (small, large, small)]:
            out = anm_test(d, Query.ordered_pair(s, t), 0.05)
            value, p = ref_anm_test(d.column(s), d.column(t), 0.05)
            assert out.value.value == value
            assert abs(out.p_value - p) <= 1e-10
            assert _session().arrays[0].shape == (small.l, small.l)
            assert _session().source[0] == s


def test_a_change_of_the_row_count_frees_the_old_arrays_before_allocating():
    # from a session at m = 300 to one at m = 320 the traced memory grows
    # by the difference of the three arrays, not by three new ones next to
    # the old
    first = sample(gen_gam_scm(3, 1.5, 15), 300, seed=16).dataset
    second = sample(gen_gam_scm(3, 1.5, 17), 320, seed=18).dataset
    tracemalloc.start()
    try:
        with anm_session(first):
            anm_test(first, Query.ordered_pair(0, 1), 0.05)
            start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with anm_session(second):
            anm_test(second, Query.ordered_pair(0, 1), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * 320 * 320


def test_a_failed_allocation_leaves_a_record_the_next_test_reads(monkeypatch):
    # when the session's first test cannot allocate the arrays, the session
    # holds none, and its next test allocates them
    first = sample(gen_gam_scm(3, 1.5, 11), 100, seed=12).dataset
    second = sample(gen_gam_scm(3, 1.5, 13), 120, seed=14).dataset
    anm_test(first, Query.ordered_pair(0, 1), 0.05)
    empty = np.empty
    allocated = []

    def refuse_third(shape, *args, **kwargs):
        if shape == (120, 120):
            allocated.append(shape)
            if len(allocated) == 3:
                raise MemoryError
        return empty(shape, *args, **kwargs)

    with anm_session(second):
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", refuse_third)
            with pytest.raises(MemoryError):
                anm_test(second, Query.ordered_pair(0, 1), 0.05)
        assert (_session().arrays, _session().source, _session().marginals) == (None, None, {})
        for d in (second, first, second):
            out = anm_test(d, Query.ordered_pair(0, 1), 0.05)
            value, p = ref_anm_test(d.column(0), d.column(1), 0.05)
            assert out.value.value == value
            assert abs(out.p_value - p) <= 1e-10


def test_a_universe_pass_shares_each_pairs_marginal_hsic(monkeypatch):
    # source by source in one session, n = 10: 10 source Grams, 45 target
    # Grams (the reverse test of a pair reads its marginal from the
    # session) and 90 residual Grams; 45 marginal and 90 residual HSIC
    # products.  Without a session, each test computes alone: 270 and 180
    d = sample(gen_gam_scm(10, 1.5, 3), 200, seed=4).dataset
    universe = enumerate_queries(10, QueryKind.ORDERED_PAIR)
    calls = {"_gram": 0, "_hsic_moments": 0}
    for name in calls:
        original = getattr(stattests, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stattests, name, counted)
    with anm_session(d):
        for q in universe:
            anm_test(d, q, 0.05)
        assert _session().marginals == {}
    assert calls == {"_gram": 145, "_hsic_moments": 135}
    calls.update(_gram=0, _hsic_moments=0)
    for q in universe:
        anm_test(d, q, 0.05)
    assert calls == {"_gram": 270, "_hsic_moments": 180}


@pytest.mark.parametrize("order", ["source-major", "reversed", "shuffled"])
def test_shared_marginals_give_the_outcomes_of_lone_tests(order):
    # the session's statistic and variance are the reverse test's bit for
    # bit, and its mean is recomputed in the reverse test's order, so the
    # outcomes equal those of each test run alone
    d = sample(gen_gam_scm(10, 1.5, 3), 200, seed=4).dataset
    universe = enumerate_queries(10, QueryKind.ORDERED_PAIR)
    if order == "reversed":
        universe = universe[::-1]
    elif order == "shuffled":
        universe = [universe[i] for i in np.random.default_rng(21).permutation(len(universe))]
    with anm_session(d):
        shared = _outcomes(d, universe)
        assert _session().marginals == {}  # every pair met both ways
    assert shared == _outcomes(d, universe)


def test_datasets_sharing_column_ids_do_not_share_marginals():
    # the session's marginals are keyed by column ids of its own dataset,
    # so another dataset's 1 -> 0 computes alone and does not read the
    # session's 0 -> 1, which its own 1 -> 0 then takes out
    first = sample(gen_gam_chain(2, seed=22), 200, seed=122).dataset
    second = sample(gen_gam_chain(2, seed=23), 200, seed=123).dataset
    with anm_session(first):
        anm_test(first, Query.ordered_pair(0, 1), 0.05)
        assert list(_session().marginals) == [(0, 1)]
        out = anm_test(second, Query.ordered_pair(1, 0), 0.05)
        assert list(_session().marginals) == [(0, 1)]
        anm_test(first, Query.ordered_pair(1, 0), 0.05)
        assert _session().marginals == {}
    value, p = ref_anm_test(second.column(1), second.column(0), 0.05)
    assert out.value.value == value
    assert abs(out.p_value - p) <= 1e-10


def test_the_marginal_memo_holds_at_most_one_array_of_keys():
    # 45 forward pairs at m = 40 meet no reverse test: the session keeps
    # one entry per pair, its ids and three floats, and no column
    m = 40
    d = sample(gen_gam_scm(10, 1.5, 24), m, seed=124).dataset
    with anm_session(d):
        for a, b in combinations(range(10), 2):
            anm_test(d, Query.ordered_pair(a, b), 0.05)
        marginals = _session().marginals
    assert list(marginals) == list(combinations(range(10), 2))
    assert all(len(entry) == 3 and all(isinstance(v, float) for v in entry) for entry in marginals.values())


def test_threads_with_sessions_of_their_own_get_lone_outcomes():
    # each thread's session is its own, so three source-major passes on
    # datasets that share column ids and m interleave freely, more threads
    # than cores and a short switch interval making them interleave often
    datasets = [sample(gen_gam_scm(5, 1.5, seed), 100, seed=seed + 1).dataset for seed in (27, 29, 31)]
    universe = enumerate_queries(5, QueryKind.ORDERED_PAIR)
    barrier = threading.Barrier(len(datasets), timeout=60)
    results = [None] * len(datasets)

    def run(i):
        d = datasets[i]
        with anm_session(d):
            barrier.wait()
            outcomes = _outcomes(d, universe)
            results[i] = outcomes, _session().data is d, _session().marginals

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(datasets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(_outcomes(d, universe), True, {}) for d in datasets]
