import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as gamma_dist

from causalpred.core import Dataset, Query, QueryKind, ci_query_array, ci_rows, enumerate_queries
from causalpred.errors import (
    CausalPredError,
    DegenerateInput,
    InvalidParams,
    InvalidSize,
    ZeroCorrelation,
)
from causalpred import stattests
from causalpred.stattests import (
    TestOutcome,
    _gamma_p_value,
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
    partial_correlation,
    sign_estimate,
)
from causalpred.synthgen import gen_gam_chain, gen_gam_scm, gen_linear_scm, sample
from oracles import (
    ref_anm_test,
    ref_fisher_z_from_corr,
    ref_hsic_p_value,
    ref_hsic_statistic,
    ref_kernel_regress,
    ref_median_bandwidth,
)


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
    corr = np.ones((3, 3))
    with pytest.raises(DegenerateInput):
        partial_correlation(corr, (0, 1), (2,))


def test_partial_correlation_closed_form():
    # rho_{01.2} = (r01 - r02 r12) / sqrt((1-r02^2)(1-r12^2))
    corr = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.4], [0.5, 0.4, 1.0]])
    got = partial_correlation(corr, (0, 1), (2,))
    want = (0.3 - 0.5 * 0.4) / np.sqrt((1 - 0.25) * (1 - 0.16))
    assert got == pytest.approx(want)


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


# --- batch Fisher-Z against the scalar loop -----------------------------------


def _universe01(k):
    order1 = enumerate_queries(k, QueryKind.COND_INDEP, 1) if k > 2 else []
    return enumerate_queries(k, QueryKind.COND_INDEP, 0) + order1


def _scalar_loop(corr, l, queries, alpha):
    """What ``fisher_z_many`` replaces: labels and p-values query by query,
    or the (class, message) of the first error."""
    try:
        outs = [fisher_z_from_corr(corr, l, q.members, q.cond, alpha) for q in queries]
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
    queries = _universe01(k)
    rng.shuffle(queries)
    _assert_batch_matches_scalar(corr, l, queries, alpha)


@pytest.mark.parametrize("seed", [5, 17])
def test_fisher_z_many_matches_the_scalar_loop_on_the_ci_universe(seed):
    d = sample(gen_linear_scm(20, 1.5, seed), 10_000, seed + 1).dataset
    _assert_batch_matches_scalar(correlation_matrix(d), d.l, _universe01(20), 0.001)


@pytest.mark.parametrize(
    "case", sorted(c for c, (_, cond) in _collinear_cases().items() if len(cond) <= 1)
)
@pytest.mark.parametrize("l", [4, 500])
def test_fisher_z_many_raises_the_first_error_of_the_scalar_loop(case, l):
    # the case's own query comes last, after the order-0/1 universe of its
    # columns; at l = 4 every order-1 query has too few samples
    cols, cond = _collinear_cases()[case]
    corr = np.corrcoef(np.column_stack(cols), rowvar=False)
    queries = _universe01(len(cols)) + [Query.ci(0, 1, cond)]
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
    _assert_batch_matches_scalar(corr, 100, _universe01(4), 0.05)


def test_fisher_z_many_preconditions():
    corr = np.eye(4)
    with pytest.raises(InvalidSize):
        fisher_z_many(corr, 100, ci_rows([Query.ci(0, 1), Query.ci(0, 1, (2, 3))]), 0.05)
    with pytest.raises(InvalidSize):
        fisher_z_many(corr, 100, [[0, 1, -1, 3]], 0.05)
    with pytest.raises(InvalidSize):
        fisher_z_many(corr, 100, [0, 1], 0.05)
    with pytest.raises(InvalidParams):
        fisher_z_many(corr, 100, [[0, 1]], 1.0)
    labels, p = fisher_z_many(corr, 100, ci_rows([]), 0.05)
    assert labels.shape == p.shape == (0,)


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


def test_hsic_permutation_method_agrees_with_gamma():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 150)
    y = x**2 + 0.1 * rng.standard_normal(150)
    g = hsic_independence(x, y, 0.05)
    p = hsic_independence(x, y, 0.05, method="permutation", n_permutations=200, seed=1)
    assert g.value.value == p.value.value == 0


def test_hsic_preconditions():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidSize):
        hsic_independence(rng.standard_normal(10), rng.standard_normal(10), 0.05)
    with pytest.raises(InvalidSize):
        hsic_independence(rng.standard_normal(30), rng.standard_normal(31), 0.05)
    with pytest.raises(InvalidParams):
        hsic_independence(rng.standard_normal(30), rng.standard_normal(30), 0.05, method="bogus")


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


def test_ridge_scale_must_be_positive():
    # the ridge system is solved by a Cholesky factorisation, which needs
    # K + lam I positive definite
    rng = np.random.default_rng(20)
    x, y = rng.standard_normal(30), rng.standard_normal(30)
    for ridge in (0.0, -1e-3, float("nan")):
        with pytest.raises(InvalidParams):
            kernel_regress(x, y, ridge)
        with pytest.raises(InvalidParams):
            anm_test(_dataset(x, y), Query.ordered_pair(0, 1), 0.05, ridge)


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


@pytest.mark.parametrize("m,ties", KERNEL_CASES)
def test_hsic_matches_dense_centring(m, ties):
    x = _kernel_column(m, m, ties)
    y = np.sin(x) + 0.5 * _kernel_column(m + 1, m, ties)
    for got, want in zip(hsic_statistic(x, y), ref_hsic_statistic(x, y)):
        assert got == pytest.approx(want, rel=1e-10, abs=0)
    p = hsic_independence(x, y, 0.05).p_value
    assert abs(p - ref_hsic_p_value(x, y)) <= 1e-10


@pytest.mark.parametrize("m,ties", [(20, True), (45, False), (60, True)])
def test_hsic_permutation_reindexes_grams(m, ties):
    # weak dependence, so the permuted statistics fall on both sides of the
    # observed one and the count of exceedances is informative
    x = _kernel_column(m, m, ties)
    y = 0.3 * x + _kernel_column(m + 1, m, ties)
    got = hsic_independence(x, y, 0.05, method="permutation", n_permutations=60, seed=m)
    want = ref_hsic_p_value(x, y, method="permutation", n_permutations=60, seed=m)
    assert 1.0 / 61.0 < want < 1.0
    assert abs(got.p_value - want) <= 1e-10


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


def test_anm_source_state_follows_the_column_values_and_the_ridge():
    # anm_test remembers the last source's Gram and ridge factor: sources
    # interleave, two datasets share column ids and two ridges differ, and
    # every outcome must still be the reference's
    first = sample(gen_gam_chain(3, seed=5), 200, seed=105).dataset
    second = sample(gen_gam_chain(3, seed=6), 200, seed=106).dataset
    calls = [
        (first, 0, 1, 1e-3),
        (first, 1, 0, 1e-3),
        (first, 0, 2, 1e-3),
        (first, 0, 2, 0.1),
        (first, 0, 1, 1e-3),
        (second, 0, 1, 1e-3),
        (second, 0, 1, 0.1),
        (first, 0, 1, 0.1),
    ]
    for d, s, t, ridge in calls:
        out = anm_test(d, Query.ordered_pair(s, t), 0.05, ridge)
        value, p = ref_anm_test(d.column(s), d.column(t), 0.05, ridge)
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
        assert got == _error(ref_hsic_p_value, x, y)
    assert "gamma" in _error(ref_hsic_p_value, OVERFLOW, OVERFLOW[::-1].copy())[1]
    assert _error(hsic_independence, OVERFLOW, OVERFLOW[::-1].copy(), 0.05) == OVERFLOW_ERROR
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_refused_source_leaves_no_remembered_state():
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, 20)
    y = np.sin(3 * x) + 0.1 * rng.standard_normal(20)
    d = _dataset(x, y, OVERFLOW)
    anm_test(d, Query.ordered_pair(0, 1), 0.05)
    for _ in range(2):
        assert _error(anm_test, d, Query.ordered_pair(2, 1), 0.05) == OVERFLOW_ERROR
        assert stattests._last_source is None
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
    tracemalloc.start()
    try:
        for q in universe:
            anm_test(d, q, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * m * m + 16 * 8 * m
