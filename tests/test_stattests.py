import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpred.core import Dataset, Query
from causalpred.errors import (
    CausalPredError,
    DegenerateInput,
    InvalidParams,
    InvalidSize,
    ZeroCorrelation,
)
from causalpred.stattests import (
    TestOutcome,
    anm_test,
    corr_estimate,
    fisher_z_ci,
    fisher_z_from_corr,
    hsic_independence,
    hsic_statistic,
    kernel_regress,
    median_bandwidth,
    partial_correlation,
    sign_estimate,
)
from causalpred.synthgen import gen_gam_chain, sample
from oracles import (
    ref_anm_test,
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


def _error(fn, *args):
    with pytest.raises(CausalPredError) as info:
        fn(*args)
    return type(info.value), str(info.value)


# a column of two clusters 1.2e154 apart: the median squared distance
# overflows, the bandwidth is infinite and the Gram is all ones, so the
# gamma moments vanish
OVERFLOW = np.r_[np.zeros(10), np.full(10, 1.2e154)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_hsic_errors_unchanged_and_in_order():
    rng = np.random.default_rng(16)
    cases = [
        (rng.standard_normal(10), np.ones(11)),  # unequal lengths before too few
        (np.ones(10), np.ones(10)),  # too few before constant
        (np.ones(30), rng.standard_normal(30)),  # constant column
        (rng.standard_normal(30), np.full(30, 2.0)),
        (OVERFLOW, OVERFLOW[::-1].copy()),  # undefined gamma
    ]
    want = [InvalidSize, InvalidSize, DegenerateInput, DegenerateInput, DegenerateInput]
    for (x, y), kind in zip(cases, want):
        got = _error(hsic_independence, x, y, 0.05)
        assert got[0] is kind
        assert got == _error(ref_hsic_p_value, x, y)
    assert "gamma" in got[1]
    for x, y in cases[:2]:
        assert _error(kernel_regress, x, y) == _error(ref_kernel_regress, x, y)
    x = np.ones(30)
    assert _error(kernel_regress, x, x) == _error(ref_kernel_regress, x, x)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_anm_errors_unchanged_and_in_order():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, 40)
    cases = [
        (np.ones(10), np.arange(10.0)),  # too few before constant
        (np.ones(40), x),  # constant source
        (x, np.full(40, 3.0)),  # constant target
        (x, 1e-5 * x),  # the ridge fit leaves a constant residual
        (OVERFLOW, OVERFLOW[::-1].copy()),  # undefined gamma in the marginal test
    ]
    for a, b in cases:
        got = _error(anm_test, _dataset(a, b), Query.ordered_pair(0, 1), 0.05)
        assert got == _error(ref_anm_test, a, b, 0.05)
    assert _error(anm_test, _dataset(x, 1e-5 * x), Query.ordered_pair(0, 1), 0.05) == (
        DegenerateInput,
        "constant column",
    )
