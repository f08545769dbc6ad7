"""Statistical tests and estimators producing the labels models must predict.

Fisher-Z partial-correlation tests, Pearson correlation and sign
estimators, an HSIC independence test with gamma-approximated null, and
kernel ridge regression used by the bivariate additive-noise test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import pdist
from scipy.special import erfc, gammaincc

from .core import PropertyValue, Query, QueryKind, binary, real, sign
from .errors import DegenerateInput, InvalidParams, InvalidSize, ZeroCorrelation

VAR_EPS = 1e-12
DEFAULT_RIDGE_SCALE = 1e-3  # ridge = scale * sample count
# anm_test holds at most four dense m x m float arrays at once (8 bytes per
# entry): the last source's centred Gram and ridge factor, which serve all
# of its consecutive tests, the target's centred Gram and one product;
# 0.8 GB at this many rows
MAX_ANM_ROWS = 5000


@dataclass(frozen=True)
class TestOutcome:
    """Value of a test or estimator, with its p-value where one exists."""

    __test__ = False  # not a pytest test class despite the name

    value: PropertyValue
    p_value: float = None
    alpha: float = None

    def __post_init__(self):
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise InvalidParams(f"p-value {self.p_value} outside [0, 1]")


def _require_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise InvalidParams(f"alpha {alpha} outside (0, 1)")


def _check_nonconstant(*cols):
    # a variance that overflows is not that of a constant column; the
    # kernel layer refuses such a column by its squared distances
    with np.errstate(over="ignore"):
        for c in cols:
            if np.var(c) < VAR_EPS:
                raise DegenerateInput("constant column")


# --- Fisher-Z -----------------------------------------------------------------


def correlation_matrix(d, variables=None):
    """Correlation matrix of a dataset's columns, or of ``variables``' in that
    order.  A constant column, or one whose variance overflows, has no
    correlations numpy can compute, so it is refused by name first."""
    ids = d.columns if variables is None else tuple(variables)
    x = d.samples if variables is None else np.column_stack([d.column(v) for v in ids])
    with np.errstate(over="ignore", invalid="ignore"):
        variances = np.var(x, axis=0).tolist()
    for col, var in zip(ids, variances):
        if not math.isfinite(var):
            raise DegenerateInput(f"the variance of column {col} overflows; rescale it")
        if var < VAR_EPS:
            raise DegenerateInput(f"column {col} is constant")
    return np.corrcoef(x, rowvar=False)


def partial_correlation(corr, target_idx, cond_idx):
    """Partial correlation of two variables given a set, from a correlation
    matrix: in closed form for at most one conditioning variable, else via
    inversion of the relevant submatrix.

    Given c, the submatrix of (a, b, c) has determinant
    (1 - r_ac^2)(1 - r_bc^2)(1 - r_ab.c^2), so it is singular exactly when c
    is collinear with a target or the result is at +-1; the first case is
    refused here, the second by the caller."""
    a, b = target_idx
    cond = list(cond_idx)
    if len(cond) > 1:
        idx = [a, b] + cond
        sub = corr[np.ix_(idx, idx)]
        if not np.isfinite(sub).all() or np.linalg.cond(sub) > 1e12:
            raise DegenerateInput("correlation submatrix is singular or undefined")
        prec = np.linalg.inv(sub)
        return float(-prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1]))
    r = corr.item(a, b)
    if cond:
        r_ac, r_bc = corr.item(a, cond[0]), corr.item(b, cond[0])
        if not (abs(r_ac) < 1.0 - VAR_EPS and abs(r_bc) < 1.0 - VAR_EPS):
            raise DegenerateInput("conditioning variable collinear with a target")
        r = (r - r_ac * r_bc) / math.sqrt((1.0 - r_ac * r_ac) * (1.0 - r_bc * r_bc))
    return r


def fisher_z_from_corr(corr, l, target_idx, cond_idx, alpha) -> TestOutcome:
    """Fisher-Z test evaluated on a precomputed correlation matrix; the
    two-sided normal tail 2 * sf(|z|) is erfc(|z| / sqrt(2))."""
    _require_alpha(alpha)
    n_cond = len(cond_idx)
    if l <= n_cond + 3:
        raise InvalidSize(f"need more than {n_cond + 3} samples")
    r = partial_correlation(corr, target_idx, cond_idx)
    if not abs(r) < 1.0 - VAR_EPS:
        raise DegenerateInput("partial correlation at the +-1 boundary or undefined")
    stat = math.sqrt(l - n_cond - 3) * math.atanh(r)
    p = math.erfc(abs(stat) / math.sqrt(2.0))
    return TestOutcome(binary(1 if p > alpha else 0), p, alpha)


def fisher_z_many(corr, l, rows, alpha):
    """``fisher_z_from_corr`` on every CI query row (a, b) or (a, b, c) at
    once, c = -1 for none: the 0/1 labels and the p-values as two arrays.
    The row entries index ``corr``; a row of ``core.ci_rows`` or
    ``core.ci_query_array`` may be wider only by padding.

    The partial correlations use the scalar's arithmetic, so the batch
    fails its guards exactly where the scalar does; on a failure the scalar
    is run on the first failing row, which raises what a loop over the
    rows would have raised."""
    _require_alpha(alpha)
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise InvalidSize("CI query rows must be a 2-d array of width at least 2")
    if np.count_nonzero(rows[:, 3:] != -1):
        raise InvalidSize("fisher_z_many takes at most one conditioning variable")
    a, b = rows[:, 0], rows[:, 1]
    c = rows[:, 2] if rows.shape[1] > 2 else np.full(len(rows), -1)
    has_c = c >= 0
    r_ab = corr[a, b]
    r_ac, r_bc = corr[a, c], corr[b, c]  # c = -1 reads an unused entry
    bound = 1.0 - VAR_EPS
    with np.errstate(invalid="ignore", divide="ignore"):
        collinear = has_c & ~((np.abs(r_ac) < bound) & (np.abs(r_bc) < bound))
        partial = (r_ab - r_ac * r_bc) / np.sqrt((1.0 - r_ac * r_ac) * (1.0 - r_bc * r_bc))
    r = np.where(has_c, partial, r_ab)
    bad = (l <= has_c + 3) | collinear | ~(np.abs(r) < bound)
    if bad.any():
        i = int(np.argmax(bad))
        cond = [int(c[i])] if has_c[i] else []
        fisher_z_from_corr(corr, l, (int(a[i]), int(b[i])), cond, alpha)  # raises the scalar's error
    stat = np.sqrt(l - 3 - has_c) * np.arctanh(r)
    p = erfc(np.abs(stat) / math.sqrt(2.0))
    return (p > alpha).astype(np.int64), p


def fisher_z_ci(d, q: Query, alpha) -> TestOutcome:
    """Partial-correlation conditional independence test; 1 = independence."""
    if q.kind != QueryKind.COND_INDEP:
        raise InvalidSize("fisher_z_ci takes conditional-independence queries")
    corr = correlation_matrix(d, q.variables())
    return fisher_z_from_corr(corr, d.l, (0, 1), range(2, len(corr)), alpha)


# --- correlation estimators ---------------------------------------------------


def corr_estimate(d, q: Query) -> TestOutcome:
    if q.kind != QueryKind.UNORDERED_PAIR:
        raise InvalidSize("corr_estimate takes unordered pairs")
    if d.l < 3:
        raise InvalidSize("need at least three samples")
    return TestOutcome(real(float(correlation_matrix(d, q.members)[0, 1])))


def sign_estimate(d, q: Query) -> TestOutcome:
    out = corr_estimate(d, q)
    r = out.value.value
    if abs(r) <= VAR_EPS:
        raise ZeroCorrelation("correlation numerically zero; sign undefined")
    return TestOutcome(sign(1 if r > 0 else -1))


# --- kernel machinery ---------------------------------------------------------
#
# Every step below is O(m^2) in the sample count m apart from the
# Cholesky factorisation of the ridge system: a test builds each column's
# bandwidth and Gram once and hands the Grams to the private helpers, and
# centring subtracts row and column means, so no m x m centring matrix is
# built or multiplied.


def median_bandwidth(x) -> float:
    """Median heuristic: sqrt(median of positive squared distances / 2).

    Only the pairs i < j are read: the full distance matrix holds each
    positive distance twice and zeros elsewhere, so the median of its
    positive entries is the same number, unless averaging two equal middle
    values above half the largest double overflows there."""
    x = np.asarray(x, dtype=float).reshape(-1)
    d2 = pdist(x[:, None], "sqeuclidean")
    pos = d2[d2 > 0]
    if pos.size == 0:
        raise DegenerateInput("all points identical")
    median = _median(pos)
    if not np.isfinite(median):
        raise DegenerateInput("squared distances between points overflow; rescale the column")
    return float(np.sqrt(0.5 * median))


def _median(a):
    """``np.median(a)``, reordering ``a``: one partition around the upper
    middle, where numpy partitions around both middles of an even count,
    which takes several times longer."""
    mid = a.size // 2
    a.partition(mid)
    if a.size % 2:
        return a[mid]
    return (a[:mid].max() + a[mid]) / 2


def _gram(x):
    """Gaussian Gram matrix of a column at its median-heuristic bandwidth;
    the bandwidth's distances are freed before the Gram is allocated."""
    x = np.asarray(x, dtype=float).reshape(-1)
    bandwidth = median_bandwidth(x)
    with np.errstate(over="ignore"):  # a distance that overflows has kernel value 0
        k = np.subtract.outer(x, x)
        np.square(k, out=k)
    np.divide(k, -(2.0 * bandwidth**2), out=k)
    return np.exp(k, out=k)


def _off_diagonal_mean(k):
    m = k.shape[0]
    return (k.sum() - np.trace(k)) / m / (m - 1)


def _centre(k):
    """Turn a Gram K into H K H (H = I - 1/m) in place, by subtracting its
    row and column means and adding its grand mean; a Gram is symmetric,
    so its row and column means agree."""
    mu = k.mean(axis=0)
    k -= mu[:, None]
    k -= mu[None, :]
    k += mu.mean()
    return k


def _centred_gram(x):
    """Centred Gram of a column and the off-diagonal mean of its Gram."""
    k = _gram(x)
    mu = _off_diagonal_mean(k)
    return _centre(k), mu


def _hsic_moments(kc, mu_x, lc, mu_y):
    """Biased HSIC V-statistic times m from two centred Grams, plus the
    mean and variance of HSIC under independence for the gamma
    approximation; ``mu_x`` and ``mu_y`` are the off-diagonal means of the
    uncentred Grams."""
    m = kc.shape[0]
    prod = kc * lc
    stat = float(prod.sum()) / m

    prod /= 6.0
    np.square(prod, out=prod)
    var_hsic = (prod.sum() - np.trace(prod)) / m / (m - 1)
    var_hsic *= 72.0 * (m - 4) * (m - 5) / m / (m - 1) / (m - 2) / (m - 3)
    mean_hsic = (1.0 + mu_x * mu_y - mu_x - mu_y) / m
    return stat, mean_hsic, var_hsic


def _gamma_p_value(stat, mean_hsic, var_hsic, m) -> float:
    if mean_hsic <= 0 or var_hsic <= 0:
        raise DegenerateInput("gamma approximation undefined for this input")
    # the statistic is m * HSIC while the moments are those of HSIC,
    # hence the extra factor in the scale
    shape = mean_hsic**2 / var_hsic
    scale = var_hsic * m / mean_hsic
    # upper tail of Gamma(shape, scale), the regularised upper incomplete
    # gamma; a statistic rounded below 0 has tail 1, as below the support
    return float(gammaincc(shape, max(stat, 0.0) / scale))


def _permutation_p_value(stat, kc, lc, n_permutations, seed) -> float:
    """Permuting y permutes the rows and columns of its Gram, centred or
    not, and leaves its bandwidth unchanged, so each draw only re-indexes
    the centred Gram; the draws are those of ``rng.permutation(y)``."""
    m = kc.shape[0]
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_permutations):
        p = rng.permutation(m)
        if float(np.sum(kc * lc[np.ix_(p, p)])) / m >= stat:
            count += 1
    return (count + 1.0) / (n_permutations + 1.0)


def _ridge_factor(x, k, ridge_scale):
    """The system of a kernel ridge regression on the column ``x`` with
    Gram ``k``: the Cholesky factor of K + lam I, lam = ``ridge_scale * m``,
    written over ``k``, then lam and the groups of equal x values.

    ``k.T`` is passed because a C-ordered array would be copied before an
    in-place factorisation; K is symmetric."""
    if not ridge_scale > 0:
        raise InvalidParams(f"ridge_scale {ridge_scale} must be positive")
    m = k.shape[0]
    lam = ridge_scale * m
    k.flat[:: m + 1] += lam
    factor = cho_factor(k.T, lower=True, overwrite_a=True, check_finite=False)
    _, ties, sizes = np.unique(x, return_inverse=True, return_counts=True)
    return factor, lam, ties, sizes


def _fit_residuals(ridge, y):
    """Residuals of y after the kernel ridge regression whose system is
    ``ridge``.

    Since (K + lam I) a = y_c, the fitted values K a are y_c - lam * a, so
    no K is kept.  Rows of K with equal x are equal, and so are their
    fitted values; each group's are averaged, since rounding would
    otherwise split the residuals of equal (x, y) points, and a tiny
    squared distance where there was 0 moves the residual's median
    bandwidth."""
    factor, lam, ties, sizes = ridge
    yc = y - y.mean()
    fitted = yc - lam * cho_solve(factor, yc, check_finite=False)
    return yc - (np.bincount(ties, fitted) / sizes)[ties]


def _column_pair(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise InvalidSize("columns must have equal length")
    if x.size < 20:
        raise InvalidSize("need at least 20 samples")
    return x, y


def hsic_statistic(x, y):
    """Biased HSIC V-statistic with median-heuristic Gaussian kernels,
    plus the gamma moment-matching parameters of its null distribution."""
    return _hsic_moments(*_centred_gram(x), *_centred_gram(y))


def hsic_independence(x, y, alpha, method="gamma", n_permutations=500, seed=0) -> TestOutcome:
    """HSIC test; value 1 iff independence is accepted (p > alpha).

    The null p-value comes from a gamma moment-matching approximation by
    default; ``method="permutation"`` resamples one column instead.
    """
    _require_alpha(alpha)
    x, y = _column_pair(x, y)
    _check_nonconstant(x, y)
    kc, mu_x = _centred_gram(x)
    lc, mu_y = _centred_gram(y)
    stat, mean_hsic, var_hsic = _hsic_moments(kc, mu_x, lc, mu_y)
    if method == "gamma":
        p = _gamma_p_value(stat, mean_hsic, var_hsic, x.size)
    elif method == "permutation":
        p = _permutation_p_value(stat, kc, lc, n_permutations, seed)
    else:
        raise InvalidParams(f"unknown method {method!r}")
    return TestOutcome(binary(1 if p > alpha else 0), p, alpha)


def kernel_regress(x, y, ridge_scale=DEFAULT_RIDGE_SCALE):
    """Residuals of y after kernel ridge regression on x.

    Gaussian kernel with median-heuristic bandwidth, ridge
    ``ridge_scale * l``; y is centered before the solve so constant
    targets give exactly zero residuals.
    """
    x, y = _column_pair(x, y)
    _check_nonconstant(x)
    return _fit_residuals(_ridge_factor(x, _gram(x), ridge_scale), y)


# the last source anm_test saw: (its column, ridge_scale, _anm_source state)
_last_source = None


def _anm_source(x, ridge_scale):
    """A source column's centred Gram, the off-diagonal mean of its Gram
    and its ``_ridge_factor``.

    Only the last source is remembered, keyed by the column's values and
    ``ridge_scale``, so a universe enumerated source by source builds each
    source's state once, and only one source's two m x m arrays are live.
    The previous entry is dropped before the next is built, also when
    building it fails."""
    global _last_source
    last = _last_source
    if last is not None and last[1] == ridge_scale and np.array_equal(last[0], x):
        return last[2]
    _last_source = last = None
    k = _gram(x)
    mu = _off_diagonal_mean(k)
    kc = _centre(k.copy())
    state = kc, mu, _ridge_factor(x, k, ridge_scale)
    _last_source = (x.copy(), ridge_scale, state)
    return state


def anm_test(d, q: Query, alpha, ridge_scale=DEFAULT_RIDGE_SCALE) -> TestOutcome:
    """Bivariate additive-noise test for the ordered pair (source, target).

    Value 1 iff the pair is marginally dependent and the residual of the
    target after regressing on the source is independent of the source.
    The reported p-value is the residual-independence p-value.

    The source's centred Gram serves the marginal test and the residual
    test, and the Cholesky factor of its regularised Gram the regression;
    both are built once for consecutive tests from the same source (see
    ``_anm_source``).  At most four m x m arrays are live: the source's
    two, the target's or the residual's centred Gram and the product
    inside the HSIC moments.
    """
    if q.kind != QueryKind.ORDERED_PAIR:
        raise InvalidSize("anm_test takes ordered pairs")
    source, target = q.members
    x, y = d.column(source), d.column(target)
    _require_alpha(alpha)
    x, y = _column_pair(x, y)
    m = x.size
    if m > MAX_ANM_ROWS:
        raise InvalidSize(
            f"anm_test on {m} rows would hold four dense {m} x {m} arrays "
            f"({4 * 8 * m * m / 1e9:.1f} GB); the limit is {MAX_ANM_ROWS} rows"
        )
    _check_nonconstant(x, y)
    kc, mu_x, ridge = _anm_source(x, ridge_scale)
    marginal_p = _gamma_p_value(*_hsic_moments(kc, mu_x, *_centred_gram(y)), m)
    residuals = _fit_residuals(ridge, y)
    _check_nonconstant(residuals)
    resid_p = _gamma_p_value(*_hsic_moments(kc, mu_x, *_centred_gram(residuals)), m)
    accepted = marginal_p <= alpha and resid_p > alpha
    return TestOutcome(binary(1 if accepted else 0), resid_p, alpha)
