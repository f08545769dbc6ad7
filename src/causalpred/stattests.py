"""Statistical tests and estimators producing the labels models must predict.

Fisher-Z partial-correlation tests, Pearson correlation and sign
estimators, an HSIC independence test with gamma-approximated null, and
kernel ridge regression used by the bivariate additive-noise test.

scipy is imported inside the functions that call it, each name at one
site, so a process that runs no kernel statistic never loads it:
``scipy.special`` on the first HSIC p-value, ``scipy.linalg`` on the first
HSIC Gram or kernel regression.  Fisher-Z p-values come from ``_erfc``, a
numpy port of the Cephes erfc that ``scipy.special`` runs, equal to it bit
for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .core import PropertyValue, Query, QueryKind, binary, check_ci_rows, check_nodes, real, sign
from .errors import DegenerateInput, InvalidParams, InvalidSize, ZeroCorrelation

VAR_EPS = 1e-12
RIDGE_SCALE = 1e-3  # ridge = scale * sample count
# anm_test computes in three dense m x m float arrays, 8.6 MB at m = 600
# and 0.6 GB at this many rows, freed when the test or its session ends.
# A bandwidth adds no m x m array: its median distance is selected, not
# listed, in a few m-vectors
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
    order, from one ``np.cov`` pass.  A constant column, or one whose variance
    overflows, has no correlations numpy can compute, so it is refused by name first."""
    ids = d.columns if variables is None else tuple(variables)
    x = d.samples if variables is None else np.column_stack([d.column(v) for v in ids])
    if len(x) < 2:  # every column of one row is constant; np.cov would warn
        raise DegenerateInput(f"column {ids[0]} is constant")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.atleast_2d(np.cov(x, rowvar=False))
        variances = (np.diag(cov) * ((len(x) - 1) / len(x))).tolist()  # np.var's ddof 0
    for col, var in zip(ids, variances):
        if not math.isfinite(var):
            raise DegenerateInput(f"the variance of column {col} overflows; rescale it")
        if var < VAR_EPS:
            raise DegenerateInput(f"column {col} is constant")
    stddev = np.sqrt(np.diag(cov))
    cov /= stddev[:, None]  # in place, so the matrix is the only k x k array
    cov /= stddev
    return np.clip(cov, -1, 1, out=cov)


# Cephes ndtr.c (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the erfc scipy.special runs: erf's T/U on x < 1, and
# erfc's P/Q on 1 <= x < 8 and R/S past 8; U, Q and S lead with the 1
# that Cephes' p1evl implies
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc is 0 where x * x exceeds it,
_SQRT_MAXLOG = math.sqrt(_MAXLOG)  # that is, where x exceeds this
_ERFC_BLOCK = 1 << 16  # arguments per block, which bounds each temporary


def _polevl(x, coef):
    # Cephes' Horner steps, acc * x + c, in place
    acc = coef[0] * x
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x, coef):
    # _polevl with a leading 1 left out of coef
    acc = x + coef[0]
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _exp_neg_square(x):
    # math.exp is the libm exp that scipy's erfc calls; numpy's own exp
    # rounds some arguments differently
    z = x * x
    np.negative(z, out=z)
    return np.fromiter(map(math.exp, z.tolist()), np.float64, len(z))


def _erfc_block(x, out):
    # out holds 0, or NaN where x is NaN
    low = x < 1.0
    if np.count_nonzero(low):
        v = x[low]
        z = v * v
        y = v * _polevl(z, _ERF_T)
        y /= _p1evl(z, _ERF_U)
        out[low] = 1.0 - y
    mid = ~low & (x < 8.0)
    tail = (x >= 8.0) & (x <= _SQRT_MAXLOG)
    for keep, p, q in ((mid, _ERFC_P, _ERFC_Q), (tail, _ERFC_R, _ERFC_S)):
        if np.count_nonzero(keep):
            v = x[keep]
            y = _exp_neg_square(v)
            y *= _polevl(v, p)
            y /= _p1evl(v, q)
            out[keep] = y


def _erfc(x):
    """``scipy.special.erfc`` bit for bit on a 1-D array of x >= 0 or NaN,
    by the Cephes steps in their order: 1 - x T(x^2) / U(x^2) below 1,
    then exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) until
    exp(-x^2) underflows.  Each branch runs only on its own arguments, a
    block of ``_ERFC_BLOCK`` at a time."""
    out = np.zeros_like(x)  # past _SQRT_MAXLOG, inf included
    out[np.isnan(x)] = np.nan
    for i in range(0, len(x), _ERFC_BLOCK):
        _erfc_block(x[i : i + _ERFC_BLOCK], out[i : i + _ERFC_BLOCK])
    return out


def _fisher_z(corr, l, rows, alpha):
    """``fisher_z_many`` without its raise: the labels, the p-values (NaN on
    a row that fails a guard), and per row the first guard it fails: 1 for
    too few samples, 2 for a refused partial correlation, 3 for one at +-1,
    0 for none.  It checks no row: ``rows`` are PC's own, or a universe
    that ``models.ci_walks`` has checked.

    Given at most one variable c the partial correlation is the closed form
    (r_ab - r_ac r_bc) / sqrt((1 - r_ac^2)(1 - r_bc^2)), refused when c is
    collinear with a target; the submatrix of (a, b, c) has determinant
    (1 - r_ac^2)(1 - r_bc^2)(1 - r_ab.c^2), so it is singular exactly where
    this guard or the one at +-1 refuses.  Given s >= 2 it comes from the
    inverse of the (s + 2)-square submatrix, refused when that is not
    finite or its condition number exceeds 1e12; the submatrices of one
    size are inverted as one stack, which rounds each as alone."""
    _require_alpha(alpha)
    size = np.count_nonzero(rows[:, 2:] != -1, axis=1)  # padding comes last
    a, b = rows[:, 0], rows[:, 1]
    c = rows[:, 2] if rows.shape[1] > 2 else np.full(len(rows), -1)
    r_ab = corr[a, b]
    r_ac, r_bc = corr[a, c], corr[b, c]  # c = -1 reads an unused entry
    bound = 1.0 - VAR_EPS
    with np.errstate(invalid="ignore", divide="ignore"):
        refused = (size == 1) & ~((np.abs(r_ac) < bound) & (np.abs(r_bc) < bound))
        partial = (r_ab - r_ac * r_bc) / np.sqrt((1.0 - r_ac * r_ac) * (1.0 - r_bc * r_bc))
        r = np.where(size == 1, partial, r_ab)
        for s in np.unique(size[size >= 2]).tolist():
            group = np.flatnonzero(size == s)
            idx = rows[group, : s + 2]
            subs = corr[idx[:, :, None], idx[:, None, :]]
            finite = np.isfinite(subs).all(axis=(1, 2))
            singular = ~finite
            singular[finite] = np.linalg.cond(subs[finite]) > 1e12
            prec = np.linalg.inv(subs[~singular])
            r[group[~singular]] = -prec[:, 0, 1] / np.sqrt(prec[:, 0, 0] * prec[:, 1, 1])
            refused[group] = singular
        fail = np.select([l <= size + 3, refused, ~(np.abs(r) < bound)], [1, 2, 3], 0)
        stat = np.sqrt(l - size - 3) * np.arctanh(r)
    p = _erfc(np.abs(stat) / math.sqrt(2.0))
    p[fail != 0] = np.nan
    return (p > alpha).astype(np.int64), p, fail


def fisher_z_many(corr, l, rows, alpha):
    """Fisher-Z tests of CI query rows (a, b, c1, ..., cs), padded at the
    end with -1, on the correlation matrix the entries index: the 0/1
    labels, 1 for p > alpha, and the p-values erfc(|z| / sqrt(2)).  A bad
    row raises what ``models.d_separated_many`` raises on it, and then the
    first row that fails a guard of ``_fisher_z`` raises its error; a bad
    alpha comes before both."""
    _require_alpha(alpha)
    rows = check_ci_rows(rows, len(corr))
    labels, p, fail = _fisher_z(corr, l, rows, alpha)
    if not fail.any():
        return labels, p
    i = int(np.argmax(fail != 0))
    size = np.count_nonzero(rows[i, 2:] != -1)
    if fail[i] == 1:
        raise InvalidSize(f"need more than {size + 3} samples")
    if fail[i] == 3:
        raise DegenerateInput("partial correlation at the +-1 boundary or undefined")
    if size == 1:
        raise DegenerateInput("conditioning variable collinear with a target")
    raise DegenerateInput("correlation submatrix is singular or undefined")


def fisher_z_from_corr(corr, l, target_idx, cond_idx, alpha) -> TestOutcome:
    """Fisher-Z test of one CI query on a correlation matrix: the one-row
    ``fisher_z_many``.  An index outside the matrix, -1 included, raises
    UnknownNode."""
    row = [*target_idx, *cond_idx]
    check_nodes(len(corr), *row)
    labels, p = fisher_z_many(corr, l, [row], alpha)
    return TestOutcome(binary(int(labels[0])), float(p[0]), alpha)


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
# built or multiplied.  Each m x m step writes into a given array: a fresh
# one for the HSIC functions, one of the three of ``anm_test``'s state.
# The bandwidth writes none: it counts the m(m - 1)/2 distances row by row
# on the sorted column and lists only the few near their median.
# No step broadcasts a vector over a matrix, since numpy allocates a ufunc
# buffer of about 64 KB for that; ``_add_outer`` does those steps instead.


def _add_outer(k, alpha, a, b):
    """k[i, j] += alpha * a[i] * b[j], in place, by one BLAS rank-one update
    of ``k.T``, which is in column order for a C-ordered ``k``.  With
    alpha = +-1 and ``a`` or ``b`` all ones every product is exact, so each
    entry is rounded as in the broadcast ``k + alpha * a[:, None]`` (or
    ``b[None, :]``)."""
    from scipy.linalg.blas import dger

    return dger(alpha, b, a, a=k.T, overwrite_a=True).T


def _check_finite(*cols):
    for c in cols:
        if not np.isfinite(c).all():
            raise DegenerateInput("column holds NaN or an infinite value")


def median_bandwidth(x) -> float:
    """Median heuristic: sqrt(median of positive squared distances / 2).

    The median is over the pairs i < j, each squared distance rounded as
    ``(x_i - x_j) ** 2``, and it is selected without listing the
    m(m - 1)/2 of them.  On the sorted column s, fl(fl(s_j - s_i)^2) does
    not decrease along a row j > i, since rounding is monotone, so
    ``_row_ends`` finds where the pairs at or below any value end in each
    row.  The pairs at 0, ties and squares that underflow, come first;
    ``_select`` finds the middle one or two of the rest.  NaN and +-inf are
    refused, since a column holding one has no such order."""
    x = np.asarray(x, dtype=float).reshape(-1)
    _check_finite(x)
    s = np.sort(x)
    m = s.size
    starts = _row_ends(s, 0.0, strict=False)
    zeros = _pair_count(starts)
    positives = m * (m - 1) // 2 - zeros
    if positives == 0:
        raise DegenerateInput("all points identical")
    mid = zeros + positives // 2
    median = _select(s, [mid] if positives % 2 else [mid - 1, mid], starts, zeros)
    if not math.isfinite(median):
        raise DegenerateInput("squared distances between points overflow; rescale the column")
    return math.sqrt(0.5 * median)


# ``_select`` lists the pairs of a bracket once it holds at most this many
# per row of the column, and otherwise narrows it from a sample of about
# a quarter as many pairs
_LISTED_PER_ROW = 16


def _squares(s, rows, cols):
    """fl(fl(s_j - s_i)^2) of the pairs (rows[k], cols[k]); a square or a
    difference that overflows is inf."""
    d = s[cols]
    d -= s[rows]
    with np.errstate(over="ignore"):
        return np.square(d, out=d)


def _row_ends(s, v, strict):
    """For each row i of the sorted column ``s``, the end of the j > i
    whose squared distance is below ``v`` (``strict``) or at most ``v``:
    ``searchsorted`` at s_i + sqrt(v), then moved a run of equal values at
    a time until the square at the end is exactly right."""
    m = s.size
    first = np.arange(1, m + 1)
    inside = np.less if strict else np.less_equal
    with np.errstate(over="ignore"):
        ends = np.searchsorted(s, s + math.sqrt(v), "left" if strict else "right")
    np.maximum(ends, first, out=ends)
    rows = np.flatnonzero(ends < m)
    while rows.size:
        rows = rows[inside(_squares(s, rows, ends[rows]), v)]
        ends[rows] = np.searchsorted(s, s[ends[rows]], "right")
        rows = rows[ends[rows] < m]
    rows = np.flatnonzero(ends > first)
    while rows.size:
        rows = rows[~inside(_squares(s, rows, ends[rows] - 1), v)]
        ends[rows] = np.maximum(np.searchsorted(s, s[ends[rows] - 1], "left"), rows + 1)
        rows = rows[ends[rows] > rows + 1]
    return ends


def _pair_count(ends):
    """The number of pairs i < j below the row ends of ``_row_ends``."""
    m = ends.size
    return int(ends.sum()) - m * (m + 1) // 2


def _bracket_squares(s, starts, ends, positions=None):
    """The squared distances of the pairs i < j with starts[i] <= j <
    ends[i], row by row, or of those at ``positions`` in that order."""
    lengths = ends - starts
    if positions is None:
        rows = np.repeat(np.arange(s.size), lengths)
        cols = np.arange(rows.size)
        cols -= np.repeat(np.cumsum(lengths) - ends, lengths)
    else:
        offsets = np.cumsum(lengths)
        rows = np.searchsorted(offsets, positions, "right")
        cols = positions - offsets[rows] + ends[rows]
    return _squares(s, rows, cols)


def _select(s, ranks, starts, below):
    """The mean of the squared distances at ``ranks``, one rank or two
    consecutive ones, from 0, in the sorted order of the pairs i < j of the
    sorted column ``s``; ``starts`` are the row ends of the ``below``
    smallest pairs, and no rank is below ``below``.

    The bracket is the pairs between two sets of row ends, the lower at
    first ``starts`` and the upper at first the end of every row.  While
    it holds more than ``_LISTED_PER_ROW`` pairs per row, a sample drawn
    through it at a fixed stride gives two candidate values, about a
    sample standard deviation below the lowest rank and above the highest.
    The pairs below a candidate, or at or below it, either make a new end
    of the bracket with every rank on one side, or, counted both ways,
    hold the ranks that equal the candidate.  Then the bracket is listed
    and partitioned.  Every sample gives the exact answer; a poor one
    only takes more rounds."""
    m = s.size
    found = {}
    bracket = below, starts, m * (m - 1) // 2, np.full(m, m)
    while ranks and bracket[2] - bracket[0] > _LISTED_PER_ROW * m:
        below, starts, upto, ends = bracket
        size = upto - below
        stride = size // (_LISTED_PER_ROW // 4 * m) + 1
        sample = np.sort(_bracket_squares(s, starts, ends, np.arange(stride // 2, size, stride)))
        n = sample.size
        margin = math.isqrt(n) + 1
        low = max((ranks[0] - below) * n // size - margin, 0)
        high = min((ranks[-1] - below) * n // size + margin, n - 1)
        # the lower candidate is most likely a new lower end, at or below
        # it; the upper one a new upper end, below it
        for k, strict in ((low, False), (high, True)):
            value = float(sample[k])
            first = _row_ends(s, value, strict)
            narrowed = _narrowed(bracket, ranks, first)
            if narrowed is not bracket:
                bracket = narrowed
                continue
            second = _row_ends(s, value, not strict)
            lt, le = sorted((_pair_count(first), _pair_count(second)))
            found.update((r, value) for r in ranks if lt <= r < le)
            ranks = [r for r in ranks if r not in found]
            if not ranks:
                break
            bracket = _narrowed(_narrowed(bracket, ranks, first), ranks, second)
    if ranks:
        below, starts, _, ends = bracket
        d = _bracket_squares(s, starts, ends)
        top = ranks[-1] - below
        d.partition(top)
        found[ranks[-1]] = float(d[top])
        if len(ranks) == 2:
            found[ranks[0]] = float(d[:top].max())
    values = [found[r] for r in sorted(found)]
    return values[0] if len(values) == 1 else (values[0] + values[1]) / 2


def _narrowed(bracket, ranks, row_ends):
    """``bracket``, (below, starts, upto, ends), with ``row_ends`` for its
    lower or upper end when that holds fewer pairs and keeps every rank
    inside; else ``bracket`` itself."""
    below, starts, upto, ends = bracket
    count = _pair_count(row_ends)
    if below < count <= ranks[0]:
        return count, row_ends, upto, ends
    if ranks[-1] < count < upto:
        return below, starts, count, row_ends
    return bracket


def _gram(x, out=None):
    """Gaussian Gram matrix of a column at its median-heuristic bandwidth,
    written into ``out`` (a fresh array without one).  The differences
    x_i - x_j are rounded as in ``np.subtract.outer(x, x)``: 0 + x_i is
    exact."""
    x = np.asarray(x, dtype=float).reshape(-1)
    bandwidth = median_bandwidth(x)
    k = np.empty((x.size, x.size)) if out is None else out
    ones = np.ones_like(x)
    k.fill(0.0)
    k = _add_outer(k, 1.0, x, ones)
    k = _add_outer(k, -1.0, ones, x)
    with np.errstate(over="ignore"):  # a distance that overflows has kernel value 0
        np.square(k, out=k)
    np.divide(k, -(2.0 * bandwidth**2), out=k)
    return np.exp(k, out=k)


def _off_diagonal_mean(k):
    m = k.shape[0]
    return (k.sum() - np.trace(k)) / m / (m - 1)


def _centre(k):
    """Turn a Gram K into H K H (H = I - 1/m) in place, by subtracting its
    row and column means and adding its grand mean; a Gram is symmetric,
    so its row and column means agree.  Every entry is rounded as in
    ``k - mu[:, None] - mu[None, :] + mu.mean()``."""
    mu = k.mean(axis=0)
    ones = np.ones_like(mu)
    k = _add_outer(k, -1.0, mu, ones)
    k = _add_outer(k, -1.0, ones, mu)
    k += mu.mean()
    return k


def _centred_gram(x, out=None):
    """Centred Gram of a column, written into ``out`` as ``_gram`` does, and
    the off-diagonal mean of its Gram."""
    k = _gram(x, out)
    mu = _off_diagonal_mean(k)
    return _centre(k), mu


def _hsic_moments(kc, mu_x, lc, mu_y, out=None):
    """Biased HSIC V-statistic times m from two centred Grams, plus the
    mean and variance of HSIC under independence for the gamma
    approximation; ``mu_x`` and ``mu_y`` are the off-diagonal means of the
    uncentred Grams.  The product of the Grams is written into ``out``, a
    fresh array without one; ``out`` may be ``lc``."""
    m = kc.shape[0]
    prod = np.multiply(kc, lc, out=out)
    stat = float(prod.sum()) / m

    prod /= 6.0
    np.square(prod, out=prod)
    var_hsic = (prod.sum() - np.trace(prod)) / m / (m - 1)
    var_hsic *= 72.0 * (m - 4) * (m - 5) / m / (m - 1) / (m - 2) / (m - 3)
    return stat, _mean_hsic(mu_x, mu_y, m), var_hsic


def _mean_hsic(mu_x, mu_y, m):
    """The mean of HSIC under independence; its rounding depends on the
    order of the off-diagonal means, unlike the statistic and variance."""
    return (1.0 + mu_x * mu_y - mu_x - mu_y) / m


def _gamma_p_value(stat, mean_hsic, var_hsic, m) -> float:
    if mean_hsic <= 0 or var_hsic <= 0:
        raise DegenerateInput("gamma approximation undefined for this input")
    # the statistic is m * HSIC while the moments are those of HSIC,
    # hence the extra factor in the scale
    shape = mean_hsic**2 / var_hsic
    scale = var_hsic * m / mean_hsic
    # upper tail of Gamma(shape, scale), the regularised upper incomplete
    # gamma; a statistic rounded below 0 has tail 1, as below the support
    from scipy.special import gammaincc

    return float(gammaincc(shape, max(stat, 0.0) / scale))


def _ridge_factor(x, k):
    """The system of a kernel ridge regression on the column ``x`` with
    Gram ``k``: the Cholesky factor of K + lam I, lam = ``RIDGE_SCALE * m``,
    written over ``k``, then lam and the groups of equal x values.

    ``k.T`` is passed because a C-ordered array would be copied before an
    in-place factorisation; K is symmetric."""
    m = k.shape[0]
    lam = RIDGE_SCALE * m
    k.flat[:: m + 1] += lam
    from scipy.linalg import cho_factor

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
    from scipy.linalg import cho_solve

    fitted = cho_solve(factor, yc, check_finite=False)
    fitted *= lam
    np.subtract(yc, fitted, out=fitted)
    group_means = np.bincount(ties, fitted)
    group_means /= sizes
    return np.subtract(yc, np.take(group_means, ties, out=fitted, mode="clip"), out=yc)


def _column_pair(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise InvalidSize("columns must have equal length")
    if x.size < 20:
        raise InvalidSize("need at least 20 samples")
    _check_finite(x, y)
    return x, y


def hsic_statistic(x, y):
    """Biased HSIC V-statistic with median-heuristic Gaussian kernels,
    plus the gamma moment-matching parameters of its null distribution."""
    x, y = _column_pair(x, y)
    _check_nonconstant(x, y)
    return _hsic_moments(*_centred_gram(x), *_centred_gram(y))


def hsic_independence(x, y, alpha) -> TestOutcome:
    """HSIC test; value 1 iff independence is accepted (p > alpha), with the
    p-value of the gamma moment-matching approximation to the null."""
    _require_alpha(alpha)
    x, y = _column_pair(x, y)
    p = _gamma_p_value(*hsic_statistic(x, y), x.size)
    return TestOutcome(binary(1 if p > alpha else 0), p, alpha)


def kernel_regress(x, y):
    """Residuals of y after kernel ridge regression on x.

    Gaussian kernel with median-heuristic bandwidth, ridge
    ``RIDGE_SCALE * l``; y is centered before the solve so constant
    targets give exactly zero residuals.
    """
    x, y = _column_pair(x, y)
    _check_nonconstant(x)
    return _fit_residuals(_ridge_factor(x, _gram(x)), y)


@dataclass
class _AnmSession:
    """What the ANM tests of one dataset share."""

    data: object
    arrays: tuple = None  # the three m x m arrays, allocated at the first test
    source: tuple = None  # the last source built in them: (column id, its state)
    marginals: dict = field(default_factory=dict)  # (source, target) ids -> moments

    def source_state(self, source, x):
        """The source's centred Gram, its Gram's off-diagonal mean and its
        ``_ridge_factor``, built in the first two arrays unless it is the
        last source, then the third array.  A refused source leaves none."""
        if self.arrays is None:
            self.arrays = tuple(np.empty((x.size, x.size)) for _ in range(3))
        centred, k, target = self.arrays
        if self.source is None or self.source[0] != source:
            self.source = None
            k = _gram(x, k)
            mu = _off_diagonal_mean(k)
            np.copyto(centred, k)
            self.source = source, (_centre(centred), mu, _ridge_factor(x, k))
        return self.source[1], target


_anm_session = ContextVar("anm_session", default=None)


@contextmanager
def anm_session(d):
    """Let the ``anm_test`` calls on the dataset ``d`` inside the ``with``
    block share their state.  It belongs to the block's context, so other
    threads do not see it, and it is freed when the block exits."""
    token = _anm_session.set(_AnmSession(d))
    try:
        yield
    finally:
        _anm_session.reset(token)


def check_anm_rows(m):
    """Refuse the row counts every ``anm_test`` refuses: below 20 or past ``MAX_ANM_ROWS``."""
    if m < 20:
        raise InvalidSize("need at least 20 samples")
    if m > MAX_ANM_ROWS:
        raise InvalidSize(
            f"anm_test on {m} rows would hold three dense {m} x {m} arrays "
            f"({3 * 8 * m * m / 1e9:.1f} GB); the limit is {MAX_ANM_ROWS} rows"
        )


def anm_test(d, q: Query, alpha) -> TestOutcome:
    """Bivariate additive-noise test for the ordered pair (source, target).

    Value 1 iff the pair is marginally dependent and the residual of the
    target after regressing on the source is independent of the source.
    The reported p-value is the residual-independence p-value.

    The source's centred Gram serves the marginal test and the residual
    test, and the Cholesky factor of its regularised Gram the regression.
    Inside ``anm_session(d)`` they are built once for consecutive tests
    from the same source, and the marginal HSIC of a pair once for both
    directions: the first test of the pair stores its statistic, its
    variance and the off-diagonal mean of its source's Gram, and the
    reverse test takes them out, skips its target's Gram and the product,
    and computes the mean in its own argument order.  The product of
    centred Grams is symmetric entry by entry, so every p-value is what
    the test computes alone, as it does outside a session on ``d``.  So a
    universe of n columns enumerated source by source in one session
    builds n + n(n - 1)/2 + n(n - 1) Grams, in three m x m arrays: the
    product inside the HSIC moments overwrites the target's or residual's.
    """
    if q.kind != QueryKind.ORDERED_PAIR:
        raise InvalidSize("anm_test takes ordered pairs")
    source, target = q.members
    x, y = d.column(source), d.column(target)
    _require_alpha(alpha)
    x, y = _column_pair(x, y)
    m = x.size
    check_anm_rows(m)
    _check_nonconstant(x, y)
    session = _anm_session.get()
    if session is None or session.data is not d:
        session = _AnmSession(d)
    (kc, mu_x, ridge), gram = session.source_state(source, x)
    shared = session.marginals.pop((target, source), None)
    if shared is None:
        stat, mean_hsic, var_hsic = _hsic_moments(kc, mu_x, *_centred_gram(y, gram), gram)
        session.marginals[source, target] = stat, var_hsic, mu_x
    else:
        stat, var_hsic, mu_y = shared
        mean_hsic = _mean_hsic(mu_x, mu_y, m)
    marginal_p = _gamma_p_value(stat, mean_hsic, var_hsic, m)
    residuals = _fit_residuals(ridge, y)
    _check_nonconstant(residuals)
    resid_p = _gamma_p_value(*_hsic_moments(kc, mu_x, *_centred_gram(residuals, gram), gram), m)
    accepted = marginal_p <= alpha and resid_p > alpha
    return TestOutcome(binary(1 if accepted else 0), resid_p, alpha)
