import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from causalpred import synthgen
from causalpred.core import Dataset
from causalpred.errors import InvalidDegree, InvalidSize
from causalpred.models import Polytree, is_polytree_edges
from causalpred.synthgen import (
    HIDDEN_UNITS,
    NOISE_WIDTH,
    GamScm,
    LinearScm,
    Mechanism,
    gen_gam_chain,
    gen_gam_scm,
    gen_linear_scm,
    sample,
    save_truth,
    truth_to_json,
)
from oracles import population_covariance, ref_check_linear_order, ref_linear_dag, ref_sample
from traced import traced_peak


def _chain_scm(a=0.5):
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = a
    return LinearScm(2, (0, 1), coeffs)


# --- generators ---------------------------------------------------------------


def test_invalid_degree():
    with pytest.raises(InvalidDegree):
        gen_linear_scm(5, 0.0, seed=0)
    with pytest.raises(InvalidDegree):
        gen_gam_scm(5, 5.0, seed=0)


def test_linear_scm_validation():
    with pytest.raises(InvalidSize):
        LinearScm(2, (0, 0), np.zeros((2, 2)))
    bad = np.zeros((2, 2))
    bad[0, 1] = 0.5  # parent later in the order
    with pytest.raises(InvalidSize):
        LinearScm(2, (0, 1), bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_linear_scm_refuses_and_lists_edges_as_the_entrywise_loops(n, seed, late):
    # random forward coefficients in a random order, then `late` entries
    # set anywhere (the diagonal too), which may break the order
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    rank = np.array(order)
    coeffs = np.where((rank < rank[:, None]) & (rng.random((n, n)) < 0.5), rng.random((n, n)) + 0.1, 0.0)
    coeffs.flat[rng.integers(0, n * n, size=late)] = 0.5
    try:
        ref_check_linear_order(n, order, coeffs)
    except InvalidSize as e:
        with pytest.raises(InvalidSize, match=f"^{re.escape(str(e))}$"):
            LinearScm(n, order, coeffs)
    else:
        scm = LinearScm(n, order, coeffs)
        ref = ref_linear_dag(scm)
        assert scm.dag() == ref and list(scm.dag().edges) == list(ref.edges)  # and in set order


def test_linear_mean_edge_count():
    # edge probability 1.5/19 over 190 pairs: expected 15 edges
    counts = [len(gen_linear_scm(20, 1.5, s).dag().edges) for s in range(1000)]
    assert abs(np.mean(counts) - 15.0) < 1.0


def test_linear_coefficient_range():
    scm = gen_linear_scm(12, 2.0, seed=4)
    nz = scm.coeffs[scm.coeffs != 0]
    assert nz.size > 0
    assert np.all((nz >= 0.1) & (nz < 1.0))


def test_linear_determinism():
    a = gen_linear_scm(8, 1.5, seed=9)
    b = gen_linear_scm(8, 1.5, seed=9)
    assert a.order == b.order
    assert np.array_equal(a.coeffs, b.coeffs)


def test_gam_skeleton_is_forest():
    for s in range(50):
        scm = gen_gam_scm(20, 1.5, seed=s)
        assert is_polytree_edges(20, scm.dag.edges)
        assert len(scm.dag.edges) <= 19


def test_gam_determinism():
    a = gen_gam_scm(10, 1.5, seed=3)
    b = gen_gam_scm(10, 1.5, seed=3)
    assert a.dag.edges == b.dag.edges
    for e in a.dag.edges:
        assert np.array_equal(a.mechanisms[e].w1, b.mechanisms[e].w1)
        assert np.array_equal(a.mechanisms[e].w2, b.mechanisms[e].w2)
        assert np.array_equal(a.mechanisms[e].b, b.mechanisms[e].b)


def test_a_random_scm_draws_on_its_pairs_unlisted():
    # both generators draw on the forward pairs as they are yielded: at
    # n = 500, listing the 124,750 pairs first peaked at 12.8 MB traced in
    # gen_gam_scm, and drawing as they come at 0.91 MB
    _, peak = traced_peak(lambda: gen_gam_scm(500, 1.5, 0))
    assert peak < 2e6, peak


def test_gam_chain_structure():
    scm = gen_gam_chain(4, seed=0)
    assert scm.dag.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_mechanism_shapes():
    with pytest.raises(InvalidSize):
        Mechanism(np.ones(3), np.ones(HIDDEN_UNITS), np.ones(HIDDEN_UNITS))
    m = Mechanism(np.ones(HIDDEN_UNITS), np.ones(HIDDEN_UNITS), np.zeros(HIDDEN_UNITS))
    out = m(np.array([0.0]))
    assert out.shape == (1,)


def test_mechanism_computes_in_one_l_by_hidden_temporary():
    # the sum and the tanh each took a second l x HIDDEN_UNITS array; the
    # values are those of the three-temporary formula, bit for bit
    rng = np.random.default_rng(0)
    m = Mechanism(rng.normal(size=HIDDEN_UNITS), rng.normal(size=HIDDEN_UNITS), rng.normal(size=HIDDEN_UNITS))
    x = rng.standard_normal(100_000)
    m(x[:10])
    y, peak = traced_peak(lambda: m(x))
    assert peak <= 1.25 * x.size * HIDDEN_UNITS * 8
    assert y.tobytes() == (np.tanh(np.outer(x, m.w1) + m.b) @ m.w2).tobytes()


def test_a_linear_sample_holds_one_l_by_n_array():
    # the noise is the sample, and the Dataset takes it without a copy:
    # the peak is one l x n array plus an l-vector (three arrays before)
    n, l = 10, 100_000
    scm = gen_linear_scm(n, 1.5, 1)
    sample(scm, 100, 0)
    out, peak = traced_peak(lambda: sample(scm, l, 2))
    assert peak <= 8 * l * n + 2 * 8 * l
    assert out.dataset.samples.shape == (l, n)


def test_the_dataset_holds_the_array_sample_built(monkeypatch):
    built = []

    def dataset(x, columns):
        built.append(x)
        return Dataset(x, columns)

    monkeypatch.setattr(synthgen, "Dataset", dataset)
    for scm in (gen_linear_scm(5, 1.5, 3), gen_gam_scm(5, 1.5, 3)):
        samples = sample(scm, 40, 4).dataset.samples
        assert samples is built[-1] and not samples.flags.writeable


@pytest.mark.parametrize("seed", range(24))
def test_sample_equals_the_zero_started_sampler(seed):
    # a column not yet visited holds its noise, not 0, and meets only zero
    # coefficients, so every value and every sign bit is the reference's
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    degree = float(rng.uniform(0.5, min(6.0, n - 1)))
    l = int(rng.choice([7, 150, 2001]))
    for scm in (gen_linear_scm(n, degree, seed), gen_gam_scm(n, degree, seed)):
        x = sample(scm, l, seed + 1).dataset.samples
        ref = ref_sample(scm, l, seed + 1)
        assert np.array_equal(x, ref) and np.array_equal(np.signbit(x), np.signbit(ref))


def test_gam_scm_validation():
    tree = Polytree(3, [(0, 1)])
    rng = np.random.default_rng(0)
    mech = Mechanism(rng.random(HIDDEN_UNITS), rng.random(HIDDEN_UNITS), rng.random(HIDDEN_UNITS))
    with pytest.raises(InvalidSize):
        GamScm(3, tree, {})  # missing mechanism for the edge
    GamScm(3, tree, {(0, 1): mech})


# --- sampling -----------------------------------------------------------------


def test_sample_requires_rows():
    with pytest.raises(InvalidSize):
        sample(_chain_scm(), 0, seed=0)


def test_sample_determinism():
    scm = gen_linear_scm(6, 1.5, seed=1)
    a = sample(scm, 50, seed=2).dataset
    b = sample(scm, 50, seed=2).dataset
    assert np.array_equal(a.samples, b.samples)


def test_sample_covers_all_columns():
    scm = gen_gam_scm(7, 1.5, seed=5)
    out = sample(scm, 30, seed=6)
    assert out.dataset.columns == tuple(range(7))


def test_chain_sample_covariance():
    out = sample(_chain_scm(0.5), 50000, seed=3).dataset
    c = np.cov(out.samples, rowvar=False)
    assert abs(c[0, 1] - 0.5) < 4 / np.sqrt(50000)


def test_gam_residual_matches_noise_distribution():
    scm = gen_gam_chain(3, seed=8)
    data = sample(scm, 5000, seed=9).dataset.samples
    w = NOISE_WIDTH
    for child in (1, 2):
        resid = data[:, child] - scm.mechanisms[(child - 1, child)](data[:, child - 1])
        ks = stats.kstest(resid, stats.uniform(loc=-w / 2, scale=w).cdf)
        assert ks.pvalue > 0.01


# --- population covariance ----------------------------------------------------


def test_population_covariance_zero_edges_identity():
    scm = LinearScm(3, (0, 1, 2), np.zeros((3, 3)))
    assert np.array_equal(population_covariance(scm), np.eye(3))


def test_population_covariance_chain_by_hand():
    cov = population_covariance(_chain_scm(0.5))
    assert cov[1, 1] == pytest.approx(1.25)
    assert cov[0, 1] == pytest.approx(0.5)
    assert cov[0, 0] == pytest.approx(1.0)


def test_population_covariance_matches_monte_carlo():
    scm = gen_linear_scm(5, 1.5, seed=11)
    pop = population_covariance(scm)
    emp = np.cov(sample(scm, 100000, seed=12).dataset.samples, rowvar=False)
    assert np.abs(pop - emp).max() < 5 / np.sqrt(100000) * np.abs(pop).max() * 10


def test_population_covariance_linear_only():
    with pytest.raises(InvalidSize):
        population_covariance(gen_gam_scm(4, 1.0, seed=0))


# --- truth serialization ------------------------------------------------------


def test_truth_json_linear(tmp_path):
    scm = gen_linear_scm(4, 1.5, seed=2)
    obj = truth_to_json(scm)
    assert obj["type"] == "linear" and obj["n"] == 4
    assert sorted(map(tuple, obj["edges"])) == sorted(scm.dag().edges)
    save_truth(scm, tmp_path / "truth.json")
    assert (tmp_path / "truth.json").exists()


def test_truth_json_gam():
    scm = gen_gam_scm(4, 1.5, seed=2)
    obj = truth_to_json(scm)
    assert obj["type"] == "gam" and obj["n"] == 4
    assert len(obj["mechanisms"]) == len(scm.dag.edges)
