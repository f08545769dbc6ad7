import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalpred.core import (
    Dataset,
    PropertyValue,
    Query,
    QueryKind,
    binary,
    empirical_error,
    enumerate_queries,
    load_dataset,
    matrix,
    project,
    real,
    sample_queries,
    save_dataset,
    sign,
)
from causalpred.errors import (
    DuplicateColumn,
    InvalidSize,
    KTooLarge,
    LengthMismatch,
    MissingVariable,
    NonNumericCell,
    TagMismatch,
)


# --- Query canonicalization ---------------------------------------------------


def test_ci_query_canonical_form():
    q = Query.ci(3, 1, (5, 2))
    assert q.members == (1, 3)
    assert q.cond == (2, 5)


def test_ci_query_equality_across_orderings():
    assert Query.ci(3, 1, (5, 2)) == Query.ci(1, 3, (2, 5))
    assert Query.unordered_pair(2, 0) == Query.unordered_pair(0, 2)


def test_ordered_kinds_keep_member_order():
    assert Query.ordered_pair(2, 0).members == (2, 0)
    assert Query.ordered_tuple(2, 0, 1).members == (2, 0, 1)
    assert Query.ordered_pair(2, 0) != Query.ordered_pair(0, 2)


def test_query_rejects_duplicates_and_overlap():
    with pytest.raises(InvalidSize):
        Query.ci(1, 1)
    with pytest.raises(InvalidSize):
        Query.ci(0, 1, (1,))
    with pytest.raises(InvalidSize):
        Query.ordered_pair(2, 2)


def test_only_ci_takes_conditioning_set():
    with pytest.raises(InvalidSize):
        Query(QueryKind.UNORDERED_PAIR, (0, 1), (2,))


@given(
    st.lists(st.integers(0, 30), min_size=4, max_size=8, unique=True),
    st.randoms(use_true_random=False),
)
def test_ci_canonicalization_is_order_invariant(ids, rnd):
    a, b, *cond = ids
    shuffled = list(cond)
    rnd.shuffle(shuffled)
    assert Query.ci(a, b, cond) == Query.ci(b, a, shuffled)


@given(st.integers(0, 20), st.integers(0, 20))
def test_unordered_pair_symmetric(a, b):
    if a == b:
        with pytest.raises(InvalidSize):
            Query.unordered_pair(a, b)
    else:
        assert Query.unordered_pair(a, b) == Query.unordered_pair(b, a)


# --- PropertyValue ------------------------------------------------------------


def test_binary_and_sign_domains():
    assert binary(1).value == 1
    assert sign(-1).value == -1
    with pytest.raises(TagMismatch):
        binary(2)
    with pytest.raises(TagMismatch):
        sign(0)


def test_real_coerces_to_float():
    assert real(1).value == 1.0
    assert isinstance(real(1).value, float)


def test_matrix_must_be_symmetric_psd():
    m = matrix([[1.0, 0.5], [0.5, 1.0]])
    assert m.tag == "matrix"
    with pytest.raises(TagMismatch):
        matrix([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(TagMismatch):
        matrix([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1


def test_unknown_tag_rejected():
    with pytest.raises(TagMismatch):
        PropertyValue("complex", 1j)


# --- Dataset and persistence --------------------------------------------------


def _toy_dataset():
    return Dataset(np.arange(12.0).reshape(4, 3), (0, 1, 2))


def test_dataset_shape_checks():
    with pytest.raises(InvalidSize):
        Dataset(np.zeros((3, 2)), (0, 1, 2))
    with pytest.raises(DuplicateColumn):
        Dataset(np.zeros((3, 2)), (1, 1))
    with pytest.raises(InvalidSize):
        Dataset(np.zeros((0, 2)), (0, 1))


def test_dataset_column_lookup():
    d = _toy_dataset()
    assert np.array_equal(d.column(1), np.array([1.0, 4.0, 7.0, 10.0]))
    with pytest.raises(MissingVariable):
        d.column(7)


def test_csv_roundtrip(tmp_path):
    d = _toy_dataset()
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    back = load_dataset(path)
    assert back.columns == d.columns
    assert np.array_equal(back.samples, d.samples)


def test_csv_duplicate_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,0\n1.0,2.0\n")
    with pytest.raises(DuplicateColumn):
        load_dataset(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1.0,abc\n")
    with pytest.raises(NonNumericCell) as exc:
        load_dataset(path)
    assert exc.value.row == 1
    assert exc.value.col == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_csv_non_finite_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,1\n1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(NonNumericCell) as exc:
        load_dataset(path)
    assert exc.value.row == 2
    assert exc.value.col == 1


def test_csv_named_columns(tmp_path):
    names = tmp_path / "names.json"
    names.write_text(json.dumps({"names": ["age", "height", "weight"]}))
    path = tmp_path / "named.csv"
    path.write_text("weight,age\n60.0,30.0\n70.0,40.0\n")
    d = load_dataset(path, names)
    assert d.columns == (2, 0)
    assert np.array_equal(d.column(0), np.array([30.0, 40.0]))


# --- project ------------------------------------------------------------------


def test_project_pair():
    d = _toy_dataset()
    out = project(d, Query.unordered_pair(2, 0))
    # unordered pairs canonicalize to sorted order
    assert out.columns == (0, 2)
    assert out.l == d.l
    assert np.array_equal(out.column(2), d.column(2))


def test_project_keeps_ordered_member_order():
    d = _toy_dataset()
    out = project(d, Query.ordered_pair(2, 0))
    assert out.columns == (2, 0)


def test_project_missing_variable():
    with pytest.raises(MissingVariable):
        project(_toy_dataset(), Query.ci(0, 7))


# --- enumerate / sample -------------------------------------------------------


def test_enumerate_unordered_n3():
    qs = enumerate_queries(3, QueryKind.UNORDERED_PAIR)
    assert len(qs) == 3
    assert len(set(qs)) == 3


def test_enumerate_ci_infeasible_cond():
    with pytest.raises(InvalidSize):
        enumerate_queries(2, QueryKind.COND_INDEP, 1)


def test_enumerate_ci_n4_cond1():
    qs = enumerate_queries(4, QueryKind.COND_INDEP, 1)
    assert len(qs) == 12  # 4*3*2/2
    assert len(set(qs)) == 12


def test_enumerate_ordered_tuple_unsupported():
    with pytest.raises(InvalidSize):
        enumerate_queries(4, QueryKind.ORDERED_TUPLE)


def test_sample_full_universe_is_permutation():
    universe = enumerate_queries(4, QueryKind.UNORDERED_PAIR)
    drawn = sample_queries(universe, len(universe), seed=3)
    assert sorted(drawn, key=str) == sorted(universe, key=str)


def test_sample_k_out_of_range():
    universe = enumerate_queries(3, QueryKind.UNORDERED_PAIR)
    with pytest.raises(KTooLarge):
        sample_queries(universe, 4, seed=0)
    with pytest.raises(KTooLarge):
        sample_queries(universe, 0, seed=0)


def test_sample_uniformity_overlap():
    # two independent draws of 100 from 360 overlap ~ 100*100/360 = 27.8
    universe = enumerate_queries(10, QueryKind.COND_INDEP, 1)
    assert len(universe) == 360
    overlaps = []
    for s in range(200):
        a = set(sample_queries(universe, 100, seed=2 * s))
        b = set(sample_queries(universe, 100, seed=2 * s + 1))
        overlaps.append(len(a & b))
    assert abs(np.mean(overlaps) - 100 * 100 / 360) < 1.5


def test_sample_deterministic():
    universe = enumerate_queries(6, QueryKind.COND_INDEP, 1)
    assert sample_queries(universe, 10, seed=5) == sample_queries(universe, 10, seed=5)


# --- empirical_error ----------------------------------------------------------


def test_empirical_error_binary():
    preds = [binary(1), binary(1), binary(1)]
    results = [binary(1), binary(0), binary(1)]
    assert empirical_error(preds, results) == pytest.approx(1 / 3)


def test_empirical_error_real():
    preds = [real(0.2), real(-0.4)]
    results = [real(0.1), real(-0.1)]
    assert empirical_error(preds, results) == pytest.approx(0.2)


def test_empirical_error_sign_counts_two_per_disagreement():
    assert empirical_error([sign(1)], [sign(-1)]) == 2.0


def test_empirical_error_errors():
    with pytest.raises(LengthMismatch):
        empirical_error([binary(1)], [])
    with pytest.raises(LengthMismatch):
        empirical_error([], [])
    with pytest.raises(TagMismatch):
        empirical_error([binary(1)], [real(1.0)])
    with pytest.raises(TagMismatch):
        empirical_error([matrix(np.eye(2))], [matrix(np.eye(2))])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_empirical_error_in_unit_interval_for_binary(bits):
    preds = [binary(b) for b in bits]
    results = [binary(1 - b) for b in bits]
    err = empirical_error(preds, results)
    assert 0.0 <= err <= 1.0
    assert empirical_error(preds, preds) == 0.0
