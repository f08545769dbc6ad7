import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalpred import core
from causalpred.core import (
    Dataset,
    PropertyValue,
    Query,
    QueryKind,
    binary,
    ci_query_array,
    ci_query_position,
    empirical_error,
    load_dataset,
    real,
    sample_queries,
    save_dataset,
    sign,
)
from causalpred.errors import (
    DataError,
    DuplicateColumn,
    InvalidSize,
    KTooLarge,
    LengthMismatch,
    MissingVariable,
    NonNumericCell,
    TagMismatch,
)
from oracles import ci_rows, enumerate_queries, ref_empirical_error, ref_load_dataset, ref_save_dataset
from traced import traced_peak


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


def test_dataset_freezes_a_float64_array_and_converts_other_input():
    x = np.arange(6.0).reshape(3, 2)
    d = Dataset(x, (0, 1))
    assert d.samples is x and not x.flags.writeable
    ints = np.arange(6, dtype=np.int32).reshape(3, 2)
    for given in (ints, ints.tolist(), np.float32(ints)):
        d = Dataset(given, (0, 1))
        assert d.samples.dtype == np.float64 and not d.samples.flags.writeable
        assert np.array_equal(d.samples, ints)
    assert ints.flags.writeable


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


# --- CSV against the former per-cell load and csv.writer save ---------------


def _load_outcome(load, path):
    """What a loader returns, bit for bit, or the error it raises."""
    try:
        d = load(path)
    except Exception as exc:  # the reference may raise anything; compare it
        return type(exc), str(exc)
    return d.columns, d.samples.shape, d.samples.tobytes()


def _same_load(path):
    assert _load_outcome(load_dataset, path) == _load_outcome(ref_load_dataset, path)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, 1e15, 1e-4, 0.1, 1.7976931348623157e308]),
)
_GOOD_CELLS = st.one_of(
    _FLOATS.map(repr),
    st.integers(-(10**20), 10**20).map(str),
    # ASCII spellings np.loadtxt shares with float()
    st.sampled_from(["1e5", "1E-3", "+.5", ".5", "5.", "-0", " 1.5 ", "007", "1e308", "5e-324"]),
    # spellings only float() takes
    st.sampled_from(["1_000", "١٢", "\xa01", " 2.5", "\t3", "4\x0b", "\x0c5"]),
)
_BAD_CELLS = st.sampled_from(
    [
        "", " ", "abc", "#1", "1#", "0x10", "1d5", "1 2", "1e", "--1", "\x1c1", "1\x00",
        "nan", "-nan", "inf", "-Infinity", "NaN", "1e999",
        '"1.5"', '"1,5"', '" 2"', '"nan"', '"1"2', '"',
    ]
)


@st.composite
def _csv_texts(draw):
    """A header of ids and a matrix of float spellings, then a few faults:
    odd or non-finite cells, quotes, ragged rows, blank lines, odd line ends."""
    width = draw(st.integers(1, 4))
    lines = [[str(i) for i in draw(st.permutations(range(width)))]]
    lines += draw(st.lists(st.lists(_GOOD_CELLS, min_size=width, max_size=width), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(["cell", "ragged", "blank", "header"]))
        if fault == "cell" and i > 0 and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(_BAD_CELLS)
        elif fault == "ragged" and i > 0:
            lines[i] = lines[i][:-1] if draw(st.booleans()) else lines[i] + ["1.0"]
        elif fault == "blank":
            lines.insert(draw(st.integers(1, len(lines))), [])
        elif fault == "header":
            lines[0][0] = draw(st.sampled_from(["x", "1.5", "", " 0", lines[0][-1]]))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ""
    for cells in lines:
        text += ",".join(cells) + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
    return text if draw(st.booleans()) else text[:-1]


@settings(max_examples=400, deadline=None)
@given(_csv_texts())
def test_load_matches_per_cell_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _same_load(path)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(list("0123456789.,-+eE_ #\"naif\n\r\t\x0b\x1c\xa0١")), max_size=40))
def test_load_matches_per_cell_reference_on_any_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "any-text.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _same_load(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0,1\n",
        "0,1",
        "0,1\n1,2\n\n3,4\n",  # blank line in the middle
        "0,1\n1,2\n3,4\n\n",  # and at the end
        "0\n1\n\n",
        "\n\n",
        "0,1\r1,2\r3,4\r",  # \r-only line ends
        "0,1\r\n1,2\r3,4\n",
        "0,1\n#1,2\n",  # np.loadtxt would drop a comment if asked to
        "0,1\n1,2,\n",
        "0,1\n1,\"2\"\n",
        "0,1\n1_000,١٢\n",
        "0,1\n\x1c1,2\n",  # loadtxt strips \x1c, float() does not
    ],
)
def test_load_matches_per_cell_reference_on_edge_files(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _same_load(path)


@pytest.mark.parametrize(
    "text, row, col",
    [
        ("0,1\nnan,1\n2,abc\n", 2, 1),  # an unparseable cell wins over an earlier nan
        ("0,1\n1,inf\nnan,abc\n", 2, 1),
        ("0,1\n1,2\n3,inf\nnan,4\n", 2, 1),  # only then does the first non-finite one count
        ("0,1\n1,nan\ninf,2\n", 1, 1),
    ],
)
def test_load_error_precedence(tmp_path, text, row, col):
    path = tmp_path / "d.csv"
    path.write_text(text)
    for load in (load_dataset, ref_load_dataset):
        with pytest.raises(NonNumericCell) as exc:
            load(path)
        assert (exc.value.row, exc.value.col) == (row, col)


@pytest.mark.parametrize("text", ["\n\n", "\n1,2\n", "\r\n0\r\n1\r\n", "\n\n\n"])
def test_load_refuses_a_file_with_no_header_ids(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    for load in (load_dataset, ref_load_dataset):
        with pytest.raises(InvalidSize, match="no header ids"):
            load(path)


@pytest.mark.parametrize(
    "raw, offset",
    [(b"0,1\n1.0,\xff\n", 8), (b"\xc3,1\n1,2\n", 0), (b"0,\xe5\x90\r\n1,2\r\n", 2), (b"0,1\n1,2\xe2\x82", 7)],
)
def test_load_refuses_a_file_that_is_not_utf8(tmp_path, raw, offset):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError) as exc:
        load_dataset(path)
    assert str(path) in str(exc.value) and f"byte {offset} " in str(exc.value)


@pytest.mark.parametrize("rows", [1, 2])
@settings(max_examples=200, deadline=None)
@given(text=_csv_texts())
def test_load_matches_per_cell_reference_a_block_at_a_time(tmp_path_factory, rows, text):
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(core, "BLOCK_ROWS", rows):
        _same_load(path)


@pytest.mark.parametrize("rows", [1, 2, 512])
@pytest.mark.parametrize(
    "text",
    [
        "0,1\r\n1,2\r\n3,4\r\n5,6\r\n\"7\",8\r\n",  # a quote in the last block only
        "0,1\n1,2\n3,4\n5,6\n\n7,8\n",  # a blank line there
        "0,1\n1,2\n3,4\n5,6\n7,8\n\n",
        "0,1\r1,2\r\n3,4\n5,6\n7,8\r",  # a lone \r, which cuts a block into more lines
        "0,1\n1,2\n3,4\n5,6\n7,8\r9,10\n",
    ],
)
def test_load_matches_per_cell_reference_when_the_last_block_is_not_plain(tmp_path, rows, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(core, "BLOCK_ROWS", rows):
        _same_load(path)


@pytest.mark.parametrize("rows", [1, 2])
def test_an_unreadable_cell_in_a_later_block_wins_over_an_earlier_nan(tmp_path, rows):
    path = tmp_path / "d.csv"
    path.write_text("0,1\nnan,1\n2,3\n4,5\n6,abc\n7,inf\n")
    with mock.patch.object(core, "BLOCK_ROWS", rows):
        with pytest.raises(NonNumericCell) as exc:
            load_dataset(path)
    assert (exc.value.row, exc.value.col) == (4, 1)


@pytest.mark.parametrize("rows", [1, 2])
def test_a_bad_byte_in_a_later_block_is_refused_at_its_offset_in_the_file(tmp_path, rows):
    path = tmp_path / "d.csv"
    raw = b"0,1\r\n1,2\r\n3,4\r\n5,6\r\n7,\xff\r\n"
    path.write_bytes(raw)
    offset = raw.index(b"\xff")
    with mock.patch.object(core, "BLOCK_ROWS", rows):
        with pytest.raises(DataError) as exc:
            load_dataset(path)
    assert f"byte {offset} " in str(exc.value)


def test_load_reads_a_plain_file_in_blocks(tmp_path, monkeypatch):
    d = Dataset(np.random.default_rng(0).standard_normal((30, 4)), (3, 0, 1, 2))
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    calls = []
    loadtxt = np.loadtxt

    def counted(lines, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, **kwargs)

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader was used on a plain file")

    monkeypatch.setattr("causalpred.core.csv.reader", no_reader)
    monkeypatch.setattr("causalpred.core.np.loadtxt", counted)
    monkeypatch.setattr(core, "BLOCK_ROWS", 7)
    back = load_dataset(path)
    assert calls == [7, 7, 7, 7, 2]
    assert back.columns == d.columns
    assert back.samples.tobytes() == d.samples.tobytes()


NAMES = ["température0", "Größe", "名前", "a b", "x\u2028y", "\x85z", "del\x7f", "\ufeffbom"]


def test_load_reads_a_plain_file_with_a_named_header_in_blocks(tmp_path, monkeypatch):
    # a header of non-ASCII sidecar names is cut by commas, not by csv.reader
    names = tmp_path / "names.json"
    names.write_text(json.dumps({"names": NAMES}), encoding="utf-8")
    d = Dataset(np.random.default_rng(0).standard_normal((30, 4)), (3, 0, 1, 2))
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    body = path.read_bytes().split(b"\r\n", 1)[1]
    path.write_bytes(",".join(NAMES[c] for c in d.columns).encode("utf-8") + b"\r\n" + body)

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader was used on a plain file")

    monkeypatch.setattr("causalpred.core.csv.reader", no_reader)
    monkeypatch.setattr(core, "BLOCK_ROWS", 7)
    back = load_dataset(path, names)
    assert back.columns == d.columns
    assert back.samples.tobytes() == d.samples.tobytes()


@pytest.mark.parametrize(
    "header",
    [
        "température0,Größe",
        " 名前 ,a b",
        "x\u2028y,\x85z",  # line breaks to str.splitlines, not to csv.reader
        "del\x7f,\ufeffbom",
        "\ufeffbom,température0",
        "Größe,Größe",
        "Größe,unknown",
        "température0,",
        '"Größe",a b',  # a quote: csv.reader unquotes it
        "Größe\x0b,a b",  # a control character
        "Größe\r,a b",  # a lone \r inside the line
        "Größe,a b\r",  # so \r\r\n ends the header
        "",
    ],
)
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_load_matches_per_cell_reference_on_named_headers(tmp_path, header, end):
    names = tmp_path / "names.json"
    names.write_text(json.dumps({"names": NAMES}), encoding="utf-8")
    path = tmp_path / "d.csv"
    path.write_text(header + end + "1.5,2" + end + "3,4" + end, encoding="utf-8", newline="")
    assert _load_outcome(lambda p: load_dataset(p, names), path) == _load_outcome(
        lambda p: ref_load_dataset(p, names), path
    )


def test_load_holds_the_array_and_one_block_of_text(tmp_path):
    # 10^5 rows of ten columns, a 20 MB file: the whole text, its lines and
    # a concatenated copy of the matrix came to several times the file; a
    # block at a time the load holds the array it returns and a few copies
    # of one block's text
    d = Dataset(np.random.default_rng(1).standard_normal((100_000, 10)), tuple(range(10)))
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    save_dataset(Dataset(d.samples[:3], d.columns), tmp_path / "warm.csv")
    load_dataset(tmp_path / "warm.csv")  # no first-call set-up is traced
    back, peak = traced_peak(lambda: load_dataset(path))
    assert back.samples.tobytes() == d.samples.tobytes()
    block_text = core.BLOCK_ROWS * max(len(line) for line in path.read_bytes().splitlines())
    assert peak <= d.samples.nbytes + 8 * block_text


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda w: st.tuples(
            st.permutations(range(w)),
            st.lists(st.lists(st.one_of(_FLOATS, st.floats()), min_size=w, max_size=w), min_size=1, max_size=8),
        )
    )
)
def test_save_matches_csv_writer(tmp_path_factory, columns_rows):
    columns, rows = columns_rows
    d = Dataset(np.array(rows), tuple(columns))
    here = tmp_path_factory.getbasetemp()
    save_dataset(d, here / "save-new.csv")
    ref_save_dataset(d, here / "save-ref.csv")
    assert (here / "save-new.csv").read_bytes() == (here / "save-ref.csv").read_bytes()


def test_save_holds_one_block_of_text_at_a_time(tmp_path):
    # 65536 rows of ten columns, sixteen blocks: the whole file's text held
    # at once, with its Python floats and row strings, came to about three
    # times the file's size; a block at a time stays well under half of it
    d = Dataset(np.random.default_rng(0).standard_normal((65_536, 10)), tuple(range(10)))
    save_dataset(Dataset(d.samples[:2], d.columns), tmp_path / "warm.csv")
    _, peak = traced_peak(lambda: save_dataset(d, tmp_path / "d.csv"))
    assert peak < (tmp_path / "d.csv").stat().st_size / 2


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


def _padded(queries, width):
    return [list(q.members + q.cond) + [-1] * (width - 2 - len(q.cond)) for q in queries]


@pytest.mark.parametrize("n", range(2, 9))
def test_ci_query_array_is_enumerate_queries_in_its_order(n):
    for s in range(n - 1):
        want = enumerate_queries(n, QueryKind.COND_INDEP, s)
        got = ci_query_array(n, [s])
        assert got.shape == (len(want), 2 + s) and got.dtype == np.intp
        assert got.tolist() == _padded(want, 2 + s)
        assert ci_rows(want).tolist() == got.tolist()
    # several sizes: their blocks in the order given, padded to the widest
    sizes = list(range(n - 1))[::-1]
    want = [q for s in sizes for q in enumerate_queries(n, QueryKind.COND_INDEP, s)]
    assert ci_query_array(n, sizes).tolist() == _padded(want, n)


def test_ci_query_array_refuses_what_enumerate_queries_refuses():
    for n, sizes in ((1, [0]), (2, [0, 1]), (5, [-1]), (5, [4])):
        with pytest.raises(InvalidSize) as want:
            enumerate_queries(n, QueryKind.COND_INDEP, sizes[-1])
        with pytest.raises(InvalidSize) as got:
            ci_query_array(n, sizes)
        assert str(got.value) == str(want.value)
    assert ci_query_array(4, []).shape == (0, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.data())
def test_ci_query_position_inverts_the_order_0_1_universe(n, data):
    # any draw of the universe's rows, whose order-0 rows are padded with
    # -1, and its order-0 rows unpadded, go back to their positions
    universe = ci_query_array(n, (0, 1) if n > 2 else (0,))
    at = np.array(data.draw(st.lists(st.integers(0, len(universe) - 1), max_size=60)), dtype=np.intp)
    assert np.array_equal(ci_query_position(n, universe[at].reshape(-1, universe.shape[1])), at)
    assert np.array_equal(ci_query_position(n, universe), np.arange(len(universe)))
    pairs = n * (n - 1) // 2
    assert np.array_equal(ci_query_position(n, universe[:pairs, :2]), np.arange(pairs))


def test_ci_query_position_refuses_rows_of_other_widths():
    # a deeper level's row would otherwise be read as an order-1 row
    for rows in (ci_query_array(5, (2,)), ci_query_array(5, (0, 1, 2)), [0, 1], [[0]]):
        with pytest.raises(InvalidSize):
            ci_query_position(5, rows)


def test_ci_rows_pad_and_refuse_other_kinds():
    rows = ci_rows([Query.ci(3, 1, (2, 0)), Query.ci(0, 1)])
    assert rows.tolist() == [[1, 3, 0, 2], [0, 1, -1, -1]]
    assert ci_rows([]).shape == (0, 2)
    with pytest.raises(InvalidSize):
        ci_rows([Query.ci(0, 1), Query.ordered_pair(0, 1)])


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


@pytest.mark.parametrize("n, k", [(21, 5), (22, 5), (1045, 90), (1046, 90), (10**5, 7)])
def test_a_draw_from_a_range_is_the_draw_from_its_list(n, k):
    # random.sample lists a population of at most 21 + 4 ** ceil(log4(3k))
    # members (21 for k <= 5) and indexes a larger one; each pair of cases
    # sits on both sides of that switch
    for seed in range(5):
        assert sample_queries(range(n), k, seed) == random.Random(seed).sample(list(range(n)), k)


def test_sample_deterministic():
    universe = enumerate_queries(6, QueryKind.COND_INDEP, 1)
    assert sample_queries(universe, 10, seed=5) == sample_queries(universe, 10, seed=5)


# --- empirical_error ----------------------------------------------------------


def test_empirical_error_binary():
    assert empirical_error([1, 1, 1], np.array([1, 0, 1])) == pytest.approx(1 / 3)


def test_empirical_error_errors():
    with pytest.raises(LengthMismatch):
        empirical_error([1], [])
    with pytest.raises(LengthMismatch):
        empirical_error([], [])
    # real and sign values are refused, not averaged
    for bad in ([0.2], [-1], [2]):
        with pytest.raises(TagMismatch):
            empirical_error([1], bad)
        with pytest.raises(TagMismatch):
            empirical_error(bad, [1])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_empirical_error_in_unit_interval_for_binary(bits):
    preds = np.array(bits)
    err = empirical_error(preds, 1 - preds)
    assert err == 1.0
    assert empirical_error(preds, preds) == 0.0
    assert empirical_error(preds, np.zeros_like(preds)) == ref_empirical_error(
        [binary(b) for b in bits], [binary(0)] * len(bits)
    )
