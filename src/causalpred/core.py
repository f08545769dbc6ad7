"""Variable universe, datasets, queries, property values, and empirical risk.

Conventions used throughout the package:

* variables are integers ``0..n-1`` of a global universe; an optional
  sidecar JSON file may map names to those ids,
* binary properties use ``1`` for "independence / property holds" and
  ``0`` otherwise; sign properties use ``{-1, +1}``,
* queries are canonicalized (sorted pair, sorted conditioning set) so
  that equality and set membership are well defined.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DuplicateColumn,
    InvalidSize,
    KTooLarge,
    LengthMismatch,
    MissingVariable,
    NonNumericCell,
    ParseError,
    TagMismatch,
    UnknownNode,
)


class QueryKind(Enum):
    COND_INDEP = "ci"
    ORDERED_PAIR = "ordered_pair"
    UNORDERED_PAIR = "unordered_pair"
    ORDERED_TUPLE = "ordered_tuple"


@dataclass(frozen=True)
class Query:
    """A partly ordered variable tuple plus the property it refers to.

    For ``COND_INDEP`` the target pair is unordered and ``cond`` holds the
    (unordered) conditioning set; both are stored sorted.  Ordered kinds
    keep their member order.
    """

    kind: QueryKind
    members: tuple
    cond: tuple = ()

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        cond = tuple(int(c) for c in self.cond)
        if self.kind in (QueryKind.COND_INDEP, QueryKind.UNORDERED_PAIR):
            members = tuple(sorted(members))
        if self.kind == QueryKind.COND_INDEP:
            cond = tuple(sorted(cond))
        elif cond:
            raise InvalidSize("only conditional-independence queries take a conditioning set")
        if self.kind != QueryKind.ORDERED_TUPLE and len(members) != 2:
            raise InvalidSize(f"{self.kind.value} query needs exactly two members")
        if self.kind == QueryKind.ORDERED_TUPLE and len(members) < 1:
            raise InvalidSize("ordered tuple must be nonempty")
        everything = members + cond
        if len(set(everything)) != len(everything):
            raise InvalidSize("query variables must be distinct")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "cond", cond)

    # convenience constructors -------------------------------------------------

    @staticmethod
    def ci(a, b, cond=()):
        return Query(QueryKind.COND_INDEP, (a, b), tuple(cond))

    @staticmethod
    def ordered_pair(source, target):
        return Query(QueryKind.ORDERED_PAIR, (source, target))

    @staticmethod
    def unordered_pair(a, b):
        return Query(QueryKind.UNORDERED_PAIR, (a, b))

    @staticmethod
    def ordered_tuple(*ids):
        return Query(QueryKind.ORDERED_TUPLE, tuple(ids))

    def variables(self):
        return self.members + self.cond


@dataclass(frozen=True)
class PropertyValue:
    """Tagged property value: binary 0/1, real, or sign -1/+1."""

    tag: str
    value: object = None

    def __post_init__(self):
        if self.tag == "binary":
            if self.value not in (0, 1):
                raise TagMismatch(f"binary value must be 0 or 1, got {self.value}")
        elif self.tag == "sign":
            if self.value not in (-1, 1):
                raise TagMismatch(f"sign value must be -1 or +1, got {self.value}")
        elif self.tag == "real":
            object.__setattr__(self, "value", float(self.value))
        else:
            raise TagMismatch(f"unknown property tag {self.tag!r}")


def binary(v) -> PropertyValue:
    return PropertyValue("binary", int(v))


def real(v) -> PropertyValue:
    return PropertyValue("real", float(v))


def sign(v) -> PropertyValue:
    return PropertyValue("sign", int(v))


@dataclass(frozen=True)
class Dataset:
    """An l x k sample matrix together with the global ids of its columns.
    A float64 array is taken without a copy and frozen (set read-only)."""

    samples: np.ndarray
    columns: tuple

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise InvalidSize("samples must be a 2-d matrix")
        columns = tuple(int(c) for c in self.columns)
        if samples.shape[1] != len(columns):
            raise InvalidSize("column-id list must match the matrix width")
        if len(set(columns)) != len(columns):
            raise DuplicateColumn(f"duplicate column ids in {columns}")
        if samples.shape[0] < 1:
            raise InvalidSize("dataset needs at least one row")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "columns", columns)

    @property
    def l(self):
        return self.samples.shape[0]

    def column(self, variable) -> np.ndarray:
        """Return the sample column for a global variable id."""
        try:
            idx = self.columns.index(variable)
        except ValueError:
            raise MissingVariable(variable) from None
        return self.samples[:, idx]


# rows per block of CSV text: `save_dataset` formats, and `load_dataset`
# checks and parses, this many lines at a time, so neither holds a file's
# whole text; loading 10^6 rows of ten columns peaked at 105 MB resident
# (590 MB with the whole text held), and `causalpred gen` of them at
# 145 MB (149 MB in blocks of 4096 rows)
BLOCK_ROWS = 512

_NOT_PLAIN = bytes(c for c in range(256) if c < 32 and c not in (10, 13) or c >= 127) + b'"'


def _line_count(path):
    """The \\n-ended lines of a file, and a last one with no end."""
    count, last = 0, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return count + (last not in (b"", b"\n"))


def _plain_lines(text):
    """The lines of a text of printable ASCII and line ends, with no quote
    character and no blank line, else None.  csv.reader cuts such a text
    into rows at these lines and commas, and np.loadtxt reads a cell of it
    exactly when float() does, to the same double."""
    if len(text.translate(None, _NOT_PLAIN)) != len(text):
        return None
    lines = text.decode("ascii").splitlines()
    return lines if lines and "" not in lines else None


def _load_plain(path):
    """The header cells and the body matrix of a plain file, else None.

    The file is read BLOCK_ROWS lines at a time, each block checked by
    ``_plain_lines`` and parsed by one np.loadtxt call into one
    preallocated array.  The first block that is not plain, or that
    np.loadtxt cannot read as a finite matrix, gives None.  So does a block
    with a lone \\r line end, which ``_plain_lines`` cuts into more lines
    than the \\n ends that sized the array."""
    rows = _line_count(path) - 1
    with open(path, "rb") as fh:
        header = _plain_lines(fh.readline())
        if rows < 1 or header is None or len(header) != 1:
            return None
        header = header[0].split(",")
        data = np.empty((rows, len(header)))
        for start in range(0, rows, BLOCK_ROWS):
            target = data[start : start + BLOCK_ROWS]
            lines = _plain_lines(b"".join(islice(fh, BLOCK_ROWS)))
            if lines is None:
                return None
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                return None
            if block.shape != target.shape or not np.isfinite(block).all():
                return None
            target[:] = block
    return header, data


def _csv_rows(path):
    """The csv.reader rows of a UTF-8 file's whole text."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: byte {exc.start} cannot be decoded") from None
    return list(csv.reader(io.StringIO(text, newline="")))


def load_dataset(path, names_path=None) -> Dataset:
    """Load a CSV dataset; header row carries variable ids or names.

    Names are resolved through a sidecar JSON file ``{"names": [...]}``
    whose list index is the global variable id.  A cell holds what
    ``float()`` reads, apart from non-finite values.  A plain file is read
    a block at a time; any other file, and a plain one with a fault, is
    read whole by csv.reader and float() per cell, which names the fault.
    """
    path = Path(path)
    plain = _load_plain(path)
    if plain is None:
        rows = _csv_rows(path)
        if not rows:
            raise InvalidSize(f"{path} is empty")
        header, body = rows[0], rows[1:]
        if not header:
            raise InvalidSize(f"{path} has no header ids: its first line is blank")
        if not body:
            raise InvalidSize(f"{path} has no data rows")
    else:
        header, data = plain

    name_to_id = {}
    if names_path is not None:
        with open(names_path, encoding="utf-8") as fh:
            obj = load_json(fh)
        names = obj.get("names") if isinstance(obj, dict) else None
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise ParseError(f'{names_path} holds no "names" list of strings')
        name_to_id = {name: i for i, name in enumerate(names)}

    columns = []
    for cell in header:
        cell = cell.strip()
        if cell in name_to_id:
            columns.append(name_to_id[cell])
        else:
            try:
                columns.append(int(cell))
            except ValueError:
                raise NonNumericCell(0, cell) from None
    if len(set(columns)) != len(columns):
        raise DuplicateColumn(f"duplicate header ids in {columns}")

    if plain is None:
        data = np.empty((len(body), len(columns)))
        for i, row in enumerate(body):
            if len(row) != len(columns):
                raise InvalidSize(f"row {i + 1} has {len(row)} cells, expected {len(columns)}")
            for j, cell in enumerate(row):
                try:
                    data[i, j] = float(cell)
                except ValueError:
                    raise NonNumericCell(i + 1, j) from None
        # float() accepts "nan" and "inf", which no test or fit can use
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            raise NonNumericCell(int(bad[0][0]) + 1, int(bad[0][1]))
    return Dataset(data, tuple(columns))


def load_json(fh):
    """``json.load`` of an open file; text that is not JSON, or not UTF-8,
    is a ParseError."""
    try:
        return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{fh.name} is not JSON: {exc}") from None


def save_dataset(d: Dataset, path):
    """Write a dataset as csv.writer does: id header, ``repr`` floats, CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(str, d.columns)) + "\r\n")
        for start in range(0, len(d.samples), BLOCK_ROWS):
            rows = d.samples[start : start + BLOCK_ROWS].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


def check_universe(n, kind, cond_size=0):
    """Refuse the arguments of a query universe on n variables: fewer than
    two variables, or a conditioning size that the kind does not take or
    that n cannot hold.  Allocates nothing."""
    if n < 2:
        raise InvalidSize("need at least two variables")
    if kind == QueryKind.COND_INDEP:
        if cond_size < 0 or cond_size > n - 2:
            raise InvalidSize(f"conditioning size {cond_size} infeasible for n={n}")
    elif cond_size:
        raise InvalidSize("conditioning set only applies to conditional independence")


# --- CI queries as index arrays -----------------------------------------------
#
# A batch of conditional-independence queries travels as an int array with
# one row (a, b, c1, ..., cs) per query: the pair, then the conditioning
# set padded with -1 to the width of the largest one.


def ci_query_array(n, cond_sizes) -> np.ndarray:
    """The CI query universe on n nodes with conditioning sets of each size
    s in ``cond_sizes``, in that order, as rows: within a size, the pairs
    a < b in lexicographic order, each with its s-sets in theirs.

    For a < b, the i-th smallest node other than a and b is
    i + (i >= a) + (i >= b - 1), which maps the s-subsets of range(n - 2)
    in lexicographic order onto the conditioning sets in theirs."""
    cond_sizes = list(cond_sizes)
    for s in cond_sizes:
        check_universe(n, QueryKind.COND_INDEP, s)
    width = 2 + max(cond_sizes, default=0)
    a, b = np.triu_indices(n, 1)
    a, b = a[:, None, None], b[:, None, None]
    blocks = [np.empty((0, width), dtype=np.intp)]
    for s in cond_sizes:
        subsets = list(combinations(range(n - 2), s))
        ranks = np.array(subsets, dtype=np.intp).reshape(1, len(subsets), s)
        block = np.full((len(a), len(subsets), width), -1, dtype=np.intp)
        block[:, :, 0:1] = a
        block[:, :, 1:2] = b
        block[:, :, 2 : 2 + s] = ranks + (ranks >= a) + (ranks >= b - 1)
        blocks.append(block.reshape(-1, width))
    return np.concatenate(blocks)


def ci_query_position(n, rows) -> np.ndarray:
    """The inverse of ``ci_query_array(n, (0, 1))``: the position there of
    each row (a, b) or (a, b, c), a < b, with c = -1 for an order-0 row.

    Pair (a, b) comes after the a(2n - a - 1)/2 pairs of a smaller first
    node and the b - a - 1 pairs (a, b') with b' < b; order-1 rows follow
    all n(n - 1)/2 pairs, n - 2 per pair, with c at its rank
    c - (c > a) - (c > b) among the nodes other than a and b.  A row of
    another width, such as a padded row of a deeper level, is refused
    rather than read as order 1."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise InvalidSize("universe positions take rows (a, b) or (a, b, c)")
    a, b = rows[:, 0], rows[:, 1]
    pair = a * (2 * n - a - 1) // 2 + (b - a - 1)
    if rows.shape[1] == 2:
        return pair
    c = rows[:, 2]
    order1 = n * (n - 1) // 2 + pair * (n - 2) + c - (c > a) - (c > b)
    return np.where(c == -1, pair, order1)


def check_nodes(n, *nodes):
    for v in nodes:
        if not 0 <= v < n:
            raise UnknownNode(v)


def check_ci_rows(rows, n) -> np.ndarray:
    """CI query rows (a, b, c1, ..., cs) on nodes 0..n-1, padded at the end
    with -1, as a 2-d index array.  The first bad row raises what its Query
    and node check would, or InvalidSize for a node after its padding."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise InvalidSize("CI query rows must be a 2-d array of width at least 2")
    bad = np.zeros(len(rows), dtype=bool)
    for j, node in enumerate(rows.T):  # column by column: rows are short
        bad |= (node < (0 if j < 2 else -1)) | (node >= n)
        if j > 2:
            bad |= (rows[:, j - 1] == -1) & (node != -1)
        for earlier in rows.T[:j]:
            bad |= (earlier == node) & (node != -1)
    if bad.any():
        row = rows[int(np.argmax(bad))].tolist()
        q = Query.ci(row[0], row[1], [c for c in row[2:] if c != -1])  # a node twice: InvalidSize
        check_nodes(n, *q.variables())
        raise InvalidSize(f"CI query row {row} has a node after its -1 padding")
    return rows


def sample_queries(universe, k, seed):
    """Draw k distinct members of the sequence ``universe`` uniformly
    without replacement; a range draws what its list draws."""
    if not 1 <= k <= len(universe):
        raise KTooLarge(f"cannot draw {k} from a universe of {len(universe)}")
    return random.Random(seed).sample(universe, k)


def empirical_error(predictions, results) -> float:
    """Share of positions where two 0/1 arrays differ: the disagreement
    rate of predicted and tested binary values."""
    predictions, results = np.asarray(predictions), np.asarray(results)
    if predictions.shape != results.shape:
        raise LengthMismatch(f"{predictions.size} predictions vs {results.size} results")
    if not predictions.size:
        raise LengthMismatch("need at least one prediction")
    for a in (predictions, results):
        if np.count_nonzero((a != 0) & (a != 1)):
            raise TagMismatch("binary values must be 0 or 1")
    return int(np.count_nonzero(predictions != results)) / predictions.size
