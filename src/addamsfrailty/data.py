"""Clustered current-status datasets and their CSV representation.

The on-disk format is long: one row per (cluster, unit) with required
columns ``cluster_id, unit, time, event`` plus optional ``stratum`` and
``weight`` columns and arbitrary covariate columns.  ``weight`` and
``stratum`` must be constant within a cluster, and ``weight`` > 0.  The
file is UTF-8, a leading byte-order mark skipped, and may quote cells as
csv does.

In memory a :class:`CurrentStatusDataset` is a set of read-only numpy
columns.  Row columns, one entry per (cluster, unit) record:

* ``cluster``: the record's cluster code, an index into the per-cluster
  columns;
* ``unit``: a code into ``unit_names``;
* ``time`` (float64) and ``event`` (int8);
* ``covariates`` [rows, q] (float64) with one column per name in
  ``covariate_names``, and the boolean ``present`` [rows, q] marking the
  cells that hold a value.  An empty CSV cell is absent, while a literal
  ``nan`` is a present value, so absence is never coded as NaN.

Per-cluster columns: ``cluster_ids``, ``stratum`` (a code into
``stratum_names``, -1 for none) and ``weight``.  Rows are stored grouped
by cluster, the clusters in order of first appearance and each cluster's
records in file order, so every sum over the rows runs in that order.

``clusters`` is a read-only view of the same data as :class:`Cluster` and
:class:`UnitRecord` objects, built on first access.  The likelihood, the
fit, the simulator, the CSV writer and ``==`` use the columns and never
build it; ``CurrentStatusDataset(clusters)`` still builds a dataset from
such objects.  A monitoring time must be finite and >= 0.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadEventFlag,
    DatasetError,
    DuplicateUnit,
    InvalidParameters,
    MalformedRow,
    NegativeTimeRow,
)

__all__ = ["UnitRecord", "Cluster", "CurrentStatusDataset", "read_csv", "write_csv"]

REQUIRED_COLUMNS = ("cluster_id", "unit", "time", "event")
RESERVED_COLUMNS = REQUIRED_COLUMNS + ("stratum", "weight")


@dataclass(frozen=True)
class UnitRecord:
    unit: str
    time: float
    event: int
    covariates: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Cluster:
    cluster_id: str
    records: Tuple[UnitRecord, ...]
    stratum: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise InvalidParameters(f"cluster {self.cluster_id!r} has no unit records")
        units = [r.unit for r in self.records]
        if len(set(units)) != len(units):
            dup = next(u for u in units if units.count(u) > 1)
            raise DuplicateUnit(self.cluster_id, dup)
        if not self.weight > 0:
            raise InvalidParameters(f"cluster {self.cluster_id!r}: weight must be > 0")
        for r in self.records:
            if not 0.0 <= r.time < math.inf:
                raise InvalidParameters(
                    f"cluster {self.cluster_id!r}: monitoring time {r.time!r} "
                    "must be finite and >= 0"
                )
            if r.event not in (0, 1):
                raise InvalidParameters(
                    f"cluster {self.cluster_id!r}: event must be 0 or 1"
                )


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class CurrentStatusDataset:
    """Columnar clustered current-status data (see the module docstring)."""

    def __init__(self, clusters: Iterable[Cluster] = ()):
        clusters = tuple(clusters)
        ids = [c.cluster_id for c in clusters]
        if len(set(ids)) != len(ids):
            raise InvalidParameters("duplicate cluster ids in dataset")
        records = [r for c in clusters for r in c.records]
        units = {u: code for code, u in enumerate(dict.fromkeys(r.unit for r in records))}
        names = list(dict.fromkeys(k for r in records for k in r.covariates))
        self._set_columns(
            ids, [c.stratum for c in clusters], [c.weight for c in clusters],
            [code for code, c in enumerate(clusters) for _ in c.records], list(units),
            [units[r.unit] for r in records], [r.time for r in records],
            [r.event for r in records], names,
            [[r.covariates.get(k, 0.0) for k in names] for r in records],
            [[k in r.covariates for k in names] for r in records],
        )
        self._clusters = clusters

    @classmethod
    def from_rows(cls, cluster_ids: Sequence[str], strata: Sequence[Optional[str]],
                  weights: Sequence[float], row_cluster: Sequence[int],
                  unit_names: Sequence[str], row_unit: Sequence[int],
                  times: Sequence[float], events: Sequence[int],
                  covariate_names: Sequence[str], covariates,
                  present) -> "CurrentStatusDataset":
        """Dataset from per-cluster and per-row columns, with no checks.

        ``strata`` holds each cluster's stratum label or None, ``covariates``
        the [rows, len(covariate_names)] values and ``present`` the cells that
        hold one.  Rows may come in any cluster order; they are stored
        grouped by cluster code, keeping their order within a cluster.
        """
        self = cls.__new__(cls)
        self._set_columns(cluster_ids, strata, weights, row_cluster, unit_names, row_unit,
                          times, events, covariate_names, covariates, present)
        self._clusters = None
        return self

    def _set_columns(self, cluster_ids, strata, weights, row_cluster, unit_names,
                     row_unit, times, events, covariate_names, covariates, present):
        cluster = np.asarray(row_cluster, dtype=np.int64)
        order = np.argsort(cluster, kind="stable")
        levels: Dict[str, int] = {}
        self.cluster_ids: Tuple[str, ...] = tuple(cluster_ids)
        self.stratum = _frozen(
            [-1 if s is None else levels.setdefault(s, len(levels)) for s in strata], np.int64)
        self.stratum_names: Tuple[str, ...] = tuple(levels)
        self.weight = _frozen(weights, np.float64)
        self.unit_names: Tuple[str, ...] = tuple(unit_names)
        self.cluster = _frozen(cluster[order], np.int64)
        self.unit = _frozen(np.asarray(row_unit, dtype=np.int64)[order], np.int64)
        self.time = _frozen(np.asarray(times, dtype=np.float64)[order], np.float64)
        self.event = _frozen(np.asarray(events, dtype=np.int8)[order], np.int8)
        shape = (cluster.size, len(covariate_names))
        values = np.asarray(covariates, dtype=np.float64).reshape(shape)[order]
        present = np.asarray(present, dtype=bool).reshape(shape)[order]
        # covariates that hold a value somewhere, by first appearance
        firsts = [np.flatnonzero(column) for column in present.T]
        cols = [j for _, j in sorted((hits[0], j) for j, hits in enumerate(firsts) if hits.size)]
        self.covariate_names: Tuple[str, ...] = tuple(covariate_names[j] for j in cols)
        self.covariates = _frozen(values[:, cols], np.float64)
        self.present = _frozen(present[:, cols], bool)

    def __len__(self):
        return len(self.cluster_ids)

    def __eq__(self, other):
        """Same cluster ids, stratum labels and weights; per row the same
        cluster, unit name, time and event; the same covariates by name with
        the same presence, a present nan equal to itself (so a dataset equals
        its CSV round trip).  Compares the columns and builds no view."""
        if not isinstance(other, CurrentStatusDataset):
            return NotImplemented
        if (self.cluster_ids != other.cluster_ids
                or self.stratum_names != other.stratum_names
                or set(self.covariate_names) != set(other.covariate_names)):
            return False
        # other's unit and covariate codes in this dataset's numbering
        own = {name: code for code, name in enumerate(self.unit_names)}
        units = np.array([own.get(name, -1) for name in other.unit_names], dtype=np.int64)
        cols = [other.covariate_names.index(name) for name in self.covariate_names]
        present = other.present[:, cols]
        return (
            np.array_equal(self.stratum, other.stratum)
            and np.array_equal(self.weight, other.weight)
            and np.array_equal(self.cluster, other.cluster)
            and np.array_equal(self.unit, units[other.unit])
            and np.array_equal(self.time, other.time)
            and np.array_equal(self.event, other.event)
            and np.array_equal(self.present, present)
            and np.array_equal(self.covariates[self.present],
                               other.covariates[:, cols][present], equal_nan=True)
        )

    @property
    def starts(self) -> np.ndarray:
        """[clusters + 1] offsets: cluster c holds rows starts[c]:starts[c + 1]."""
        sizes = np.bincount(self.cluster, minlength=len(self))
        return np.concatenate([[0], np.cumsum(sizes)])

    @property
    def clusters(self) -> Tuple[Cluster, ...]:
        """The data as Cluster objects, built on first access."""
        if self._clusters is None:
            self._clusters = self._cluster_view()
        return self._clusters

    def _cluster_view(self) -> Tuple[Cluster, ...]:
        names = self.covariate_names
        units = [self.unit_names[u] for u in self.unit.tolist()]
        covariates = [
            {n: v for n, v, p in zip(names, values, present) if p}
            for values, present in zip(self.covariates.tolist(), self.present.tolist())
        ] if names else [{} for _ in units]
        times = self.time.tolist()
        events = self.event.tolist()
        bounds = self.starts.tolist()
        labels = [self.stratum_names[s] if s >= 0 else None for s in self.stratum.tolist()]
        return tuple(
            Cluster(cid, tuple(map(UnitRecord, units[a:b], times[a:b], events[a:b],
                                   covariates[a:b])), stratum, weight)
            for cid, a, b, stratum, weight in zip(
                self.cluster_ids, bounds, bounds[1:], labels, self.weight.tolist())
        )


# bytes the reader takes at a time, running on to the end of the line
_BLOCK_BYTES = 1 << 16
# the ASCII characters other than line ends that str.strip removes
_ASCII_SPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
# a NUL as the reader reads it: csv.reader refuses a NUL before Python 3.11,
# but not this lone surrogate, which surrogateescape never decodes a byte to
_NUL = "\udc00"
_HIDE_NUL = operator.methodcaller("replace", "\x00", _NUL)


def _utf8(text: str) -> bool:
    """Whether the text holds no lone surrogate, which is how the reader
    decodes a byte that is not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _number(text: str):
    """float(text), or the ValueError it raises."""
    try:
        return float(text)
    except ValueError as exc:
        return exc


def _numbers(cells):
    """(the cells as floats, False), or when some cell is not a number,
    (nan there, the mask of those cells)."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells)), False
    except ValueError:
        values = list(map(_number, cells))
        bad = np.array([isinstance(v, ValueError) for v in values])
        return np.array([math.nan if b else v for v, b in zip(values, bad)]), bad


class _Codes(dict):
    """Key -> code; a key not seen before takes the next code, so codes
    follow first appearance."""

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def _codes(keys, table: _Codes) -> np.ndarray:
    return np.fromiter(map(table.__getitem__, keys), np.int64, len(keys))


def _columns(text: str, width: int) -> Optional[List[List[str]]]:
    """The cells of whole lines, one list per column; None unless every
    non-blank line holds ``width`` cells that csv.reader would read as
    they stand."""
    # csv.reader refuses a cell over its field size limit
    if '"' in text or len(text) > csv.field_size_limit():
        return None
    text = text.removesuffix("\n").removesuffix("\r")
    if not text:
        return [[] for _ in range(width)]
    if "\r" in text:
        spread = text.replace("\r\n", ",\n")
        if "\r" in spread:         # csv.reader also ends a line at a lone \r
            return None
    else:
        spread = text.replace("\n", ",\n")
    cells = spread.split(",")
    rows, extra = divmod(len(cells), width)
    # a cell holds at most one line break, at its start: the lines hold
    # width cells each when the first column holds every break
    first = "".join(cells[::width]).split("\n")
    if not extra and len(first) == rows and spread.count("\n") == rows - 1:
        return [first] + [cells[j::width] for j in range(1, width)]
    # blank lines, which csv.reader skips, or both kinds of line end
    lines = "\n".join(filter(None, text.replace("\r\n", "\n").split("\n")))
    if lines == text:
        return None
    return _columns(lines, width)


def _chunks(fh):
    """The header's cells, then the rows below it a chunk at a time: each
    chunk as (the cells of each header column, whether the chunk is
    plain ASCII with no space to strip, {row: csv's message} for the rows
    csv.reader refuses).  Blank rows are skipped.

    A block of lines is split with one ``str.split``.  From the first
    block that cannot be split so, which starts at a line boundary outside
    any quoted cell, csv.reader reads to the end of the file; it pads a
    short row with empty cells and cuts a long one to the header's width."""
    # a UTF-8 byte-order mark, as Excel writes, is not part of the header
    text = _HIDE_NUL(fh.readline().decode("utf-8", "surrogateescape").removeprefix("\ufeff"))
    line = text.removesuffix("\n").removesuffix("\r")
    header = None if '"' in line or "\r" in line else line.split(",")
    if header is not None:
        yield header
        while raw := fh.read(_BLOCK_BYTES):
            text = _HIDE_NUL((raw + fh.readline()).decode("utf-8", "surrogateescape"))
            cells = _columns(text, len(header))
            if cells is None:
                break
            yield cells, text.isascii() and not any(c in text for c in _ASCII_SPACE), {}
        else:
            return
    reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), map(
        _HIDE_NUL, io.TextIOWrapper(fh, "utf-8", "surrogateescape", newline=""))))
    if header is None:
        header = next(reader, [])
        yield header
    width = len(header)
    # a few hundred rows a chunk: the rows are lists, which the garbage
    # collector's passes would scan over and over in a longer chunk
    size = max(1, _BLOCK_BYTES >> 8)
    rows, refused, rest = [], {}, filter(None, reader)
    while True:
        try:        # extend keeps the rows read before one csv.reader refuses
            rows.extend(itertools.islice(rest, size - len(rows)))
        except csv.Error as exc:        # a cell over csv's field size limit
            refused[len(rows)] = str(exc)
            rows.append([])
            continue
        if rows:
            if set(map(len, rows)) != {width}:
                rows = [(row + [""] * width)[:width] for row in rows]
            yield list(zip(*rows)), False, refused
        if len(rows) < size:
            return
        rows, refused = [], {}


def _block(cells, plain, refused, col, covariates, tables, line):
    """One chunk's rows (see :func:`_chunks`), its first at line ``line``,
    checked by each row rule: its columns, and the problem of each row
    that fails a rule, which is the first rule it fails."""
    rows = len(cells[0])
    codes, units, levels = tables
    i_stratum, i_weight = col.get("stratum"), col.get("weight")
    if not plain:
        for i in (col["cluster_id"], col["unit"], col["event"], i_stratum):
            if i is not None:
                cells[i] = list(map(str.strip, cells[i]))
    # each rule's mask of the rows that fail it, or False for none
    nul = [[_NUL in cell for cell in column] for column in cells
           if not plain and _NUL in "".join(column)]
    not_utf8 = [[not _utf8(cell) for cell in column] for column in cells
                if not (plain or _utf8("".join(column)))]
    ids, names = cells[col["cluster_id"]], cells[col["unit"]]
    empty = ("" in ids or "" in names) and np.array(
        [not cid or not unit for cid, unit in zip(ids, names)])
    time, time_text = _numbers(cells[col["time"]])
    flags = cells[col["event"]]
    bad_flag = False
    if set(flags) <= {"0", "1"}:        # one character a flag
        event = np.frombuffer("".join(flags).encode(), np.uint8) == ord("1")
    else:
        event = np.fromiter(map("1".__eq__, flags), bool, rows)
        bad_flag = ~event & ~np.fromiter(map("0".__eq__, flags), bool, rows)
    values = np.zeros((rows, len(covariates)))
    present = np.empty((rows, len(covariates)), dtype=bool)
    bad_cov = np.zeros((rows, len(covariates)), dtype=bool)
    for k, (_, i) in enumerate(covariates):
        present[:, k] = np.fromiter(map(bool, cells[i]), bool, rows)
        values[present[:, k], k], bad_cov[present[:, k], k] = _numbers(
            list(filter(None, cells[i])))
    weight, weight_text = (np.ones(rows), False) if i_weight is None else _numbers(
        [w or "1" for w in cells[i_weight]])
    rules = [
        (bool(refused) and np.isin(np.arange(rows), list(refused)),
         lambda i: MalformedRow(line + i, f"({refused[i]})")),
        (bool(nul) and np.any(nul, axis=0),
         lambda i: MalformedRow(line + i, "(line contains NUL)")),
        (bool(not_utf8) and np.any(not_utf8, axis=0),
         lambda i: MalformedRow(line + i, "(not UTF-8)")),
        (empty, lambda i: MalformedRow(line + i, "(empty cluster_id or unit)")),
        (time_text, lambda i: MalformedRow(line + i, "(non-numeric time)")),
        (time < 0.0, lambda i: NegativeTimeRow(line + i, time[i].item())),
        (~(time < math.inf),
         lambda i: MalformedRow(line + i, f"(time {time[i].item()!r} is not finite)")),
        (bad_flag, lambda i: BadEventFlag(line + i, flags[i])),
        (event & (time == 0.0), lambda i: MalformedRow(line + i, "(event at time 0)")),
        (bad_cov.any(axis=1), lambda i: MalformedRow(
            line + i, f"(non-numeric {covariates[bad_cov[i].argmax()][0]!r})")),
        (weight_text, lambda i: MalformedRow(line + i, f"({_number(cells[i_weight][i])})")),
        (~(weight > 0),
         lambda i: MalformedRow(line + i, f"(weight {weight[i].item()!r} must be > 0)")),
    ]
    rule = np.zeros(rows, np.int8)      # per row: 1 + the first rule it fails, 0 for none
    for k, (mask, _) in reversed(list(enumerate(rules, 1))):
        if mask is not False:
            rule[mask] = k
    columns = (
        _codes(ids, codes), _codes(names, units),
        np.zeros(rows, np.int64) if i_stratum is None else _codes(cells[i_stratum], levels),
        weight, time, event, values, present,
    )
    return columns, [rules[rule[i] - 1][1](i) for i in np.flatnonzero(rule).tolist()]


def _cross_row(cluster, unit, stratum, weight, clusters: int, units: int):
    """The rules across rows, over the rows that pass the row rules in file
    order: each cluster's first row, and per row 0 if accepted, 1 if an
    earlier accepted row holds its (cluster, unit) pair, 2 if its stratum
    or weight differs from its cluster's first row; None for all accepted."""
    first = np.full(clusters, cluster.size)
    np.minimum.at(first, cluster, np.arange(cluster.size))
    home = first[cluster]
    match = (stratum == stratum[home]) & (weight == weight[home])
    del home
    keys = np.sort(cluster * units + unit)
    if match.all() and np.all(keys[1:] != keys[:-1]):
        return first, None
    # a row is accepted when it is the first of its pair to match its cluster
    _, pair = np.unique(cluster * units + unit, return_inverse=True)
    rows = np.arange(cluster.size)
    accepted = np.full(pair.max() + 1, cluster.size)
    np.minimum.at(accepted, pair, np.where(match, rows, cluster.size))
    taken = accepted[pair]
    return first, np.where(taken == rows, 0, np.where(taken < rows, 1, 2))


def read_csv(path) -> CurrentStatusDataset:
    """Parse a long-format dataset, reporting every rejected row at once.

    The file is read once (see :func:`_chunks`).  Each row rule runs over
    whole columns, in this order: csv.reader can read the row (no cell
    over its field size limit), no cell holds a NUL, its bytes are UTF-8,
    the id and unit are not empty, the time is a number, finite and >= 0,
    the event flag is 0 or 1, no event is at time 0 (a cluster holding one
    has probability 0 under every model), each covariate is a number or
    empty, the weight is a number and > 0.  A row's problem is the first
    rule it fails, and a rejected row is reported with its line number
    (counting the header as line 1 and skipping blank lines); a NUL in the
    header rejects the file at line 1.  Then, over the rows that pass: a cluster takes
    its stratum and weight from its first such row, a row whose stratum
    or weight differs is rejected, and so is a (cluster, unit) pair that
    an earlier accepted row holds.
    """
    with open(path, "rb") as fh:
        chunks = _chunks(fh)
        try:
            header = next(chunks)
        except csv.Error as exc:        # a cell over csv's field size limit
            raise DatasetError([MalformedRow(1, f"({exc})")]) from None
        if _NUL in "".join(header):
            raise DatasetError([MalformedRow(1, "(line contains NUL)")])
        if not _utf8(",".join(header)):
            raise DatasetError([MalformedRow(1, "(not UTF-8)")])
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DatasetError([MalformedRow(1, f"missing columns {missing}")])
        # a repeated column name reads its last occurrence
        col = {name: i for i, name in enumerate(header)}
        covariates = [(c, col[c]) for c in dict.fromkeys(header) if c not in RESERVED_COLUMNS]
        # cluster ids, unit names, stratum labels ("" for none)
        tables = codes, units, levels = _Codes(), _Codes(), _Codes({"": 0})
        blocks, problems = [], []
        line = 2
        for cells, plain, refused in chunks:
            if cells[0]:
                columns, found = _block(cells, plain, refused, col, covariates, tables, line)
                blocks.append(columns)
                problems.extend(found)
                line += len(cells[0])
    names = [name for name, _ in covariates]
    if not blocks:
        return CurrentStatusDataset.from_rows([], [], [], [], [], [], [], [], names, [], [])
    cluster, unit, stratum, weight, time, event, values, present = (
        np.concatenate(column) for column in zip(*blocks))
    del blocks                          # before from_rows copies the columns
    rows = slice(None)                  # the rows that pass the row rules
    if problems:                        # each at line 2 + its row
        rows = np.delete(np.arange(cluster.size), [p.line - 2 for p in problems])
    first, cross = _cross_row(cluster[rows], unit[rows], stratum[rows], weight[rows],
                              len(codes), len(units))
    if cross is not None:
        ids, unit_names = list(codes), list(units)
        at = np.arange(cluster.size)[rows]      # the file's row of each passing row
        for r, kind in zip(at[cross > 0].tolist(), cross[cross > 0].tolist()):
            problems.append(
                DuplicateUnit(ids[cluster[r]], unit_names[unit[r]], line=2 + r) if kind == 1
                else MalformedRow(2 + r, "(stratum/weight differ within cluster)"))
    if problems:
        raise DatasetError(sorted(problems, key=operator.attrgetter("line")))
    labels = [label or None for label in levels]
    return CurrentStatusDataset.from_rows(
        list(codes), list(map(labels.__getitem__, stratum[first].tolist())), weight[first], cluster,
        list(units), unit, time, event, names, values, present,
    )


# rows the writer formats and writes at a time
_BLOCK_ROWS = 1 << 16
# the characters for which csv.writer quotes a cell (QUOTE_MINIMAL)
_CSV_QUOTED = (",", '"', "\r", "\n")


def _text_cells(values) -> np.ndarray:
    """Each text value as csv.writer writes it as a cell, in an object array:
    a value that holds a comma, a quote or a line break is quoted, its
    quotes doubled.  The joined text tells whether any value needs it."""
    cells = np.array(values, dtype=object)
    joined = "".join(values)
    if any(c in joined for c in _CSV_QUOTED):
        for i, value in enumerate(values):
            if any(c in value for c in _CSV_QUOTED):
                cells[i] = '"' + value.replace('"', '""') + '"'
    return cells


def _number_cells(values: np.ndarray) -> np.ndarray:
    """repr of each number, in an object array: a list's repr gives them all
    at C speed.  (np.float64's repr is "np.float64(...)" in numpy 2.)"""
    text = repr(values.tolist())[1:-1]
    return np.array(text.split(", ") if text else [], dtype=object)


def _write_rows(fh, text: str) -> None:
    """Write rows of csv text.  csv.writer refuses a NUL in a cell before
    Python 3.11 (csv.Error) and writes it as is after, and so does this."""
    if "\x00" in text:
        csv.writer(io.StringIO()).writerow([text])
    fh.write(text)


def _check_writable(dataset: CurrentStatusDataset) -> None:
    """Raise InvalidParameters for the first cluster with no row or with a
    unit name in more than one row, from one bincount over the rows."""
    names = list(dict.fromkeys(dataset.unit_names)) or [""]
    code = {name: i for i, name in enumerate(names)}
    name_of = np.array([code[name] for name in dataset.unit_names], dtype=np.int64)
    counts = np.bincount(dataset.cluster * len(names) + name_of[dataset.unit],
                         minlength=len(dataset) * len(names)).reshape(len(dataset), len(names))
    most = counts.max(axis=1, initial=0)
    bad = np.flatnonzero(most != 1)
    if bad.size == 0:
        return
    pos = int(bad[0])
    cluster = dataset.cluster_ids[pos]
    if most[pos] == 0:
        raise InvalidParameters(f"cluster {cluster!r} has no row")
    unit = names[int(np.argmax(counts[pos]))]
    raise InvalidParameters(f"cluster {cluster!r}: unit {unit!r} in {most[pos]} rows")


def write_csv(dataset: CurrentStatusDataset, path) -> None:
    """Emit the dataset in the same format ``read_csv`` ingests.

    The bytes are those of csv.writer's excel dialect (CRLF line ends,
    QUOTE_MINIMAL quoting), each float written as its shortest repr.  The
    rows go out ``_BLOCK_ROWS`` at a time: each column of a block is
    built by table lookups and one repr per number column, and the block
    is joined and written at once, so the write holds one block's cells.

    A dataset that ``read_csv`` would not read back as itself, one that
    repeats a (cluster, unit) pair or has a cluster with no row, raises
    InvalidParameters naming the first such cluster, before the file is
    opened."""
    _check_writable(dataset)
    header = list(REQUIRED_COLUMNS)
    with_strata = np.any(dataset.stratum >= 0)
    if with_strata:
        header.append("stratum")
    with_weights = np.any(dataset.weight != 1.0)
    if with_weights:
        header.append("weight")
    header.extend(dataset.covariate_names)
    units = _text_cells(dataset.unit_names)
    labels = _text_cells(dataset.stratum_names + ("",))     # stratum code -1 is none
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, ",".join(_text_cells(header)) + "\r\n")
        for a in range(0, dataset.cluster.size, _BLOCK_ROWS):
            rows = slice(a, a + _BLOCK_ROWS)
            # rows are stored grouped by cluster code: a block's clusters are a range
            cluster = dataset.cluster[rows]
            first, last = cluster[0].item(), cluster[-1].item() + 1
            cluster = cluster - first
            columns = [
                _text_cells(dataset.cluster_ids[first:last])[cluster],
                units[dataset.unit[rows]],
                _number_cells(dataset.time[rows]),
                _number_cells(dataset.event[rows]),
            ]
            if with_strata:
                columns.append(labels[dataset.stratum[first:last]][cluster])
            if with_weights:
                columns.append(_number_cells(dataset.weight[first:last])[cluster])
            for values, present in zip(dataset.covariates[rows].T, dataset.present[rows].T):
                cells = np.full(present.size, "", dtype=object)
                cells[present] = _number_cells(values[present])
                columns.append(cells)
            _write_rows(fh, "\r\n".join(map(",".join, zip(*map(np.ndarray.tolist, columns))))
                        + "\r\n")
