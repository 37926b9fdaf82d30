"""Clustered current-status datasets and their CSV representation.

The on-disk format is long: one row per (cluster, unit) with required
columns ``cluster_id, unit, time, event`` plus optional ``stratum`` and
``weight`` columns and arbitrary covariate columns.  ``weight`` and
``stratum`` must be constant within a cluster, and ``weight`` > 0.

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
import math
import operator
from array import array
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


def _covariate_cells(row, columns):
    """(each covariate's value, None for an empty cell; None), or
    (None, name) at the first cell that is not a number."""
    cells = []
    for name, i in columns:
        try:
            cells.append(float(row[i]) if row[i] != "" else None)
        except ValueError:
            return None, name
    return cells, None


# bytes the block reader takes at a time, running on to the end of the
# line; a block longer than csv's field size limit goes to the row loop
_BLOCK_BYTES = 1 << 16
# the ASCII characters other than line ends that str.strip removes
_ASCII_SPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


class _Fallback(Exception):
    """The block reader leaves the file to the row loop."""


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise _Fallback from None


def _floats(cells) -> np.ndarray:
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        raise _Fallback from None


class _Codes(dict):
    """Key -> code; a key not seen before takes the next code, so codes
    follow first appearance."""

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def _codes(keys, table: _Codes) -> np.ndarray:
    return np.fromiter(map(table.__getitem__, keys), np.int64, len(keys))


def _columns(text: str, width: int) -> List[List[str]]:
    """The cells of whole lines, one list per column; _Fallback unless
    every non-blank line holds ``width`` cells that csv.reader would read
    as they stand."""
    # csv.reader rejects a cell over its field size limit
    if '"' in text or "\x00" in text or len(text) > csv.field_size_limit():
        raise _Fallback
    text = text.removesuffix("\n").removesuffix("\r")
    if not text:
        return [[] for _ in range(width)]
    if "\r" in text:
        spread = text.replace("\r\n", ",\n")
        if "\r" in spread:         # csv.reader also ends a line at a lone \r
            raise _Fallback
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
        raise _Fallback
    return _columns(lines, width)


def _read_blocks(path) -> CurrentStatusDataset:
    """:func:`read_csv` a block of lines at a time, checking each row
    condition over whole columns; _Fallback when one fails."""
    with open(path, "rb") as fh:
        line = _text(fh.readline())
        header = line.removesuffix("\n").removesuffix("\r")
        if '"' in header or "\r" in header or "\x00" in header:
            raise _Fallback
        fields = header.split(",")
        if any(c not in fields for c in REQUIRED_COLUMNS):
            raise _Fallback
        # a repeated column name reads its last occurrence
        col = {name: i for i, name in enumerate(fields)}
        i_cid, i_unit, i_time, i_event = (col[c] for c in REQUIRED_COLUMNS)
        i_stratum = col.get("stratum")
        i_weight = col.get("weight")
        covariate_cols = [(c, col[c]) for c in dict.fromkeys(fields)
                          if c not in RESERVED_COLUMNS]
        codes, units = _Codes(), _Codes()   # cluster ids, unit names
        levels = _Codes({"": 0})            # stratum labels, "" for none
        blocks = []
        while raw := fh.read(_BLOCK_BYTES):
            text = _text(raw + fh.readline())
            cells = _columns(text, len(fields))
            rows = len(cells[0])
            if not rows:                # blank lines only
                continue
            if not text.isascii() or any(c in text for c in _ASCII_SPACE):
                for i in (i_cid, i_unit, i_event, i_stratum):
                    if i is not None:
                        cells[i] = list(map(str.strip, cells[i]))
            ids, unit_names = cells[i_cid], cells[i_unit]
            if "" in ids or "" in unit_names:
                raise _Fallback
            time = _floats(cells[i_time])
            if not set(cells[i_event]) <= {"0", "1"}:
                raise _Fallback
            flags = "".join(cells[i_event])
            weight = (np.ones(rows) if i_weight is None
                      else _floats([w or "1" for w in cells[i_weight]]))
            if not (np.all((time >= 0.0) & (time < math.inf)) and np.all(weight > 0)):
                raise _Fallback
            values = np.zeros((rows, len(covariate_cols)))
            present = np.empty((rows, len(covariate_cols)), dtype=bool)
            for k, (_, i) in enumerate(covariate_cols):
                present[:, k] = np.fromiter(map(bool, cells[i]), bool, rows)
                values[present[:, k], k] = _floats(list(filter(None, cells[i])))
            blocks.append((
                _codes(ids, codes), _codes(unit_names, units),
                np.zeros(rows, np.int64) if i_stratum is None else _codes(cells[i_stratum], levels),
                weight, time, np.frombuffer(flags.encode(), np.uint8) == ord("1"),
                values, present,
            ))
    names = [name for name, _ in covariate_cols]
    if not blocks:
        return CurrentStatusDataset.from_rows([], [], [], [], [], [], [], [], names, [], [])
    cluster, unit, stratum, weight, time, event, values, present = (
        np.concatenate(column) for column in zip(*blocks))
    del blocks                          # before from_rows copies the columns
    # each cluster's first row: codes are given in order of first appearance
    first = np.flatnonzero(np.concatenate(
        [[True], cluster[1:] > np.maximum.accumulate(cluster)[:-1]]))
    if not (np.array_equal(stratum[first][cluster], stratum)
            and np.array_equal(weight[first][cluster], weight)):
        raise _Fallback
    # no (cluster, unit) pair twice
    keys = np.sort(cluster * len(units) + unit)
    if np.any(keys[1:] == keys[:-1]):
        raise _Fallback
    labels = [label or None for label in levels]
    return CurrentStatusDataset.from_rows(
        list(codes), list(map(labels.__getitem__, stratum[first].tolist())), weight[first], cluster,
        list(units), unit, time, event, names, values, present,
    )


def read_csv(path) -> CurrentStatusDataset:
    """Parse a long-format dataset, reporting every rejected row at once.

    Rows are checked in file order; a rejected row is reported with its
    line number (counting the header as line 1 and skipping blank lines)
    and contributes nothing.  A cluster takes its stratum and weight from
    its first accepted row.

    The file is read in blocks of columns (:func:`_read_blocks`).  When a
    row check fails there, or the file quotes a cell, the row loop
    (:func:`_read_rows`) reads it again from the start; it is the one
    reader of quoted files and the one that builds the problem list.
    """
    try:
        return _read_blocks(path)
    except _Fallback:
        return _read_rows(path)


def _read_rows(path) -> CurrentStatusDataset:
    """:func:`read_csv`, one ``csv.reader`` row at a time."""
    problems: list = []
    codes: Dict[str, int] = {}          # cluster id -> code, by first appearance
    strata: List[Optional[str]] = []
    weights: List[float] = []
    seen = set()                        # (cluster code, unit code) of accepted rows
    units: Dict[str, int] = {}
    # typed arrays convert to numpy without a per-item pass
    row_cluster = array("q")
    row_unit = array("q")
    times = array("d")
    events = array("b")
    values = array("d")                 # [rows, covariates], 0 where absent
    present = array("b")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DatasetError([MalformedRow(1, f"missing columns {missing}")])
        # a repeated column name reads its last occurrence
        col = {name: i for i, name in enumerate(header)}
        required = operator.itemgetter(*(col[c] for c in REQUIRED_COLUMNS))
        i_stratum = col.get("stratum")
        i_weight = col.get("weight")
        covariate_cols = [(c, col[c]) for c in dict.fromkeys(header)
                          if c not in RESERVED_COLUMNS]
        width = len(header)
        inf = math.inf
        for lineno, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:        # a short row's missing cells are empty
                row += [""] * (width - len(row))
            cid, unit, raw_time, raw_event = required(row)
            cid = cid.strip()
            unit = unit.strip()
            if not cid or not unit:
                problems.append(MalformedRow(lineno, "(empty cluster_id or unit)"))
                continue
            try:
                time = float(raw_time)
            except ValueError:
                problems.append(MalformedRow(lineno, "(non-numeric time)"))
                continue
            if not 0.0 <= time < inf:
                problems.append(NegativeTimeRow(lineno, time) if time < 0
                                else MalformedRow(lineno, f"(time {time!r} is not finite)"))
                continue
            if raw_event != "0" and raw_event != "1":
                raw_event = raw_event.strip()
                if raw_event not in ("0", "1"):
                    problems.append(BadEventFlag(lineno, raw_event))
                    continue
            if covariate_cols:
                row_cells, bad = _covariate_cells(row, covariate_cols)
                if bad is not None:
                    problems.append(MalformedRow(lineno, f"(non-numeric {bad!r})"))
                    continue
            stratum = None if i_stratum is None else (row[i_stratum].strip() or None)
            raw_weight = "" if i_weight is None else row[i_weight]
            try:
                weight = float(raw_weight) if raw_weight != "" else 1.0
            except ValueError as exc:
                problems.append(MalformedRow(lineno, f"({exc})"))
                continue
            if not weight > 0:
                problems.append(MalformedRow(lineno, f"(weight {weight!r} must be > 0)"))
                continue
            code = codes.get(cid)
            if code is None:
                code = codes[cid] = len(strata)
                strata.append(stratum)
                weights.append(weight)
            ucode = units.get(unit)
            if ucode is None:
                ucode = units[unit] = len(units)
            if (code, ucode) in seen:
                problems.append(DuplicateUnit(cid, unit, line=lineno))
                continue
            if strata[code] != stratum or weights[code] != weight:
                problems.append(MalformedRow(lineno, "(stratum/weight differ within cluster)"))
                continue
            seen.add((code, ucode))
            if covariate_cols:
                values.extend([0.0 if v is None else v for v in row_cells])
                present.extend([v is not None for v in row_cells])
            row_cluster.append(code)
            row_unit.append(ucode)
            times.append(time)
            events.append(raw_event == "1")
    if problems:
        raise DatasetError(problems)
    return CurrentStatusDataset.from_rows(
        list(codes), strata, weights, row_cluster, list(units), row_unit, times, events,
        [name for name, _ in covariate_cols], values, present,
    )


def write_csv(dataset: CurrentStatusDataset, path) -> None:
    """Emit the dataset in the same format ``read_csv`` ingests."""
    # np.float64's repr is "np.float64(...)" in numpy 2: format Python floats
    columns = [
        [dataset.cluster_ids[c] for c in dataset.cluster.tolist()],
        [dataset.unit_names[u] for u in dataset.unit.tolist()],
        [repr(t) for t in dataset.time.tolist()],
        [str(e) for e in dataset.event.tolist()],
    ]
    header = list(REQUIRED_COLUMNS)
    if np.any(dataset.stratum >= 0):
        header.append("stratum")
        names = dataset.stratum_names
        labels = [names[s] if s >= 0 else "" for s in dataset.stratum.tolist()]
        columns.append([labels[c] for c in dataset.cluster.tolist()])
    if np.any(dataset.weight != 1.0):
        header.append("weight")
        weights = [repr(w) for w in dataset.weight.tolist()]
        columns.append([weights[c] for c in dataset.cluster.tolist()])
    header.extend(dataset.covariate_names)
    for j in range(len(dataset.covariate_names)):
        columns.append([
            repr(v) if p else ""
            for v, p in zip(dataset.covariates[:, j].tolist(), dataset.present[:, j].tolist())
        ])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
