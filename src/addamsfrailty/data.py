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
fit, the simulator and the CSV writer use the columns and never build it;
``CurrentStatusDataset(clusters)`` still builds a dataset from such
objects.
"""

from __future__ import annotations

import csv
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
            if r.time < 0:
                raise InvalidParameters(
                    f"cluster {self.cluster_id!r}: negative monitoring time"
                )
            if r.event not in (0, 1):
                raise InvalidParameters(
                    f"cluster {self.cluster_id!r}: event must be 0 or 1"
                )

    @property
    def event_units(self) -> Tuple[str, ...]:
        return tuple(r.unit for r in self.records if r.event == 1)


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
        units: Dict[str, int] = {}
        names: Dict[str, int] = {}
        row_cluster, row_unit, times, events, cells = [], [], [], [], []
        for code, c in enumerate(clusters):
            for r in c.records:
                cells.extend((len(times), names.setdefault(k, len(names)), v)
                             for k, v in r.covariates.items())
                row_cluster.append(code)
                row_unit.append(units.setdefault(r.unit, len(units)))
                times.append(r.time)
                events.append(r.event)
        self._set_columns(ids, [c.stratum for c in clusters], [c.weight for c in clusters],
                          row_cluster, list(units), row_unit, times, events, list(names), cells)
        self._clusters = clusters

    @classmethod
    def from_rows(cls, cluster_ids: Sequence[str], strata: Sequence[Optional[str]],
                  weights: Sequence[float], row_cluster: Sequence[int],
                  unit_names: Sequence[str], row_unit: Sequence[int],
                  times: Sequence[float], events: Sequence[int],
                  covariate_names: Sequence[str] = (),
                  cells: Sequence[Tuple[int, int, float]] = ()) -> "CurrentStatusDataset":
        """Dataset from per-cluster and per-row columns, with no checks.

        ``strata`` holds each cluster's stratum label or None, and ``cells``
        the (row, covariate index, value) of every covariate cell that holds
        a value.  Rows may come in any cluster order; they are stored
        grouped by cluster code, keeping their order within a cluster.
        """
        self = cls.__new__(cls)
        self._set_columns(cluster_ids, strata, weights, row_cluster, unit_names, row_unit,
                          times, events, covariate_names, cells)
        self._clusters = None
        return self

    def _set_columns(self, cluster_ids, strata, weights, row_cluster, unit_names,
                     row_unit, times, events, covariate_names, cells):
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
        values = np.zeros((cluster.size, len(covariate_names)))
        present = np.zeros(values.shape, dtype=bool)
        if len(cells):
            rows, cols, cell_values = zip(*cells)
            values[rows, cols] = cell_values
            present[rows, cols] = True
        values, present = values[order], present[order]
        # covariates that hold a value somewhere, by first appearance
        firsts = [np.flatnonzero(column) for column in present.T]
        cols = [j for _, j in sorted((hits[0], j) for j, hits in enumerate(firsts) if hits.size)]
        self.covariate_names: Tuple[str, ...] = tuple(covariate_names[j] for j in cols)
        self.covariates = _frozen(values[:, cols], np.float64)
        self.present = _frozen(present[:, cols], bool)

    def __len__(self):
        return len(self.cluster_ids)

    def __eq__(self, other):
        if not isinstance(other, CurrentStatusDataset):
            return NotImplemented
        return self.clusters == other.clusters

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
    """([(covariate index, value)] of the non-empty cells, None), or
    (None, name) at the first cell that is not a number."""
    cells = []
    for j, (name, i) in enumerate(columns):
        if row[i] == "":
            continue
        try:
            cells.append((j, float(row[i])))
        except ValueError:
            return None, name
    return cells, None


def read_csv(path) -> CurrentStatusDataset:
    """Parse a long-format dataset, reporting every rejected row at once.

    Rows are checked in file order; a rejected row is reported with its
    line number (counting the header as line 1 and skipping blank lines)
    and contributes nothing.  A cluster takes its stratum and weight from
    its first accepted row.
    """
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
    cells: List[Tuple[int, int, float]] = []   # (row, covariate, value)
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
            if time < 0:
                problems.append(NegativeTimeRow(lineno, time))
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
                cells.extend((len(times), j, value) for j, value in row_cells)
            row_cluster.append(code)
            row_unit.append(ucode)
            times.append(time)
            events.append(raw_event == "1")
    if problems:
        raise DatasetError(problems)
    return CurrentStatusDataset.from_rows(
        list(codes), strata, weights, row_cluster, list(units), row_unit, times, events,
        [name for name, _ in covariate_cols], cells,
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
