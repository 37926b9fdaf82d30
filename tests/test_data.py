"""Dataset container and CSV ingestion/round-trip."""

import csv
import io
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addamsfrailty import Cluster, CurrentStatusDataset, UnitRecord, read_csv, write_csv
from addamsfrailty import data as data_module
from addamsfrailty.errors import (
    BadEventFlag,
    DatasetError,
    DuplicateUnit,
    InvalidParameters,
    MalformedRow,
    NegativeTimeRow,
)

from oracles import reference_read_csv, reference_write_csv


def make_cluster(cid="c1", stratum=None, weight=1.0):
    return Cluster(
        cluster_id=cid,
        records=(
            UnitRecord("u1", 5.0, 1, {"age": 30.0}),
            UnitRecord("u2", 7.0, 0, {"age": 30.0}),
        ),
        stratum=stratum,
        weight=weight,
    )


class TestContainers:
    def test_cluster_validation(self):
        with pytest.raises(InvalidParameters):
            Cluster("c", records=())
        with pytest.raises(DuplicateUnit):
            Cluster("c", records=(UnitRecord("u", 1.0, 0), UnitRecord("u", 2.0, 0)))
        with pytest.raises(InvalidParameters):
            Cluster("c", records=(UnitRecord("u", -1.0, 0),))
        with pytest.raises(InvalidParameters):
            Cluster("c", records=(UnitRecord("u", 1.0, 2),))
        with pytest.raises(InvalidParameters):
            make_cluster(weight=0.0)

    def test_event_at_time_zero_rejected(self, tmp_path):
        # such a cluster has probability 0 under every model, and read_csv
        # refuses the row: so no Cluster holds one, and write_csv writes no
        # file that read_csv refuses
        for time in (0.0, -0.0):
            with pytest.raises(InvalidParameters, match="event at time 0"):
                Cluster("c1", (UnitRecord("u1", time, 1), UnitRecord("u2", 3.0, 0)))
        # a record at time 0 without an event is one like any other
        data = CurrentStatusDataset(
            (Cluster("c1", (UnitRecord("u1", 0.0, 0), UnitRecord("u2", 3.0, 1))),))
        write_csv(data, tmp_path / "d.csv")
        assert read_csv(tmp_path / "d.csv") == data

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(InvalidParameters, match="must be finite"):
            Cluster("c", records=(UnitRecord("u", 1.0, 0), UnitRecord("v", time, 1)))

    def test_dataset_unique_ids(self):
        with pytest.raises(InvalidParameters):
            CurrentStatusDataset((make_cluster("c1"), make_cluster("c1")))

    def test_covariate_names_ordered(self):
        data = CurrentStatusDataset((make_cluster(),))
        assert data.covariate_names == ("age",)


class TestReadCsv:
    def test_minimal_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event\n"
            "c1,u1,5.0,1\n"
            "c1,u2,7.0,0\n"
            "c2,u1,3.0,0\n"
        )
        data = read_csv(f)
        assert len(data) == 2
        assert data.clusters[0].records[0].time == 5.0
        assert data.clusters[0].stratum is None

    def test_optional_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event,stratum,weight,age\n"
            "c1,u1,5.0,1,m,2.0,31\n"
            "c1,u2,7.0,0,m,2.0,\n"
        )
        data = read_csv(f)
        c = data.clusters[0]
        assert c.stratum == "m" and c.weight == 2.0
        assert c.records[0].covariates == {"age": 31.0}
        assert c.records[1].covariates == {}

    def test_missing_required_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time\nc1,u1,5.0\n")
        with pytest.raises(DatasetError):
            read_csv(f)

    def test_all_problems_reported_with_line_numbers(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event\n"
            "c1,u1,5.0,1\n"        # line 2, fine
            "c1,u2,-1.0,0\n"       # line 3, negative time
            "c2,u1,abc,0\n"        # line 4, non-numeric time
            "c3,u1,5.0,2\n"        # line 5, bad event flag
            "c1,u1,6.0,0\n"        # line 6, duplicate unit in cluster
        )
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        problems = err.value.problems
        assert len(problems) == 4
        by_line = {p.line: p for p in problems}
        assert isinstance(by_line[3], NegativeTimeRow)
        assert isinstance(by_line[4], MalformedRow)
        assert isinstance(by_line[5], BadEventFlag)
        assert isinstance(by_line[6], DuplicateUnit)

    def test_inconsistent_cluster_fields(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event,stratum\n"
            "c1,u1,5.0,1,m\n"
            "c1,u2,7.0,0,f\n"
        )
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert len(err.value.problems) == 1

    def test_non_finite_time_is_a_row_problem(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event\n"
                     "c1,u1,1.0,0\nc1,u2,nan,1\nc2,u1,inf,0\nc3,u1,-inf,0\n"
                     "c4,u1,Infinity,1\nc5,u1,80.0,1\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        got = [(type(p), p.line) for p in err.value.problems]
        assert got == [(MalformedRow, 3), (MalformedRow, 4), (NegativeTimeRow, 5),
                       (MalformedRow, 6)]
        assert "not finite" in str(err.value.problems[0])
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_empty_cluster_id_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event\n,u1,5.0,1\n")
        with pytest.raises(DatasetError):
            read_csv(f)


class TestRoundTrip:
    def test_write_then_read_identical(self, tmp_path):
        original = CurrentStatusDataset((
            make_cluster("c1", stratum="m"),
            make_cluster("c2", stratum="f", weight=1.0),
            Cluster("c3", records=(UnitRecord("u1", 0.123456789012345, 0),),
                    stratum="m"),
        ))
        f = tmp_path / "d.csv"
        write_csv(original, f)
        back = read_csv(f)
        assert len(back) == len(original)
        for a, b in zip(original.clusters, back.clusters):
            assert a.cluster_id == b.cluster_id
            assert a.stratum == b.stratum
            assert a.weight == b.weight
            for ra, rb in zip(a.records, b.records):
                assert ra.unit == rb.unit
                assert ra.time == rb.time          # repr round-trip is exact
                assert ra.event == rb.event
                assert ra.covariates == rb.covariates


class TestColumns:
    def test_rows_grouped_by_cluster_in_file_order(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event,x\n"
            "b,u2,1.0,1,\n"
            "a,u1,2.0,0,nan\n"
            "b,u1,3.0,0,0.5\n"
            "a,u3,4.0,1,\n"
        )
        data = read_csv(f)
        assert data.cluster_ids == ("b", "a")
        assert data.cluster.tolist() == [0, 0, 1, 1]
        assert [data.unit_names[u] for u in data.unit.tolist()] == ["u2", "u1", "u1", "u3"]
        assert data.time.tolist() == [1.0, 3.0, 2.0, 4.0]
        assert data.event.dtype == np.int8 and data.event.tolist() == [1, 0, 0, 1]
        # an empty cell is absent; a literal nan is a present value
        assert data.present[:, 0].tolist() == [False, True, True, False]
        assert math.isnan(data.covariates[2, 0])
        assert data.clusters[1].records[0].covariates.keys() == {"x"}
        assert data.starts.tolist() == [0, 2, 4]
        with pytest.raises(ValueError):
            data.time[0] = 9.0

    def test_view_round_trips_through_objects(self, tmp_path):
        original = CurrentStatusDataset((
            make_cluster("c1", stratum="m", weight=2.0),
            Cluster("c2", records=(UnitRecord("u2", 3.0, 1, {"bmi": 21.5}),)),
        ))
        f = tmp_path / "d.csv"
        write_csv(original, f)
        back = read_csv(f)
        assert back == original
        assert back.covariate_names == original.covariate_names == ("age", "bmi")
        assert back.stratum.tolist() == [0, -1] and back.stratum_names == ("m",)

    def test_covariates_named_by_first_appearance(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event,x,y,z\n"
            "c1,u1,1.0,0,,2,\n"
            "c1,u2,1.0,0,1,,\n"
        )
        # z never holds a value; y appears before x
        assert read_csv(f).covariate_names == ("y", "x")


def equality_dataset():
    """Two strata and one cluster without; covariates x and y with absent
    cells and a present nan; units met in a different order than numbered
    by a file reader (c2 has u3 before u2)."""
    nan = float("nan")
    return CurrentStatusDataset((
        Cluster("c1", (UnitRecord("u1", 5.0, 1, {"x": 0.5, "y": nan}),
                       UnitRecord("u2", 7.0, 0, {"y": 2.0})), stratum="m", weight=2.0),
        Cluster("c2", (UnitRecord("u3", 1.5, 0), UnitRecord("u2", 3.0, 1, {"x": -1.0})),
                stratum="f"),
        Cluster("c3", (UnitRecord("u1", 9.0, 0, {"x": 4.0}),)),
    ))


def with_changes(data, *changes):
    """``data`` rebuilt from its columns, each (column, index, value) of
    ``changes`` setting ``from_rows``'s argument ``column`` at ``index``."""
    columns = dict(
        cluster_ids=data.cluster_ids,
        strata=[data.stratum_names[s] if s >= 0 else None for s in data.stratum.tolist()],
        weights=np.array(data.weight), row_cluster=np.array(data.cluster),
        unit_names=data.unit_names, row_unit=np.array(data.unit),
        times=np.array(data.time), events=np.array(data.event),
        covariate_names=data.covariate_names, covariates=np.array(data.covariates),
        present=np.array(data.present),
    )
    for column, index, value in changes:
        columns[column][index] = value
    return CurrentStatusDataset.from_rows(**columns)


class TestEquality:
    """Dataset == compares the columns and never builds the cluster view."""

    @pytest.fixture
    def no_view(self, monkeypatch):
        def refuse(self):
            raise AssertionError("cluster view built")

        monkeypatch.setattr(CurrentStatusDataset, "_cluster_view", refuse)

    def test_equal_to_its_rebuilt_columns(self, no_view):
        data = with_changes(equality_dataset())
        assert data == with_changes(data)

    @pytest.mark.parametrize("changes", [
        [("times", 1, 7.25)],
        [("events", 0, 0)],
        [("weights", 2, 1.5)],
        [("strata", 2, "m")],
        [("strata", 0, "M")],
        [("row_unit", 4, 1)],
        [("row_cluster", 4, 1)],
        [("covariates", (0, 0), 0.75)],
        [("present", (1, 0), True)],
        # x moves from row 3 to row 2: the present values, in row order, stay
        [("present", (2, 0), True), ("covariates", (2, 0), -1.0), ("present", (3, 0), False)],
    ], ids=lambda changes: "+".join(column for column, _, _ in changes))
    def test_changed_entries_are_unequal(self, no_view, changes):
        data = with_changes(equality_dataset())
        assert data != with_changes(data, *changes)

    def test_unit_and_covariate_numbering_does_not_matter(self, tmp_path, no_view):
        original = equality_dataset()
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,stratum,weight,y,x\n"
                     "c1,u1,5.0,1,m,2.0,nan,0.5\nc2,u3,1.5,0,f,,,\nc1,u2,7.0,0,m,2.0,2.0,\n"
                     "c2,u2,3.0,1,f,,,-1.0\nc3,u1,9.0,0,,,,4.0\n")
        back = read_csv(f)
        assert back.unit_names != original.unit_names
        assert back.covariate_names != original.covariate_names
        assert back == original and original == back

    def test_equal_to_its_view_and_csv_round_trip(self, tmp_path, monkeypatch):
        data = with_changes(equality_dataset())
        rebuilt = CurrentStatusDataset(data.clusters)
        f = tmp_path / "d.csv"
        write_csv(data, f)
        monkeypatch.setattr(CurrentStatusDataset, "_cluster_view",
                            lambda self: pytest.fail("cluster view built"))
        back = read_csv(f)
        assert math.isnan(back.covariates[0, back.covariate_names.index("y")])
        assert data == rebuilt and rebuilt == data
        assert data == back and back == rebuilt


# the faults a generated row may carry
_FAULTS = (
    "empty_id", "empty_unit", "time_text", "time_negative", "time_non_finite", "event_bad",
    "event_padded",
    "cov_text", "cov_nan", "stratum_change", "weight_change", "weight_text", "weight_bad",
    "short", "blank_before", "padded_id",
)
# the whitespace padded cells carry; str.strip removes all of it
_PADDING = (" ", "\t", "  ", "\x0c", "\xa0")


def _pad(draw, cell):
    return draw(st.sampled_from(_PADDING)) + cell + draw(st.sampled_from(_PADDING))


@st.composite
def csv_files(draw, faults=_FAULTS, quoted=False, dense=False):
    """A header and rows of a long-format file: interleaved clusters with
    strata, weights and covariates, and faults of every kind.  With
    ``quoted``, a cluster id may hold a comma, a quote character or a line
    break.  With ``dense``, the file has every optional column, and a
    cluster repeats a unit only by the "duplicate" fault."""
    optional = ["stratum", "weight", "x", "y"]
    extra = optional if dense else draw(st.lists(st.sampled_from(optional), unique=True))
    header = draw(st.permutations(["cluster_id", "unit", "time", "event"] + extra))
    clusters = [
        {"cluster_id": draw(st.sampled_from([f"c{i}", f"c,{i}", f'c"{i}', f"c\n{i}"]))
                       if quoted else f"c{i}",
         "stratum": draw(st.sampled_from(["", "a", "b"])),
         "weight": draw(st.sampled_from(["", "1.0", "2.5", "0.5"]))}
        for i in range(draw(st.integers(1, 4)))
    ]
    lines = []
    used = {c["cluster_id"]: [] for c in clusters}
    for _ in range(draw(st.integers(0, 14))):
        cell = dict(draw(st.sampled_from(clusters)))
        if dense:
            fresh = [u for u in ("u1", "u2", "u3", "u4") if u not in used[cell["cluster_id"]]]
            cell["unit"] = draw(st.sampled_from(fresh)) if fresh else f"v{len(used[cell['cluster_id']])}"
            used[cell["cluster_id"]].append(cell["unit"])
        else:
            cell["unit"] = draw(st.sampled_from(["u1", "u2", "u3"]))
        cell["time"] = repr(draw(st.floats(0.0, 80.0)))
        cell["event"] = draw(st.sampled_from(["0", "1"]))
        for name in ("x", "y"):
            cell[name] = draw(st.sampled_from(["", "0.5", "-1.25", "3"]))
        fault = draw(st.sampled_from((None,) * 8 + faults))
        if fault == "empty_id":
            cell["cluster_id"] = ""
        elif fault == "empty_unit":
            cell["unit"] = " "
        elif fault == "padded_id":
            cell["cluster_id"] = f" {cell['cluster_id']} "
        elif fault == "time_text":
            cell["time"] = draw(st.sampled_from(["abc", "", "1,5"]))
        elif fault == "time_negative":
            cell["time"] = "-1.5"
        elif fault == "time_non_finite":
            cell["time"] = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity"]))
        elif fault == "event_bad":
            cell["event"] = draw(st.sampled_from(["2", "", "yes", "1.0", "01", "10", "11"]))
        elif fault == "event_padded":
            cell["event"] = " 1 "
        elif fault == "cov_text":
            cell[draw(st.sampled_from(["x", "y"]))] = "oops"
        elif fault == "cov_nan":
            cell[draw(st.sampled_from(["x", "y"]))] = "nan"
        elif fault == "stratum_change":
            cell["stratum"] = "zz"
        elif fault == "weight_change":
            cell["weight"] = "3.0"
        elif fault == "weight_text":
            cell["weight"] = "heavy"
        elif fault == "weight_bad":
            cell["weight"] = draw(st.sampled_from(["0", "-1", "nan"]))
        elif fault == "duplicate":
            cell["unit"] = used[cell["cluster_id"]][0]
        elif fault == "padded_cells":
            cell = {name: _pad(draw, value) if value else value
                    for name, value in cell.items()}
        row = [cell[name] for name in header]
        if fault == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif fault == "long":
            row = row + draw(st.lists(st.sampled_from(["", "9", "extra"]), min_size=1,
                                      max_size=3))
        if fault == "blank_before":
            lines.append([])
        lines.append(row)
    return header, lines


def _write(path, header, lines, terminator="\r\n", final_newline=True):
    """Write a header and rows as csv.writer does, a blank line for an
    empty row, with the given line end."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=terminator)
    writer.writerow(header)
    for line in lines:
        if line:
            writer.writerow(line)
        else:
            buf.write(terminator)
    text = buf.getvalue()
    path.write_text(text if final_newline else text.removesuffix(terminator),
                    encoding="utf-8", newline="")


def _plain(path, width):
    """No quoted cell, and every non-blank line holds ``width`` cells: a
    file read by ``str.split`` alone, without csv.reader."""
    text = path.read_text(encoding="utf-8")     # both line ends read as \n
    return '"' not in text and all(
        line.count(",") == width - 1 for line in text.split("\n") if line)


def _refuse_csv_reader(mp):
    """Make csv.reader raise, on the MonkeyPatch ``mp``."""
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader ran")

    mp.setattr(csv, "reader", refuse)


def _outcome(reader, path):
    """What a reader makes of a file, in a form two readers can be compared by."""
    try:
        data = reader(path)
    except DatasetError as exc:
        return "rejected", [(type(p), p.line, str(p)) for p in exc.problems]
    except InvalidParameters as exc:
        return "invalid", str(exc)
    view = [
        (c.cluster_id, c.stratum, repr(c.weight), [
            (r.unit, repr(r.time), r.event, sorted((k, repr(v)) for k, v in r.covariates.items()))
            for r in c.records
        ])
        for c in data.clusters
    ]
    return "read", (view, data.covariate_names)


class TestReaderEquivalence:
    """The columnar reader accepts, rejects and reports exactly as the
    row-by-row reference reader of the oracles."""

    @settings(max_examples=300, deadline=None)
    @given(csv_files())
    def test_matches_reference_reader(self, content):
        header, lines = content
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for line in lines:
                    if line:
                        writer.writerow(line)
                    else:
                        fh.write("\r\n")
            assert _outcome(read_csv, path) == _outcome(reference_read_csv, path)

    def test_every_fault_kind_reported(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "cluster_id,unit,time,event,stratum,weight,x\n"
            "c1,u1,1.0,0,a,2.0,\n"           # 2: fine
            ",u1,1.0,0,a,2.0,\n"             # 3: empty id
            "c1,u2,abc,0,a,2.0,\n"           # 4: non-numeric time
            "c1,u2,-1,0,a,2.0,\n"            # 5: negative time
            "c1,u2,1.0,2,a,2.0,\n"           # 6: bad event flag
            "c1,u2,1.0,0,a,2.0,oops\n"       # 7: non-numeric covariate
            "c1,u2,1.0,0,a,heavy,\n"         # 8: non-numeric weight
            "c1,u1,1.0,0,a,2.0,\n"           # 9: duplicate unit
            "c1,u2,1.0,0,b,2.0,\n"           # 10: stratum differs
            "\n"
            "c1,u3,1.0,0,a,2.0\n"            # 11: short row, accepted
        )
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        got = [(type(p), p.line) for p in err.value.problems]
        assert got == [(MalformedRow, 3), (MalformedRow, 4), (NegativeTimeRow, 5),
                       (BadEventFlag, 6), (MalformedRow, 7), (MalformedRow, 8),
                       (DuplicateUnit, 9), (MalformedRow, 10)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_bad_weight_is_a_row_problem(self, tmp_path):
        # each row with a weight <= 0 or nan is rejected at its own line,
        # and a nan weight is not mistaken for a weight that changes
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,weight\n"
                     "c1,u1,1.0,0,1\nc2,u1,1.0,0,-2\nc3,u1,1.0,0,nan\nc3,u2,1.0,1,nan\n"
                     "c4,u1,1.0,0,0\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        got = [(type(p), p.line, str(p)) for p in err.value.problems]
        assert [(kind, line) for kind, line, _ in got] == [(MalformedRow, n) for n in (3, 4, 5, 6)]
        assert all("must be > 0" in message for _, _, message in got)
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(st.sampled_from(_FAULTS + ("padded_cells", "long", "duplicate")),
                     st.booleans()).flatmap(
               lambda kind: csv_files(faults=kind[:1], quoted=kind[1], dense=True)),
           st.sampled_from(["\n", "\r\n"]), st.booleans(), st.integers(1, 96))
    @example((["cluster_id", "unit", "time", "event"],
              [["c1", "u1", "1.0", "0"], ["c\n2", "u1", "2.0", "1"], ["c\n2", "u2", "2.5", "x"],
               ["c3", "u1", "3.0", "0"]]), "\r\n", True, 2)
    def test_matches_reference_reader_in_any_layout(self, content, terminator,
                                                    final_newline, block):
        # quoted ids, padded cells, long rows, both line ends, a last line
        # with or without its line end, and blocks of a line or a few; one
        # kind of fault a file and no repeated unit but by that fault, so
        # that most files reach the row rules with one fault or none; a
        # quoted cell may hold a line break that spans blocks
        header, lines = content
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_module, "_BLOCK_BYTES", block)
            path = Path(tmp) / "d.csv"
            _write(path, header, lines, terminator, final_newline)
            expected = _outcome(reference_read_csv, path)
            assert _outcome(read_csv, path) == expected
            if expected[0] == "read" and _plain(path, len(header)):
                # accepted without csv.reader
                _refuse_csv_reader(mp)
                assert _outcome(read_csv, path) == expected

    def test_quoted_id_holding_a_comma(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('cluster_id,unit,time,event\n"c,1",u1,1.5,0\n"c,1",u2,2.5,1\nc2,u1,3.0,1\n')
        data = read_csv(f)
        assert data.cluster_ids == ("c,1", "c2")
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_faulty_rows_after_a_quoted_row(self, tmp_path):
        # csv.reader reads from the quoted row on, and each rule still
        # reports its row at its line
        f = tmp_path / "d.csv"
        f.write_text('cluster_id,unit,time,event\nc0,u1,0.5,1\n"c,1",u1,1.5,0\nc2,u1,abc,0\n'
                     '"c,1",u1,2.5,1\nc2, ,1.0,1\n"c,1",u2,3.5,7\n')
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(type(p), p.line) for p in err.value.problems] == [
            (MalformedRow, 4), (DuplicateUnit, 5), (MalformedRow, 6), (BadEventFlag, 7)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("header", ["cluster_id,unit,time,event",
                                        '"cluster_id","unit","time","event"'])
    def test_byte_order_mark(self, tmp_path, header):
        # as a spreadsheet's "CSV UTF-8" export writes it
        f = tmp_path / "d.csv"
        f.write_text(header + "\nc1,u1,1.5,0\nc1,u2,2.5,1\n", encoding="utf-8-sig")
        assert f.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_csv(f).cluster_ids == ("c1",)
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("body, lines", [
        ("c\x001,u1,1.5,0,\nc2,u1,2.5,1,\n", [2]),               # str.split reads it
        ("c1,u1,1.5,0,\nc2,u1,2.\x005,1,\nc3,u1,\x00,1,\n", [3, 4]),
        ("c1,u1,1.5,0,\x00\n\x00\nc2,u1,2.5,1,\n", [2, 3]),       # a line of a NUL alone
        ('"c\x00\n1",u1,1.5,0,\nc2,u1,abc,1,\n', [2]),            # csv.reader reads it
        ('c1,u1,1.5,0,"\n\x00"\n"c,2",u1,2.5,1,\n', [2]),
    ])
    def test_nul_byte_is_a_row_problem(self, tmp_path, body, lines):
        # on every Python version: csv.reader refuses a NUL before 3.11
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,x\n" + body, newline="")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        nul = [p.line for p in err.value.problems if str(p).endswith("(line contains NUL)")]
        assert nul == lines
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("header", ["cluster_id,unit,time,event,x\x00",
                                        '"cluster_id\x00",unit,time,event'])
    def test_nul_byte_in_the_header(self, tmp_path, header):
        f = tmp_path / "d.csv"
        f.write_text(header + "\nc1,u1,1.5,0,\n", newline="")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(p.line, str(p)) for p in err.value.problems] == [
            (1, str(MalformedRow(1, "(line contains NUL)")))]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_nul_byte_past_the_header_width(self, tmp_path):
        # cells past the header's width are ignored, a NUL in them too
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event\nc1,u1,1.5,0,\x00\nc1,u2,2.5,1\n", newline="")
        assert read_csv(f).time.tolist() == [1.5, 2.5]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_line_ends(self, tmp_path, terminator, final_newline):
        f = tmp_path / "d.csv"
        rows = [["c1", "u1", "1.5", "0", "a", "0.5"], ["c2", "u1", "2.5", "1", "", ""],
                [], ["c1", "u2", "3.5", "1", "a", "-1"]]
        _write(f, ["cluster_id", "unit", "time", "event", "stratum", "x"], rows,
               terminator, final_newline)
        expected = _outcome(reference_read_csv, f)
        assert expected[0] == "read"
        assert _outcome(read_csv, f) == expected
        with pytest.MonkeyPatch.context() as mp:
            _refuse_csv_reader(mp)
            assert _outcome(read_csv, f) == expected

    @pytest.mark.parametrize("row, problem", [
        (",u1,1.0,0,a,2.0,", MalformedRow),              # empty id
        ("c1, ,1.0,0,a,2.0,", MalformedRow),             # empty unit
        ("c1,u2,abc,0,a,2.0,", MalformedRow),            # non-numeric time
        ("c1,u2,-1,0,a,2.0,", NegativeTimeRow),
        ("c1,u2,nan,0,a,2.0,", MalformedRow),            # time not finite
        ("c1,u2,1.0,2,a,2.0,", BadEventFlag),
        ("c1,u2,1.0,,a,2.0,", BadEventFlag),
        ("c1,u2,0,1,a,2.0,", MalformedRow),              # event at time 0
        ("c1,u2,-0.0,1,a,2.0,", MalformedRow),           # event at time 0
        ("c1,u2,1.0,0,a,2.0,oops", MalformedRow),        # non-numeric covariate
        ("c1,u2,1.0,0,a,heavy,", MalformedRow),          # non-numeric weight
        ("c3,u2,1.0,0,a,-2,", MalformedRow),             # weight <= 0
        ("c1,u1,1.0,0,a,2.0,", DuplicateUnit),
        ("c1,u2,1.0,0,b,2.0,", MalformedRow),            # stratum differs
        ("c1,u2,1.0,0,a,3.0,", MalformedRow),            # weight differs
    ])
    def test_one_bad_row_in_a_clean_file(self, tmp_path, row, problem):
        # each row rule on its own, in a file that str.split reads
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,stratum,weight,x\n"
                     "c1,u1,1.0,0,a,2.0,\nc2,u1,2.0,1,b,,0.5\n" + row + "\nc2,u2,3.0,0,b,,\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(type(p), p.line) for p in err.value.problems] == [(problem, 4)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("pair", ["11", "01", "10", "00"])
    def test_empty_flag_and_two_flag_cell_in_one_block(self, tmp_path, pair):
        # the block's flags join to one character a row, but no cell is a
        # flag: each cell is checked, not the totals
        f = tmp_path / "d.csv"
        f.write_text(f"cluster_id,unit,time,event\nc1,u1,1.0,\nc1,u2,2.0,{pair}\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(type(p), p.line) for p in err.value.problems] == [(BadEventFlag, 2),
                                                                  (BadEventFlag, 3)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("weight", ["0", "-1", "-0.0", "nan"])
    def test_bad_weight_of_a_lone_row(self, tmp_path, weight):
        # one row per cluster: no other row's weight can differ from it
        f = tmp_path / "d.csv"
        f.write_text(f"cluster_id,unit,time,event,weight\nc1,u1,1.0,0,1\nc2,u1,1.0,0,{weight}\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(type(p), p.line) for p in err.value.problems] == [(MalformedRow, 3)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_short_rows_are_not_joined(self, tmp_path):
        # two short rows hold the cells of one: each is padded and rejected
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event\nc1,u1,1.0,0\nc2,u1\n2.0,0\nc3,u1,3.0,1\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(type(p), p.line) for p in err.value.problems] == [(MalformedRow, 3),
                                                                  (MalformedRow, 4)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n\n"])
    def test_no_rows(self, tmp_path, body):
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,x" + "\n" + body, newline="")
        with pytest.MonkeyPatch.context() as mp:
            _refuse_csv_reader(mp)
            assert len(read_csv(f)) == 0
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_rows_longer_than_the_header(self, tmp_path):
        # csv.reader's extra cells are ignored
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event\nc1,u1,1.5,0,,extra\nc1,u2,2.5,1\n")
        assert read_csv(f).time.tolist() == [1.5, 2.5]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("pad", [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u3000"])
    def test_padded_cells(self, tmp_path, pad):
        # the one kind of whitespace in the file, which str.strip removes
        # from the labels (float() takes " 1.5 " but not "\x1c1.5")
        f = tmp_path / "d.csv"
        f.write_text(("cluster_id,unit,time,event,stratum,weight,x\n"
                      "~c1~,~u1,1.5,~1~,~a~,2.0,0.5\n"
                      "c1,u2~,2.5,0,a~,2,\n").replace("~", pad), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            _refuse_csv_reader(mp)
            data = read_csv(f)
        assert data.cluster_ids == ("c1",) and data.unit_names == ("u1", "u2")
        assert data.stratum_names == ("a",) and data.weight.tolist() == [2.0]
        assert data.event.tolist() == [1, 0]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_files_of_many_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data_module, "_BLOCK_BYTES", block)
        f = tmp_path / "d.csv"
        rng = np.random.default_rng(block)
        rows = [[f"c{c}", f"u{u}", repr(float(rng.uniform(0, 80))), str(int(rng.integers(2))),
                 "ab"[c % 2], "", repr(float(rng.normal())) if u else ""]
                for c in range(60) for u in range(3)]
        rows[10:10] = [[]]
        rows.append(["c1", "u9", "1.0", "0", "b", "", "1.5"])    # c1 again, blocks later
        _write(f, ["cluster_id", "unit", "time", "event", "stratum", "weight", "x"], rows)
        expected = _outcome(reference_read_csv, f)
        assert expected[0] == "read"
        with pytest.MonkeyPatch.context() as mp:
            _refuse_csv_reader(mp)
            assert _outcome(read_csv, f) == expected
        # a rule that fails in the last block
        with open(f, "a", encoding="utf-8", newline="") as fh:
            fh.write("c2,u9,1.0,0,b,,\r\n")
        with pytest.raises(DatasetError) as err:
            read_csv(f)
        assert [(type(p), p.line) for p in err.value.problems] == [(MalformedRow, 183)]
        assert _outcome(read_csv, f) == _outcome(reference_read_csv, f)

    def test_large_file_with_strata_weights_and_a_covariate(self, tmp_path, monkeypatch):
        # 20,000 clusters in 31 blocks: str.split reads it alone
        rng = np.random.default_rng(20)
        n = 20_000
        sizes = rng.integers(1, 4, n)
        strata = rng.choice(["a", "b", ""], n)
        weights = rng.choice(["", "1.0", "2.5", "0.75"], n)
        f = tmp_path / "d.csv"
        with open(f, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster_id", "unit", "time", "event", "stratum", "weight", "x"])
            for c in range(n):
                for u in rng.permutation(3)[:sizes[c]]:
                    x = repr(float(rng.normal())) if rng.random() < 0.7 else ""
                    writer.writerow([f"k{c}", f"u{u}", repr(float(rng.uniform(0, 80))),
                                     str(int(rng.integers(2))), strata[c], weights[c], x])
        assert f.stat().st_size > 30 * data_module._BLOCK_BYTES
        expected = _outcome(reference_read_csv, f)
        _refuse_csv_reader(monkeypatch)
        data = read_csv(f)
        assert len(data) == n and data.event.size == sizes.sum()
        assert _outcome(read_csv, f) == expected


# cells a written text may hold: csv's quoted characters, a tab, a space,
# non-ASCII text and NUL, which csv.writer refuses before Python 3.11
_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "\t", " ", "\x00", "a", "Z", "\xe9", "\u4e2d"]),
                max_size=4)
_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, 0.1, 1e-300, 5e-324, 1e16]))


@st.composite
def written_datasets(draw):
    """A dataset built by ``from_rows``: any ``_TEXT`` (or nothing) in its ids,
    units, stratum labels and covariate names, weights other than 1, any
    time, flags outside 0/1, absent cells and nan or infinite covariates;
    it may have no cluster.  Half of them are writable, each cluster with
    one row or more and no unit name twice, rows in any cluster order; in
    the others, units are drawn at random, so a cluster may have no row or
    repeat a unit."""
    n = draw(st.integers(0, 5))
    writable = draw(st.booleans())
    units = draw(st.lists(_TEXT, min_size=1, max_size=3, unique=writable))
    names = draw(st.lists(_TEXT, max_size=3))

    def column(elements, size):
        return draw(st.lists(elements, min_size=size, max_size=size))

    if writable:
        pairs = draw(st.permutations([
            (c, u) for c in range(n)
            for u in draw(st.permutations(range(len(units))))[:draw(st.integers(1, len(units)))]]))
        row_cluster, row_unit = [c for c, _ in pairs], [u for _, u in pairs]
        rows = len(pairs)
    else:
        rows = draw(st.integers(0, 12)) if n else 0
        row_cluster = column(st.integers(0, max(n - 1, 0)), rows)
        row_unit = column(st.integers(0, len(units) - 1), rows)
    return CurrentStatusDataset.from_rows(
        column(_TEXT, n), column(st.one_of(st.none(), _TEXT), n),
        column(st.sampled_from([1.0, 2.5, 0.1, 1e-300]), n),
        row_cluster, units, row_unit, column(_FLOATS, rows),
        column(st.one_of(st.sampled_from([0, 1]), st.integers(-128, 127)), rows), names,
        np.reshape(column(_FLOATS, rows * len(names)), (rows, len(names))),
        np.reshape(column(st.booleans(), rows * len(names)), (rows, len(names))),
    )


def _written(writer, data):
    """The bytes a writer writes for ``data``, or the type of what it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        try:
            writer(data, path)
        except Exception as exc:
            return type(exc)
        return path.read_bytes()


_CSV_WRITER = csv.writer


class _WriterBefore311:
    """csv.writer as Python 3.10 has it: a cell that holds a NUL raises
    csv.Error ("need to escape"), after the rows before it are written."""

    def __init__(self, fh):
        self._writer = _CSV_WRITER(fh)

    def writerow(self, row):
        row = list(row)
        if any("\x00" in cell for cell in row):
            raise csv.Error("need to escape, but no escapechar set")
        self._writer.writerow(row)

    def writerows(self, rows):
        for row in rows:
            self.writerow(row)


# csv.writer as installed, and as it was before Python 3.11
_CSV_WRITERS = pytest.mark.parametrize("csv_writer", [_CSV_WRITER, _WriterBefore311],
                                       ids=["installed", "before-3.11"])


class TestWriterEquivalence:
    """The block writer writes exactly the bytes of the row-by-row
    csv.writer reference of the oracles, or raises as it does, under
    either Python's csv.writer."""

    @_CSV_WRITERS
    @settings(max_examples=300, deadline=None)
    @given(data=written_datasets(), block=st.integers(1, 4))
    def test_matches_reference_writer(self, csv_writer, data, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csv, "writer", csv_writer)
            mp.setattr(data_module, "_BLOCK_ROWS", block)
            assert _written(write_csv, data) == _written(reference_write_csv, data)

    @_CSV_WRITERS
    def test_nul_in_a_cell(self, monkeypatch, csv_writer):
        monkeypatch.setattr(csv, "writer", csv_writer)
        data = equality_dataset()
        data = CurrentStatusDataset.from_rows(
            ["c\x001", "c2", "c3"], ["m", "f", None], data.weight, data.cluster,
            data.unit_names, data.unit, data.time, data.event, data.covariate_names,
            data.covariates, data.present)
        written = _written(write_csv, data)
        assert written == _written(reference_write_csv, data)
        if csv_writer is _WriterBefore311 or sys.version_info < (3, 11):
            assert written is csv.Error
        else:
            assert written.splitlines()[1].startswith(b"c\x001,")

    @_CSV_WRITERS
    def test_nul_in_no_written_cell(self, monkeypatch, csv_writer):
        # a NUL in an unused unit name, and in the unit and covariate names
        # of a dataset with no cluster: none is written, so nothing raises
        monkeypatch.setattr(csv, "writer", csv_writer)
        base = equality_dataset()
        unused = CurrentStatusDataset.from_rows(
            base.cluster_ids, ["m", "f", None], base.weight, base.cluster,
            base.unit_names + ("u\x00",), base.unit, base.time, base.event,
            base.covariate_names, base.covariates, base.present)
        empty = CurrentStatusDataset.from_rows(
            [], [], [], [], ["u\x00"], [], [], [], ["x\x00"],
            np.empty((0, 1)), np.empty((0, 1), dtype=bool))
        for data in (unused, empty):
            written = _written(write_csv, data)
            assert isinstance(written, bytes) and b"\x00" not in written
            assert written == _written(reference_write_csv, data)
        assert written == b"cluster_id,unit,time,event\r\n"

    @pytest.mark.parametrize("case,message", [
        ("no row", "cluster 'c\\x00' has no row"),
        ("repeated unit", "cluster 'c2': unit 'u1' in 2 rows"),
        ("repeated name", "cluster 'c1': unit 'u1' in 2 rows"),
    ])
    def test_unreadable_dataset_is_refused_before_the_file_opens(self, tmp_path, case, message):
        # a file of these would read back as DuplicateUnit problems or as
        # another dataset; the first offending cluster is named
        base = equality_dataset()
        ids, strata, weights = base.cluster_ids, ["m", "f", None], base.weight
        cluster, units, unit = base.cluster, base.unit_names, base.unit
        if case == "no row":
            ids, strata, weights = ids + ("c\x00",), strata + ["s"], np.append(weights, 1.0)
        elif case == "repeated unit":
            unit = np.where(cluster == 1, units.index("u1"), unit)
        else:
            units = tuple("u1" if name == "u2" else name for name in units)
        data = CurrentStatusDataset.from_rows(
            ids, strata, weights, cluster, units, unit, base.time, base.event,
            base.covariate_names, base.covariates, base.present)
        f = tmp_path / "d.csv"
        with pytest.raises(InvalidParameters, match=re.escape(message)):
            write_csv(data, f)
        assert not f.exists()
        assert _written(reference_write_csv, data) is InvalidParameters

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
    def test_many_blocks(self, monkeypatch, block):
        # 300 clusters of 1-3 rows, every 50th id quoted; blocks cut through clusters
        rng = np.random.default_rng(block)
        n = 300
        sizes = rng.integers(1, 4, n)
        cluster = np.repeat(np.arange(n), sizes)
        units = np.concatenate([rng.permutation(3)[:k] for k in sizes])
        rows = cluster.size
        present = rng.random((rows, 2)) < 0.7
        data = CurrentStatusDataset.from_rows(
            [f"k,{c}" if c % 50 == 0 else f"k{c}" for c in range(n)],
            rng.choice(["a", "b", None], n).tolist(), rng.choice([1.0, 2.5, 0.75], n),
            cluster, ["u1", "u2", "u3"], units, rng.uniform(0, 80, rows),
            rng.integers(0, 2, rows), ["x", "y"], rng.normal(size=(rows, 2)), present)
        monkeypatch.setattr(data_module, "_BLOCK_ROWS", block)
        assert _written(write_csv, data) == _written(reference_write_csv, data)
