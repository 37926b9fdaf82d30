"""Dataset container and CSV ingestion/round-trip."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addamsfrailty import Cluster, CurrentStatusDataset, UnitRecord, read_csv, write_csv
from addamsfrailty.errors import (
    BadEventFlag,
    DatasetError,
    DuplicateUnit,
    InvalidParameters,
    MalformedRow,
    NegativeTimeRow,
)

from oracles import reference_read_csv


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
    def test_event_units(self):
        assert make_cluster().event_units == ("u1",)

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


# the faults a generated row may carry
_FAULTS = (
    "empty_id", "empty_unit", "time_text", "time_negative", "event_bad", "event_padded",
    "cov_text", "cov_nan", "stratum_change", "weight_change", "weight_text", "weight_bad",
    "short", "blank_before", "padded_id",
)


@st.composite
def csv_files(draw):
    """A header and rows of a long-format file: interleaved clusters with
    strata, weights and covariates, and faults of every kind."""
    extra = draw(st.lists(st.sampled_from(["stratum", "weight", "x", "y"]), unique=True))
    header = draw(st.permutations(["cluster_id", "unit", "time", "event"] + extra))
    clusters = [
        {"cluster_id": f"c{i}",
         "stratum": draw(st.sampled_from(["", "a", "b"])),
         "weight": draw(st.sampled_from(["", "1.0", "2.5", "0.5"]))}
        for i in range(draw(st.integers(1, 4)))
    ]
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        cell = dict(draw(st.sampled_from(clusters)))
        cell["unit"] = draw(st.sampled_from(["u1", "u2", "u3"]))
        cell["time"] = repr(draw(st.floats(0.0, 80.0)))
        cell["event"] = draw(st.sampled_from(["0", "1"]))
        for name in ("x", "y"):
            cell[name] = draw(st.sampled_from(["", "0.5", "-1.25", "3"]))
        fault = draw(st.sampled_from((None,) * 8 + _FAULTS))
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
        elif fault == "event_bad":
            cell["event"] = draw(st.sampled_from(["2", "", "yes", "1.0"]))
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
        row = [cell[name] for name in header]
        if fault == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        if fault == "blank_before":
            lines.append([])
        lines.append(row)
    return header, lines


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

    def test_non_positive_weight_rejected_after_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,weight\nc1,u1,1.0,0,1\nc2,u1,1.0,0,-2\n")
        with pytest.raises(InvalidParameters, match="c2"):
            read_csv(f)
