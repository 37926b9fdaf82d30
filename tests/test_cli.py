"""Command-line interface: config parsing, ingestion, reports, exit codes."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from addamsfrailty import estimation
from addamsfrailty import report as rep
from addamsfrailty.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NONCONVERGENCE, EXIT_OK, main
from addamsfrailty.config import load_config
from addamsfrailty.data import read_csv, write_csv
from addamsfrailty.errors import ConfigError, DatasetError, MalformedRow
from addamsfrailty.hazard import BranchRegime
from addamsfrailty.likelihood import LikelihoodWorkspace
from addamsfrailty.simulate import MonitoringLaw

from test_likelihood import pass_design

BASE_CONFIG = """\
[data]
path = {data}

[model]
units = u1, u2
baseline = piecewise
cutpoints = 0, 40

[params]
zeta = -1.0
kappa = 1.6094379124341003
rates.u1 = 0.05, 0.02
rates.u2 = 0.03, 0.08

[simulate]
n_clusters = 1200
seed = 4
monitoring = uniform:1,80

[analyze]
k_max = 3
time_grid = 0:40:5

[output]
dir = {out}
"""


def write_config(tmp_path, name="run.ini"):
    cfg = tmp_path / name
    cfg.write_text(BASE_CONFIG.format(data=tmp_path / "data.csv", out=tmp_path / "out"))
    return cfg


def write_strata_config(tmp_path, stratum_probs):
    cfg = tmp_path / "strata.ini"
    cfg.write_text(
        "[model]\n"
        "units = u1\n"
        "stratum_levels = a, b\n"
        "baseline = exponential\n"
        "[params]\n"
        "params.u1 = 0.04\n"
        "[simulate]\n"
        "n_clusters = 20\n"
        f"stratum_probs = {stratum_probs}\n"
        "[output]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    return cfg


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = load_config(cfg)
        assert rc.units == ("u1", "u2")
        assert rc.stratum_levels == ("all",)
        assert rc.cutpoints == (0.0, 40.0)
        assert rc.fit_maxiter == 500
        assert rc.regimes["all"].kind == "free"

    def test_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = load_config(cfg, ["simulate.n_clusters=7", "fit.maxiter=9"])
        assert rc.sim_n_clusters == 7
        assert rc.fit_maxiter == 9

    def test_preset_cutpoints(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = load_config(cfg, ["model.cutpoints=preset:pienter2"])
        assert rc.cutpoints[0] == 0.0 and len(rc.cutpoints) == 8

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")
        cfg = write_config(tmp_path)
        with pytest.raises(ConfigError):
            load_config(cfg, ["not-a-pair"])
        with pytest.raises(ConfigError):
            load_config(cfg, ["model.baseline=magic"]).build_spec()
        with pytest.raises(ConfigError):
            load_config(cfg, ["params.rates.u1=0.05"]).build_spec()  # wrong arity

    def test_build_spec_regimes(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = load_config(cfg, ["model.regime.all=binomial:3"])
        spec = rc.build_spec()
        p = spec.frailty_params("all")
        assert p.alpha == pytest.approx(p.gamma + 1.0 / 3.0)

    def test_negative_stratum_probability_is_a_config_error(self, tmp_path):
        # the probabilities sum to 1, but one is negative
        cfg = write_strata_config(tmp_path, "a:1.5, b:-0.5")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "data.csv").exists()
        assert main(["simulate", "--config", str(cfg),
                     "--set", "simulate.stratum_probs=a:0.25, b:0.75"]) == EXIT_OK

    @pytest.mark.parametrize("setting", [
        "simulate.stratum_probs=a:x, b:0.5",
        "model.regime.a=binomial:two",
        "lrt.null_regime=binomial:two",
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, caplog, setting):
        cfg = write_strata_config(tmp_path, "a:0.25, b:0.75")
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["simulate", "--config", str(cfg), "--set", setting])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out" / "data.csv").exists()
        key = setting.split("=", 1)[0]
        assert any(key in rec.getMessage() for rec in caplog.records)

    def test_params_keys_match_names_in_any_case(self, tmp_path):
        cfg = tmp_path / "case.ini"
        cfg.write_text(
            "[model]\nunits = HepA, hepB\nbaseline = exponential\n"
            "[covariates]\nHepA = Age\n"
            "[params]\nparams.HepA = 0.07\nPARAMS.HEPB = 0.03\nbeta.HepA = 0.5\n"
        )
        spec = load_config(cfg).build_spec()
        assert spec.baselines["HepA"].rate == 0.07
        assert spec.baselines["hepB"].rate == 0.03
        assert spec.predictors["HepA"].coefficients == (0.5,)
        # overrides take the same keys
        cfg.write_text(
            "[model]\nunits = HepA\nstratum_levels = M, F\nstratified_baselines = true\n"
            "cutpoints = 0, 40\n"
        )
        spec = load_config(cfg, ["params.rates.M:HepA=0.01, 0.02",
                                 "params.rates.F:HepA=0.03, 0.04"]).build_spec()
        assert spec.baselines["M", "HepA"].rates == (0.01, 0.02)
        assert spec.baselines["F", "HepA"].rates == (0.03, 0.04)

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = tmp_path / "readme.ini"
        cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        rc = load_config(cfg)
        spec = rc.build_spec()
        # the inline comments are not part of the values
        assert rc.baseline_family == "piecewise"
        assert rc.cutpoints == (0.0, 20.0, 40.0)
        assert rc.regimes["m"].kind == "free"
        assert spec.baselines["u2"].rates == (0.03, 0.05, 0.08)

    def test_stratified_rates_from_the_file(self, tmp_path):
        # ":" is part of a key, not a delimiter
        cfg = tmp_path / "strata.ini"
        cfg.write_text(
            "[model]\nunits = HepA\nstratum_levels = M, F\nstratified_baselines = true\n"
            "cutpoints = 0, 40\n"
            "[params]\nrates.M:HepA = 0.01, 0.02\nrates.f:hepa = 0.03, 0.04\n"
        )
        spec = load_config(cfg).build_spec()
        assert spec.baselines["M", "HepA"].rates == (0.01, 0.02)
        assert spec.baselines["F", "HepA"].rates == (0.03, 0.04)

    @pytest.mark.parametrize("line, key", [
        ("param.u1 = 0.2", "param.u1"),
        ("params.u9 = 0.1", "params.u9"),
        ("rates.u1 = 0.1", "rates.u1"),         # an exponential baseline has no rates
    ])
    def test_params_key_matching_nothing_is_a_config_error(self, tmp_path, caplog, line, key):
        cfg = write_strata_config(tmp_path, "a:0.25, b:0.75")
        cfg.write_text(cfg.read_text().replace("[params]\n", f"[params]\n{line}\n"))
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            load_config(cfg)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert any(key in rec.getMessage() for rec in caplog.records)
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_unreadable_file_and_unknown_family_are_config_errors(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nunits: u1\n")     # "=" is the one delimiter
        with pytest.raises(ConfigError):
            load_config(cfg)
        cfg.write_text("[model]\nunits = u1\nbaseline = magic\n")
        with pytest.raises(ConfigError, match="unknown baseline family"):
            load_config(cfg).build_spec()

    @pytest.mark.parametrize("setting", [
        "analyze.time_grid=80:0:5",
        "analyze.time_grid=0:0:3",
        "analyze.time_grid=-5:40:5",
        "analyze.time_grid=0:nan:5",
        "analyze.time_grid=0:80:0",
        "analyze.units=u1, u9",
        "analyze.k_max=0",
    ])
    def test_analyze_values_checked_before_any_fit(self, tmp_path, caplog, monkeypatch,
                                                   setting):
        cfg = write_config(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr("addamsfrailty.cli.ml_fit", refuse)
        with pytest.raises(ConfigError):
            load_config(cfg, [setting])
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["analyze", "--config", str(cfg), "--set", setting])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out" / "report.json").exists()
        key = setting.split("=", 1)[0]
        assert any(key in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("setting, key", [
        ("fit.seed=3", "fit.seed"),                     # a removed setting
        ("fit.maxiterr=5", "fit.maxiterr"),
        ("analyse.k_max=0", "[analyse]"),
        ("output.dirr=x", "output.dirr"),
        ("model.regime.b=gamma", "model.regime.b"),     # no level b is declared
    ])
    def test_unknown_setting_is_a_config_error_before_data_is_read(
            self, tmp_path, caplog, monkeypatch, setting, key):
        cfg = write_config(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("data read")

        monkeypatch.setattr("addamsfrailty.cli.read_csv", refuse)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(cfg, [setting])
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            assert main(["fit", "--config", str(cfg), "--set", setting]) == EXIT_CONFIG
        assert any(key in rec.getMessage() for rec in caplog.records)

    def test_unknown_key_in_the_file_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "[fit]\nseed = 3\n")
        with pytest.raises(ConfigError, match=re.escape("fit.seed")):
            load_config(cfg)

    def test_repeated_unit_is_a_config_error(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["simulate", "--config", str(cfg), "--set", "model.units=u1, u2, u1"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "data.csv").exists()
        assert any("'u1' is repeated" in rec.getMessage() for rec in caplog.records)

    def test_units_differing_only_in_case_are_a_config_error(self, tmp_path):
        # params.u1 would set both baselines
        cfg = tmp_path / "case.ini"
        cfg.write_text("[model]\nunits = U1, u1\nbaseline = exponential\n"
                       "[params]\nparams.u1 = 0.02\n")
        with pytest.raises(ConfigError, match="'U1' and 'u1' differ only in case"):
            load_config(cfg)

    def test_levels_differing_only_in_case_are_a_config_error(self, tmp_path, caplog):
        # regime.m would pin both levels
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["simulate", "--config", str(cfg), "--set", "model.stratum_levels=M, m",
                         "--set", "model.regime.m=gamma"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "data.csv").exists()
        assert any("'M' and 'm' differ only in case" in rec.getMessage()
                   for rec in caplog.records)

    def test_negative_maxiter_is_a_config_error_before_data_is_read(self, tmp_path, caplog,
                                                                   monkeypatch):
        cfg = write_config(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("data read")

        monkeypatch.setattr("addamsfrailty.cli.read_csv", refuse)
        with pytest.raises(ConfigError, match="fit.maxiter"):
            load_config(cfg, ["fit.maxiter=-1"])
        assert load_config(cfg, ["fit.maxiter=0"]).fit_maxiter == 0
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", "fit.maxiter=-1"])
        assert code == EXIT_CONFIG
        assert any("fit.maxiter" in rec.getMessage() for rec in caplog.records)

    def test_grid_monitoring(self, tmp_path):
        # every simulated unit is monitored at one of the grid's ages
        cfg = write_config(tmp_path)
        grid = ["--set", "simulate.monitoring=grid:10, 25,60", "--set", "simulate.n_clusters=50"]
        assert load_config(cfg, [grid[1]]).sim_monitoring == MonitoringLaw(
            "grid", times=(10.0, 25.0, 60.0))
        assert main(["simulate", "--config", str(cfg), *grid]) == EXIT_OK
        assert set(read_csv(tmp_path / "data.csv").time.tolist()) <= {10.0, 25.0, 60.0}


class TestIngest:
    def test_reports_every_problem(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "cluster_id,unit,time,event\n"
            "c1,u1,5.0,1\n"
            "c1,u2,-3.0,0\n"
            "c2,u1,5.0,yes\n"
        )
        with pytest.raises(DatasetError) as err:
            read_csv(bad)
        lines = sorted(p.line for p in err.value.problems)
        assert lines == [3, 4]

    def test_exit_code_and_diagnostics(self, tmp_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster_id,unit,time,event\nc1,u1,5.0,2\n")
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg),
                         "--set", f"data.path={bad}"])
        assert code == EXIT_DATA
        assert any("2" in rec.getMessage() for rec in caplog.records)

    def test_non_finite_time_is_a_dataset_problem(self, tmp_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster_id,unit,time,event\nc1,u1,5.0,1\nc2,u1,nan,0\n")
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={bad}"])
        assert code == EXIT_DATA
        assert any("line 3" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("cell, message", [
        (b"c\xff2", "(not UTF-8)"),
        (b"x" * (csv.field_size_limit() + 1),
         f"(field larger than field limit ({csv.field_size_limit()}))"),
    ], ids=["not_utf8", "over_field_limit"])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_unreadable_cell_is_a_dataset_problem(self, tmp_path, caplog, cell, message, quoted):
        # listed with the file's other problems, without a traceback
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"cluster_id,unit,time,event\n" + (b'"c,1"' if quoted else b"c1")
                        + b",u1,5.0,1\n" + cell + b",u1,5.0,0\nc3,u1,abc,0\n")
        with pytest.raises(DatasetError) as err:
            read_csv(bad)
        assert [(type(p), p.line) for p in err.value.problems] == [(MalformedRow, 3),
                                                                  (MalformedRow, 4)]
        assert str(err.value.problems[0]) == f"line 3: malformed row {message}"
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={bad}"])
        assert code == EXIT_DATA
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("line 3" in m for m in messages) and any("line 4" in m for m in messages)

    def test_data_path_that_is_a_directory(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={tmp_path}"])
        assert code == EXIT_DATA
        assert [rec.getMessage() for rec in caplog.records] == [
            f"file error: [Errno 21] Is a directory: {str(tmp_path)!r}"]

    def test_bad_weight_is_a_dataset_problem(self, tmp_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster_id,unit,time,event,weight\nc1,u1,5.0,1,1\nc2,u1,5.0,0,0\n")
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={bad}"])
        assert code == EXIT_DATA
        assert any("line 3" in rec.getMessage() for rec in caplog.records)

    def test_event_at_time_0_is_a_dataset_problem(self, tmp_path, caplog):
        # its cluster has probability 0 under every model
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster_id,unit,time,event\nc1,u1,5.0,1\nc1,u2,0,1\nc2,u1,0,0\n")
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={bad}"])
        assert code == EXIT_DATA
        assert [rec.getMessage() for rec in caplog.records] == [
            "dataset rejected:", "  line 3: malformed row (event at time 0)"]

    @pytest.mark.parametrize("baseline, params", [
        ("weibull", "inf, 25"), ("gengamma", "1.2, 1.1, inf"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_infinite_baseline_parameter_exits_3(self, tmp_path, caplog, baseline, params,
                                                 command):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\npath = {tmp_path / 'data.csv'}\n"
                       f"[model]\nunits = u1, u2\nbaseline = {baseline}\n"
                       f"[params]\nparams.u1 = {params}\n"
                       f"params.u2 = {'1.1, 40' if baseline == 'weibull' else '1.1, 0.8, 40'}\n"
                       f"[simulate]\nn_clusters = 50\nseed = 3\n[output]\ndir = {tmp_path}\n")
        (tmp_path / "data.csv").write_text("cluster_id,unit,time,event\nc1,u1,5.0,1\n")
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert any("must be finite and > 0" in rec.getMessage() for rec in caplog.records)

    def test_unit_the_config_does_not_declare_exits_3(self, tmp_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster_id,unit,time,event\nc1,u1,5.0,1\nc2,u1,8.0,0\nc2,u3,9.0,1\n")
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={bad}"])
        assert code == EXIT_CONFIG
        assert any("'c2': unit 'u3'" in rec.getMessage() for rec in caplog.records)
        assert not (tmp_path / "out" / "report.json").exists()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    assert main(["fit", "--config", str(cfg)]) == EXIT_OK
    return tmp_path, cfg


STRATA_CONFIG = """\
[data]
path = {data}

[model]
units = u1, u2
stratum_levels = a, b
baseline = exponential

[params]
zeta = -1.0, 0.0
kappa = 1.6094379124341003, 0.0
params.u1 = 0.04
params.u2 = 0.02

[simulate]
n_clusters = 1000
seed = 6
stratum_probs = a:0.5, b:0.5

[output]
dir = {out}
"""


class TestLinkCoefficients:
    """Which frailty-link coefficients a two-stratum `fit` estimates."""

    @pytest.fixture(scope="class")
    def strata_config(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("strata")
        cfg = tmp_path / "strata.ini"
        cfg.write_text(STRATA_CONFIG.format(data=tmp_path / "data.csv", out=tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        return cfg

    def test_gamma_pinned_stratum_writes_no_zeta_row(self, strata_config, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(strata_config), "--set", "model.regime.b=gamma",
                     "--set", f"output.dir={out}"]) == EXIT_OK
        with open(out / "params.csv", newline="") as fh:
            names = [row["name"] for row in csv.DictReader(fh)]
        # zeta[1] loads only on b, whose alpha the pin holds at 0
        assert "zeta[0]" in names and "zeta[1]" not in names
        assert "kappa[1]" in names and "beta0[1]" in names

    def test_lrt_null_keeps_a_stratum_regime(self, strata_config, tmp_path):
        # the null model pins b to the gamma limit from model.regime and
        # leaves a free from lrt.null_regime; the alt model frees both
        out = tmp_path / "lrt"
        assert main(["lrt", "--config", str(strata_config), "--set", "model.regime.b=gamma",
                     "--set", "lrt.null_regime=free", "--set", f"output.dir={out}"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["null"]["regime"] == {"a": "free", "b": "gamma"}
        assert report["alt"]["regime"] == {"a": "free", "b": "free"}
        config = load_config(strata_config)
        data = read_csv(config.data_path)
        fits = [
            estimation.fit(config.build_spec(regimes={"a": BranchRegime("free"), "b": BranchRegime(b)}),
                           data, init="spec")
            for b in ("gamma", "free")
        ]
        stat, p_value = estimation.lrt(*fits)
        assert report["lrt"]["df"] == "1"
        assert report["lrt"]["statistic"] == rep.fmt(stat)
        assert report["lrt"]["p_value"] == rep.fmt(p_value)

    def test_unpinned_reference_mean_exits_3(self, strata_config, tmp_path, caplog):
        # without the pin, the baselines absorb a mean common to both strata,
        # which is what beta0[0] moves
        out = tmp_path / "fit"
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(strata_config),
                         "--set", "model.pin_reference_mu=false", "--set", f"output.dir={out}"])
        assert code == EXIT_CONFIG
        assert any("beta0[0]" in rec.getMessage() for rec in caplog.records)
        assert not (out / "report.json").exists()


class TestPipeline:
    def test_simulate_writes_ingestible_data(self, artifacts):
        tmp_path, _ = artifacts
        data = read_csv(tmp_path / "data.csv")
        assert len(data) == 1200
        assert {r.unit for c in data.clusters for r in c.records} == {"u1", "u2"}

    def test_fit_report_contents(self, artifacts):
        tmp_path, _ = artifacts
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["command"] == "fit"
        assert report["fit"]["converged"] == "true"
        params = report["fit"]["parameters"]
        zeta = float(params["zeta[0]"]["estimate"])
        zeta_se = float(params["zeta[0]"]["se"])
        assert abs(zeta - (-1.0)) < 3.0 * zeta_se
        # every number is %.6g text
        assert all(isinstance(v, str) for v in params["zeta[0]"].values())

    def test_params_csv_columns(self, artifacts):
        tmp_path, _ = artifacts
        lines = (tmp_path / "out" / "params.csv").read_text().splitlines()
        assert lines[0] == "name,estimate,se,lo,hi"
        assert len(lines) > 5

    def test_rerun_is_byte_identical(self, artifacts, tmp_path):
        _, cfg = artifacts
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["fit", "--config", str(cfg), "--set", f"output.dir={out1}"]) == EXIT_OK
        os.environ["ADDAMSFRAILTY_THREADS"] = "4"
        try:
            assert main(["fit", "--config", str(cfg), "--set", f"output.dir={out2}"]) == EXIT_OK
        finally:
            del os.environ["ADDAMSFRAILTY_THREADS"]
        for name in ("report.json", "params.csv", "rfv_params.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_analyze_outputs(self, artifacts):
        tmp_path, cfg = artifacts
        out = tmp_path / "analyzed"
        assert main(["analyze", "--config", str(cfg),
                     "--set", f"output.dir={out}"]) == EXIT_OK
        for name in ("report.json", "rc_table.csv", "hr_within.csv",
                     "trajectories.csv", "rfv_params.csv"):
            assert (out / name).exists()
        rc_lines = (out / "rc_table.csv").read_text().splitlines()
        assert rc_lines[0].startswith("row,stratum,reference,k")
        traj = (out / "trajectories.csv").read_text().splitlines()
        kinds = {line.split(",")[0] for line in traj[1:]}
        assert kinds == {"rfv", "cond_mean", "prevalence"}

    def test_report_json_holds_the_csv_cells(self, tmp_path):
        # each table's CSV cells and its report.json entries are the same
        # text; an empty cell is an absent key.  Both strata of this design
        # have a cure fraction, so a pair's hr_across reads "undef"
        cfg = tmp_path / "strata.ini"
        cfg.write_text(STRATA_CONFIG.format(data=tmp_path / "data.csv", out=tmp_path / "out")
                       .replace("zeta = -1.0, 0.0", "zeta = 0.5, 0.3")
                       .replace("n_clusters = 1000", "n_clusters = 3000"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())

        def rows(name):
            with open(out / name, newline="") as fh:
                return list(csv.DictReader(fh))

        def nested(row, col, entry):
            cells = {"estimate": row[col], "lo": row[f"{col}_lo"], "hi": row[f"{col}_hi"]}
            assert entry == ({k: v for k, v in cells.items() if v} or None)

        for row in rows("params.csv"):
            name = row.pop("name")
            assert report["fit"]["parameters"][name] == {k: v for k, v in row.items() if v}
        for row in rows("rfv_params.csv"):
            for col in ("alpha", "gamma", "mu", "psi", "nu", "pi", "b", "lambda_star"):
                nested(row, col, report["rfv_params"][row["stratum"]].get(col))
        table = report["rc_table"]
        support = [r for r in rows("rc_table.csv") if r["row"] == "support"]
        pairs = [r for r in rows("rc_table.csv") if r["row"] == "pair"]
        assert len(support) == len(table["support"]) > 0
        assert len(pairs) == len(table["pairs"]) > 0
        for row, entry in zip(support, table["support"]):
            assert (row["stratum"], row["reference"], row["k"], row["prob"]) == (
                entry["stratum"], table["reference"], entry["k"], entry["prob"])
            nested(row, "z", entry["z"])
            nested(row, "cum_prob", entry["cum_prob"])
        undefined = 0
        for row, entry in zip(pairs, table["pairs"]):
            assert (row["stratum"], row["reference"], row["k"]) == (
                entry["stratum"], entry["reference"], entry["k"])
            nested(row, "cum_prob", entry["cum_prob_ratio"])
            if row["hr_across"] == "undef":
                assert entry["hr_across"] == "undef"
                undefined += 1
            else:
                nested(row, "hr_across", entry["hr_across"])
        assert undefined > 0

    def test_lrt_report(self, artifacts, tmp_path):
        _, cfg = artifacts
        out = tmp_path / "lrt"
        assert main(["lrt", "--config", str(cfg),
                     "--set", f"output.dir={out}"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        stat = float(report["lrt"]["statistic"])
        assert stat >= 0.0
        assert report["lrt"]["df"] == "1"
        assert 0.0 <= float(report["lrt"]["p_value"]) <= 1.0

    def test_unconverged_fit_exits_2_without_reports(self, tmp_path, caplog):
        # the recovery gate's design at (alpha, gamma) = (0.9, 1), next to the
        # seam where the law's support changes, fitted from the default start
        model = (f"[data]\npath = {tmp_path / 'data.csv'}\n"
                 "[model]\nunits = u1, u2\nbaseline = piecewise\ncutpoints = 0, 40\n"
                 f"[output]\ndir = {tmp_path / 'out'}\n")
        truth = tmp_path / "truth.ini"
        truth.write_text(model + "[params]\nzeta = 0.9\nkappa = 0.0\n"
                         "rates.u1 = 0.05, 0.02\nrates.u2 = 0.03, 0.04\n"
                         "[simulate]\nn_clusters = 1000\nseed = 50001\n")
        assert main(["simulate", "--config", str(truth)]) == EXIT_OK
        cfg = tmp_path / "fit.ini"
        cfg.write_text(model)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            assert main(["fit", "--config", str(cfg)]) == EXIT_NONCONVERGENCE
        assert not (tmp_path / "out" / "report.json").exists()
        # the message names why the trust region stopped
        assert any(rec.getMessage().startswith("no convergence: fit: stopped at no_reduction, ")
                   for rec in caplog.records)
        # an iteration limit of 1 stops it sooner, and says so
        caplog.clear()
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            assert main(["fit", "--config", str(cfg), "--set", "fit.maxiter=1"]) == \
                EXIT_NONCONVERGENCE
        assert any("stopped at maxiter" in rec.getMessage() and "after 1 iterations"
                   in rec.getMessage() for rec in caplog.records)

    def test_rates_running_to_zero_exit_0(self, tmp_path, caplog):
        # the compiled-pass design on which piecewise rates run toward 0,
        # fitted from the default start: the fit stops on that ridge and
        # reports it, with no standard error where the information is indefinite
        _, data = pass_design(np.random.default_rng(7), "binomial:2")
        write_csv(data, tmp_path / "data.csv")
        cfg = tmp_path / "fit.ini"
        cfg.write_text(f"[data]\npath = {tmp_path / 'data.csv'}\n"
                       "[model]\nunits = u1, u2, u3\nstratum_levels = s\n"
                       "cutpoints = 0, 20, 45\nregime.s = binomial:2\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        with caplog.at_level("WARNING", logger="addamsfrailty"):
            assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        assert any("negative variance at the solution" in rec.getMessage()
                   for rec in caplog.records)
        with open(tmp_path / "out" / "params.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10 and "nan" in [r["se"] for r in rows]

    def test_rate_no_row_informs_gets_no_standard_error(self, tmp_path, caplog):
        # monitoring stops at 80, so no row reaches the 90+ rates: the
        # information is singular, and no parameter gets a standard error
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\npath = {tmp_path / 'data.csv'}\n"
                       "[model]\nunits = u1, u2\ncutpoints = 0, 40, 90\n"
                       "[simulate]\nn_clusters = 1500\nseed = 3\nmonitoring = uniform:1,80\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        with caplog.at_level("WARNING", logger="addamsfrailty"):
            assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 1
        assert "do not inform baseline[u1].rate[90+], baseline[u2].rate[90+];" in warned[0]
        with open(tmp_path / "out" / "params.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["se"], r["lo"], r["hi"]) for r in rows] == [("nan", "nan", "nan")] * 8

    def test_pinned_mean_keeps_its_interval_without_a_covariance(self, tmp_path):
        # the singular information above leaves every covariance entry nan;
        # the reference mu, pinned at 1, moves with no parameter, so its
        # interval is still [1, 1]
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\npath = {tmp_path / 'data.csv'}\n"
                       "[model]\nunits = u1, u2\ncutpoints = 0, 40, 90\n"
                       "[simulate]\nn_clusters = 1500\nseed = 3\nmonitoring = uniform:1,80\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "out" / "rfv_params.csv", newline="") as fh:
            row, = csv.DictReader(fh)
        assert (row["mu"], row["mu_lo"], row["mu_hi"]) == ("1", "1", "1")
        assert (row["gamma_lo"], row["gamma_hi"]) == ("nan", "nan")


class TestAnalyzePinned:
    def test_published_parameters_without_data(self, tmp_path):
        cfg = tmp_path / "pinned.ini"
        cfg.write_text(
            "[model]\n"
            "units = u1\n"
            "stratum_levels = m, f\n"
            "reference = m\n"
            "baseline = exponential\n"
            "[params]\n"
            "pin_all = true\n"
            "zeta = -0.502, -2.38\n"
            "kappa = 4.424114267511938, not-a-number\n"
            "[output]\n"
            f"dir = {tmp_path / 'out'}\n"
        )
        # malformed number must be a config error, not a crash
        assert main(["analyze", "--config", str(cfg)]) == EXIT_CONFIG

    def test_pinned_parameters_with_data_report_loglik_and_aic(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        pinned = ["--config", str(cfg), "--set", "params.pin_all=true"]
        assert main(["analyze", *pinned]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())["fit"]
        spec = load_config(cfg, ["params.pin_all=true"]).build_spec()
        loglik = LikelihoodWorkspace(spec, read_csv(tmp_path / "data.csv")).total_loglik(spec)
        assert report["n_free"] == "0"
        assert (report["loglik"], report["aic"]) == (rep.fmt(loglik), rep.fmt(-2.0 * loglik))

    def test_pinned_analysis_golden(self, tmp_path):
        cfg = tmp_path / "pinned.ini"
        cfg.write_text(
            "[model]\n"
            "units = u1\n"
            "stratum_levels = m, f\n"
            "reference = m\n"
            "baseline = exponential\n"
            "[params]\n"
            "pin_all = true\n"
            "zeta = -0.502, -2.38\n"
            "kappa = 4.424114267511938, 0.08662925284375829\n"
            "beta0 = 0.0, -1.1147002373403952\n"
            "params.u1 = 0.05\n"
            "[analyze]\n"
            "k_max = 2\n"
            "time_grid = 0:40:3\n"
            "[output]\n"
            f"dir = {tmp_path / 'out'}\n"
        )
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        m_row = report["rfv_params"]["m"]
        assert float(m_row["psi"]["estimate"]) == pytest.approx(0.502, abs=0.002)
        f_row = report["rfv_params"]["f"]
        assert float(f_row["psi"]["estimate"]) == pytest.approx(0.945, abs=0.002)
        support = report["rc_table"]["support"]
        first_m = next(r for r in support if r["stratum"] == "m" and r["k"] == "1")
        assert float(first_m["cum_prob"]["estimate"]) == pytest.approx(0.941, abs=0.002)

    def test_pairs_stop_at_the_reference_support(self, tmp_path):
        # the binomial reference has 4 support points, the free stratum b more
        cfg = tmp_path / "pinned.ini"
        cfg.write_text(
            "[model]\n"
            "units = u1\n"
            "stratum_levels = a, b\n"
            "reference = a\n"
            "baseline = exponential\n"
            "regime.a = binomial:3\n"
            "[params]\n"
            "pin_all = true\n"
            "params.u1 = 0.05\n"
            "[analyze]\n"
            "k_max = 6\n"
            "time_grid = 0:40:3\n"
            "[output]\n"
            f"dir = {tmp_path / 'out'}\n"
        )
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "out" / "rc_table.csv").open()))
        assert [(r["stratum"], r["k"]) for r in rows if r["row"] == "pair"] == [
            ("b", str(k)) for k in range(1, 5)]
        assert [r["k"] for r in rows if r["row"] == "support" and r["stratum"] == "b"] == [
            str(k) for k in range(1, 7)]
