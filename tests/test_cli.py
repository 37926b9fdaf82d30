"""Command-line interface: config parsing, ingestion, reports, exit codes."""

import json
import os

import pytest

from addamsfrailty.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from addamsfrailty.config import load_config
from addamsfrailty.data import read_csv
from addamsfrailty.errors import ConfigError, DatasetError

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

    def test_bad_weight_is_a_dataset_problem(self, tmp_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster_id,unit,time,event,weight\nc1,u1,5.0,1,1\nc2,u1,5.0,0,0\n")
        cfg = write_config(tmp_path)
        with caplog.at_level("ERROR", logger="addamsfrailty"):
            code = main(["fit", "--config", str(cfg), "--set", f"data.path={bad}"])
        assert code == EXIT_DATA
        assert any("line 3" in rec.getMessage() for rec in caplog.records)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    assert main(["fit", "--config", str(cfg)]) == EXIT_OK
    return tmp_path, cfg


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
