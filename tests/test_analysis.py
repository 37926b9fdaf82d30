"""Risk-category tables, hazard ratios and trajectory curves."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from addamsfrailty import (
    AddamsParameters,
    Estimate,
    ExponentialBaseline,
    FrailtyLink,
    LinearPredictor,
    ModelSpec,
    MonitoringLaw,
    ParameterLayout,
    SimConfig,
    classify_branch,
    conditional_moments,
    generate,
    hr_across,
    hr_across_quantile_matched,
    hr_within,
    hr_within_table,
    laplace,
    pinned_result,
    rc_table,
    rfv,
    rfv_parameter_table,
    support_and_pmf,
    support_value,
    trajectories,
    transformed_ci,
)
from addamsfrailty import report as rep
from addamsfrailty.errors import ContinuousBranch, OutOfSupport, UndefinedRatio
from addamsfrailty.estimation import delta_method_se
from addamsfrailty.estimation import fit as ml_fit
from addamsfrailty.hazard import BranchRegime

from oracles import count_distribution

# published serological example: two strata, shifted scaled neg. binomial
MALE = AddamsParameters(-0.502, 83.447, 1.0)
FEMALE = AddamsParameters(-2.882, 90.996, 0.328)


def two_stratum_fit(alpha_f=-2.882, gamma_f=90.996):
    link = FrailtyLink(
        design={"m": (1.0, 0.0), "f": (1.0, 1.0)},
        zeta=(-0.502, alpha_f + 0.502),
        kappa=(math.log(83.447), math.log(gamma_f / 83.447)),
        beta0=(0.0, math.log(0.328)),
        reference="m",
    )
    spec = ModelSpec(
        units=("u1", "u2"),
        baselines={"u1": ExponentialBaseline(0.05), "u2": ExponentialBaseline(0.03)},
        frailty_link=link,
    )
    return pinned_result(spec)


def with_covariance(result):
    """``result`` with every layout entry free and a fixed covariance."""
    layout = ParameterLayout(result.spec)
    p = layout.n_free
    a = np.random.default_rng(5).normal(scale=0.05, size=(p, p))
    cov = a @ a.T + 1e-3 * np.eye(p)
    return dataclasses.replace(
        result, names=tuple(layout.free_names), theta=layout.free_vector(),
        covariance=cov, se=np.sqrt(np.diag(cov)), layout=layout,
    )


class TestHrWithin:
    def test_no_cure_formula(self):
        branch = classify_branch(MALE)
        # z ratios: (nu + k) / (nu + k - 1)
        for k in (1, 2, 5):
            expected = support_value(branch, k + 1) / support_value(branch, k)
            assert hr_within(branch, k) == pytest.approx(expected, rel=1e-12)

    def test_cure_branch_infinite_then_rational(self):
        branch = classify_branch(AddamsParameters(1.0, 2.0))
        assert hr_within(branch, 1) == math.inf
        assert hr_within(branch, 2) == pytest.approx(2.0)
        assert hr_within(branch, 3) == pytest.approx(1.5)

    def test_binomial_support_cap(self):
        branch = classify_branch(AddamsParameters(2.5, 2.0))   # 3 support points
        assert branch.n_support == 3
        hr_within(branch, 2)
        with pytest.raises(OutOfSupport):
            hr_within(branch, 3)            # the last support point has no next

    def test_continuous_branch_rejected(self):
        with pytest.raises(ContinuousBranch):
            hr_within(classify_branch(AddamsParameters(0.0, 2.0)), 1)

    def test_published_value(self):
        assert hr_within(classify_branch(MALE), 1) == pytest.approx(84.949, abs=1.0)


class TestHrAcross:
    def test_same_rc_ratio(self):
        bm, bf = classify_branch(MALE), classify_branch(FEMALE)
        expected = support_value(bf, 2) / support_value(bm, 2)
        assert hr_across(bf, bm, 2) == pytest.approx(expected, rel=1e-12)

    def test_limit_is_scale_ratio(self):
        # z_f(k)/z_m(k) -> psi_f/psi_m as k grows
        bm, bf = classify_branch(MALE), classify_branch(FEMALE)
        assert hr_across(bf, bm, 10000) == pytest.approx(
            bf.psi / bm.psi, rel=1e-3
        )
        assert bf.psi / bm.psi == pytest.approx(1.883, abs=0.01)

    def test_zero_over_positive_and_undefined(self):
        cure = classify_branch(AddamsParameters(1.0, 2.0))
        no_cure = classify_branch(MALE)
        assert hr_across(cure, no_cure, 1) == 0.0
        assert hr_across(no_cure, cure, 1) == math.inf
        with pytest.raises(UndefinedRatio):
            hr_across(cure, cure, 1)


class TestQuantileMatching:
    @staticmethod
    def brute_force(branch_i, branch_j, k, k_limit=400):
        # scan all k' and pick by the interval rule, ties to smaller k'
        dist_i = count_distribution(branch_i)
        dist_j = count_distribution(branch_j)
        lo = 0.0 if k == 1 else float(dist_i.cdf(k - 2))
        hi = float(dist_i.cdf(k - 1))
        cap = branch_j.b + 1 if branch_j.b is not None else k_limit
        best, best_score = None, None
        for kp in range(1, cap + 1):
            p = float(dist_j.cdf(kp - 1))
            inside = lo <= p < hi
            score = 0.0 if inside else max(lo - p, 0.0) + max(p - hi, 0.0)
            if best_score is None or score < best_score - 1e-15:
                best, best_score = kp, score
        return best

    def test_matches_brute_force_scan(self, rng):
        pairs = [
            (MALE, FEMALE),
            (FEMALE, MALE),
            (AddamsParameters(-1.0, 5.0), AddamsParameters(-0.2, 1.0)),
            (AddamsParameters(1.0, 2.0), AddamsParameters(-1.0, 5.0)),
            (AddamsParameters(2.5, 2.0), AddamsParameters(-1.0, 5.0)),
        ]
        for pi, pj in pairs:
            bi, bj = classify_branch(pi), classify_branch(pj)
            k_cap = bi.b + 1 if bi.b is not None else 6
            for k in range(1, k_cap + 1):
                expected = self.brute_force(bi, bj, k)
                got_k, got_hr = hr_across_quantile_matched(bi, bj, k)
                assert got_k == expected, (pi, pj, k)
                zi, zj = support_value(bi, k), support_value(bj, got_k)
                if zj == 0.0:
                    assert got_hr == math.inf
                else:
                    assert got_hr == pytest.approx(zi / zj, rel=1e-12)

    def test_published_first_rc_value(self):
        bm, bf = classify_branch(MALE), classify_branch(FEMALE)
        _, hr = hr_across_quantile_matched(bf, bm, 1)
        assert hr == pytest.approx(1.684, abs=0.01)


class TestRcTable:
    def test_published_first_row(self):
        table = rc_table(two_stratum_fit(), k_max=3)
        first_m = next(r for r in table.rows if r.stratum == "m" and r.k == 1)
        assert first_m.cum_prob.value == pytest.approx(0.941, abs=0.002)
        assert first_m.z.value == pytest.approx(0.006, abs=0.001)

    def test_rows_cover_strata_and_k(self):
        table = rc_table(two_stratum_fit(), k_max=3)
        assert {(r.stratum, r.k) for r in table.rows} == {
            (s, k) for s in ("m", "f") for k in (1, 2, 3)
        }
        assert all(p.reference == "m" for p in table.pairs)
        assert {p.k for p in table.pairs} == {1, 2, 3}

    def test_pinned_fit_has_no_cis(self):
        table = rc_table(two_stratum_fit(), k_max=2)
        assert all(r.z.lo is None for r in table.rows)

    def test_cure_fraction_ratios_through_the_writers(self, tmp_path):
        # reference a and stratum b have a cure fraction, c none: at k = 1 the
        # ratio is 0/0 for b and z / 0 for c, and neither gets a CI
        link = dataclasses.replace(FrailtyLink.for_factor(["a", "b", "c"]),
                                   zeta=(0.5, 0.0, -1.0), kappa=(math.log(2.0), 0.0, 0.0))
        spec = ModelSpec(units=("u1",), baselines={"u1": ExponentialBaseline(0.05)},
                         frailty_link=link)
        fit = with_covariance(pinned_result(spec))
        table = rc_table(fit, k_max=2)
        pairs = {(p.stratum, p.k): p for p in table.pairs}
        assert pairs["b", 1].hr_across is None
        assert pairs["c", 1].hr_across == Estimate(math.inf)
        assert pairs["b", 2].hr_across.lo is not None
        rep.write_rc_table_csv(tmp_path / "rc_table.csv", table)
        rows = {(r["row"], r["stratum"], r["k"]): r
                for r in csv.DictReader((tmp_path / "rc_table.csv").read_text().splitlines())}
        assert [rows["pair", s, "1"][col] for s in "bc" for col in ("hr_across", "hr_across_lo")] \
            == ["undef", "", "inf", ""]
        rep.write_json_report(tmp_path / "report.json", rep.rc_table_payload(table))
        payload = {(p["stratum"], p["k"]): p["hr_across"]
                   for p in json.loads((tmp_path / "report.json").read_text())["pairs"]}
        assert payload["b", "1"] == "undef" and payload["c", "1"] == {"estimate": "inf"}
        assert set(payload["b", "2"]) == {"estimate", "lo", "hi"}

    def test_binomial_pin_caps_every_table(self):
        # stratum b pinned to binomial b = 2 (3 points), asked for 6
        link = dataclasses.replace(FrailtyLink.for_factor(["a", "b"]),
                                   zeta=(-1.0, 0.0), kappa=(math.log(2.0), 0.0))
        spec = ModelSpec(units=("u1",), baselines={"u1": ExponentialBaseline(0.05)},
                         frailty_link=link,
                         branch_regimes={"a": BranchRegime("free"),
                                         "b": BranchRegime("binomial", b=2)})
        for fit in (pinned_result(spec), with_covariance(pinned_result(spec))):
            branch = classify_branch(fit.spec.frailty_params("b"))
            assert branch.n_support == 3
            assert [p.k for p in support_and_pmf(branch, 6)] == [1, 2, 3]
            table = rc_table(fit, k_max=6)
            assert [r.k for r in table.rows if r.stratum == "b"] == [1, 2, 3]
            assert [r.k for r in table.rows if r.stratum == "a"] == [1, 2, 3, 4, 5, 6]
            assert [p.k for p in table.pairs] == [1, 2, 3]
            entries = hr_within_table(fit, k_max=6)
            assert [e["k"] for e in entries if e["stratum"] == "b"] == [1, 2]
            assert [e["k"] for e in entries if e["stratum"] == "a"] == [1, 2, 3, 4, 5]

    def test_pinned_zero_support_point_has_no_ci(self):
        # f has a cure fraction: z_(1) = 0 is reported as a value alone
        table = rc_table(two_stratum_fit(alpha_f=1.0, gamma_f=2.0), k_max=2)
        z = next(r.z for r in table.rows if r.stratum == "f" and r.k == 1)
        assert z == Estimate(0.0)

    def test_hr_within_table_matches_direct_formula(self):
        entries = hr_within_table(two_stratum_fit(), k_max=4)
        bm = classify_branch(MALE)
        m_entries = [e for e in entries if e["stratum"] == "m"]
        assert [e["k"] for e in m_entries] == [1, 2, 3]
        for e in m_entries:
            assert e["hr"].value == pytest.approx(hr_within(bm, e["k"]), rel=1e-12)


class TestRfvParameterTable:
    def test_published_derived_parameters(self):
        table = rfv_parameter_table(two_stratum_fit())
        m = table["m"]
        assert m["psi"].value == pytest.approx(0.502, abs=0.002)
        assert m["nu"].value == pytest.approx(0.012, abs=0.002)
        assert m["pi"].value == pytest.approx(0.006, abs=0.002)
        f = table["f"]
        assert f["psi"].value == pytest.approx(0.945, abs=0.002)
        assert f["nu"].value == pytest.approx(0.011, abs=0.002)
        assert f["pi"].value == pytest.approx(0.031, abs=0.002)
        assert m["b"] is None and m["lambda_star"] is None

    def test_continuous_stratum_has_no_derived_fields(self):
        link = FrailtyLink.for_factor(["a"], kappa0=math.log(2.0))
        spec = ModelSpec(
            units=("u",), baselines={"u": ExponentialBaseline(0.1)},
            frailty_link=link, branch_regimes={"a": BranchRegime("gamma")},
        )
        table = rfv_parameter_table(pinned_result(spec))
        assert table["a"]["alpha"].value == 0.0
        assert table["a"]["psi"] is None and table["a"]["nu"] is None


class TestTrajectories:
    def test_rfv_curve_matches_closed_form(self):
        result = two_stratum_fit()
        times = np.linspace(0.0, 40.0, 9)
        curves = trajectories(result, "m", times=times)
        rfv_curve = next(c for c in curves if c.kind == "rfv")
        lam = 0.05 * times + 0.03 * times    # both exponential units aggregate
        np.testing.assert_allclose(rfv_curve.values, rfv(MALE, lam), rtol=1e-12)

    def test_prevalence_curve_matches_laplace(self):
        result = two_stratum_fit()
        times = np.linspace(0.0, 40.0, 9)
        curves = trajectories(result, "f", times=times)
        prev = next(c for c in curves if c.kind == "prevalence" and c.unit == "u1")
        np.testing.assert_allclose(
            prev.values, 1.0 - laplace(FEMALE, 0.05 * times), rtol=1e-12
        )

    def test_cond_mean_curve(self):
        result = two_stratum_fit()
        times = np.array([0.0, 10.0])
        curves = trajectories(result, "m", times=times)
        mean = next(c for c in curves if c.kind == "cond_mean")
        assert mean.values[0] == pytest.approx(1.0)   # E(Z) = mu at t = 0
        expected, _, _ = conditional_moments(MALE, 0.08 * 10.0)
        assert mean.values[1] == pytest.approx(expected, rel=1e-10)

    def test_units_with_covariates_use_baseline_hazards(self):
        result = two_stratum_fit()
        spec = dataclasses.replace(result.spec, predictors={
            "u1": LinearPredictor(("x",), (0.8,)),
            "u2": LinearPredictor(("x", "z"), (-0.4, 1.5)),
        })
        times = np.linspace(0.0, 40.0, 9)
        # every layout entry free, the betas included, so the CI path runs too
        fit = with_covariance(pinned_result(spec))
        curves = {(c.kind, c.unit): c for c in trajectories(fit, "f", times=times)}
        params = spec.frailty_params("f")
        lam0 = {u: spec.baseline_for("f", u).cumulative(times) for u in spec.units}
        for unit in spec.units:
            np.testing.assert_array_equal(curves["prevalence", unit].values,
                                          1.0 - laplace(params, lam0[unit]))
        np.testing.assert_array_equal(curves["rfv", None].values,
                                      rfv(params, lam0["u1"] + lam0["u2"]))
        assert curves["prevalence", "u2"].lo is not None

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            trajectories(two_stratum_fit(), "m", times=[0.0, 1.0, 1.0])


class TestOneJacobian:
    """Every SE comes from one Jacobian of the table's or curve's quantities."""

    @staticmethod
    def assert_ci(est_value, lo, hi, fit, closure, domain):
        # the reference: scalar delta-method SE of this entry's own closure
        se = delta_method_se(closure, fit.theta, fit.covariance)
        expected = transformed_ci(est_value, se, domain)
        assert (lo, hi) == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def branch(fit, theta, level):
        return classify_branch(fit.layout.build_spec(theta).frailty_params(level))

    def test_rc_table_entries(self):
        fit = with_covariance(two_stratum_fit())
        table = rc_table(fit, k_max=4)
        rows = {(r.stratum, r.k): r for r in table.rows}
        pairs = {p.k: p for p in table.pairs}

        def cdf(theta, level, k):
            return float(count_distribution(self.branch(fit, theta, level)).cdf(k - 1))

        z = rows["m", 2].z
        self.assert_ci(z.value, z.lo, z.hi, fit,
                       lambda th: support_value(self.branch(fit, th, "m"), 2), "positive")
        cum = rows["f", 3].cum_prob
        self.assert_ci(cum.value, cum.lo, cum.hi, fit,
                       lambda th: cdf(th, "f", 3), "unit_interval")
        ratio = pairs[2].cum_prob_ratio
        self.assert_ci(ratio.value, ratio.lo, ratio.hi, fit,
                       lambda th: cdf(th, "f", 2) / cdf(th, "m", 2), "positive")
        hr = pairs[1].hr_across
        self.assert_ci(hr.value, hr.lo, hr.hi, fit,
                       lambda th: hr_across(self.branch(fit, th, "f"),
                                            self.branch(fit, th, "m"), 1), "positive")

    def test_hr_within_and_rfv_parameter_entries(self):
        fit = with_covariance(two_stratum_fit())
        hr = next(e["hr"] for e in hr_within_table(fit) if e["stratum"] == "f" and e["k"] == 2)
        self.assert_ci(hr.value, hr.lo, hr.hi, fit,
                       lambda th: hr_within(self.branch(fit, th, "f"), 2), "positive")
        table = rfv_parameter_table(fit)
        for level, name, domain in (("m", "alpha", "unconstrained"), ("f", "mu", "positive"),
                                    ("f", "pi", "unit_interval"), ("m", "nu", "positive")):
            est = table[level][name]
            self.assert_ci(est.value, est.lo, est.hi, fit,
                           lambda th: getattr(self.branch(fit, th, level), name), domain)

    def test_trajectory_entries(self):
        fit = with_covariance(two_stratum_fit())
        times = np.array([0.0, 5.0, 20.0, 60.0])
        curves = {(c.kind, c.unit): c for c in trajectories(fit, "f", times=times)}

        def params_and_hazards(theta, i):
            spec = fit.layout.build_spec(theta)
            hazards = {u: spec.baseline_for("f", u).cumulative(times[i]) for u in spec.units}
            return spec.frailty_params("f"), hazards

        def rfv_at(theta, i):
            params, hazards = params_and_hazards(theta, i)
            return rfv(params, sum(hazards.values()))

        def mean_at(theta, i):
            params, hazards = params_and_hazards(theta, i)
            return conditional_moments(params, sum(hazards.values()))[0]

        def prevalence_at(theta, i):
            params, hazards = params_and_hazards(theta, i)
            return 1.0 - laplace(params, hazards["u2"])

        for key, closure, domain in ((("rfv", None), rfv_at, "positive"),
                                     (("cond_mean", None), mean_at, "positive"),
                                     (("prevalence", "u2"), prevalence_at, "unit_interval")):
            curve = curves[key]
            for i in (1, 3):
                self.assert_ci(curve.values[i], curve.lo[i], curve.hi[i], fit,
                               lambda th: closure(th, i), domain)
        # prevalence 0 at t = 0 sits on the boundary: its own interval
        prev = curves["prevalence", "u2"]
        assert prev.values[0] == prev.lo[0] == prev.hi[0] == 0.0

    def test_zero_hazard_ratio_is_its_own_interval(self):
        # f has a cure fraction (alpha > 0): its RC 1 is non-susceptible
        fit = with_covariance(two_stratum_fit(alpha_f=1.0, gamma_f=2.0))
        table = rc_table(fit, k_max=3)
        hr = next(p.hr_across for p in table.pairs if p.k == 1)
        assert (hr.value, hr.lo, hr.hi) == (0.0, 0.0, 0.0)
        z = next(r.z for r in table.rows if r.stratum == "f" and r.k == 1)
        assert (z.value, z.lo, z.hi) == (0.0, 0.0, 0.0)
        rows = [e for e in hr_within_table(fit) if e["stratum"] == "f"]
        assert rows[0]["hr"].value == math.inf

    @pytest.fixture
    def build_spec_calls(self, monkeypatch):
        calls = []
        original = ParameterLayout.build_spec

        def counting(layout, theta):
            calls.append(1)
            return original(layout, theta)

        monkeypatch.setattr(ParameterLayout, "build_spec", counting)
        return calls

    @staticmethod
    def analyses():
        return (
            lambda fit: rc_table(fit, k_max=5),
            lambda fit: hr_within_table(fit, k_max=5),
            lambda fit: rfv_parameter_table(fit),
            lambda fit: trajectories(fit, "m", times=np.linspace(0.0, 80.0, 41)),
        )

    def test_two_p_spec_builds_per_table_or_curve_set(self, build_spec_calls):
        fit = with_covariance(two_stratum_fit())
        for analysis in self.analyses():
            build_spec_calls.clear()
            analysis(fit)
            assert len(build_spec_calls) == 2 * fit.n_free

    def test_pinned_result_builds_no_spec(self, build_spec_calls):
        fit = two_stratum_fit()
        assert fit.layout.n_free == fit.n_free == 0
        for analysis in self.analyses():
            analysis(fit)
        assert build_spec_calls == []


class TestNoScipyDistributionObjects:
    """Analysis and fit take z and the count laws without a frozen scipy
    distribution or a ``stats.norm.ppf`` call: each costs far more than
    its arithmetic."""

    def test_fit_and_analyses_make_no_calls(self, monkeypatch):
        link = FrailtyLink.for_factor(["m", "f"], zeta0=-1.0, kappa0=math.log(5.0))
        spec = ModelSpec(
            units=("u1", "u2"),
            baselines={"u1": ExponentialBaseline(0.04), "u2": ExponentialBaseline(0.03)},
            frailty_link=link,
        )
        data = generate(SimConfig(spec=spec, n_clusters=400, seed=3,
                                  monitoring=MonitoringLaw("uniform", a=1.0, b=80.0),
                                  stratum_probs={"m": 0.5, "f": 0.5}))
        calls = []

        def counting(name, method):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(stats.norm, "ppf", counting("norm.ppf", stats.norm.ppf))
        for cls in (stats.rv_discrete, stats.rv_continuous):
            monkeypatch.setattr(cls, "freeze", counting(f"{cls.__name__}.freeze", cls.freeze))
        result = ml_fit(spec, data)
        assert result.n_free > 0 and np.all(np.isfinite(result.se))
        rc_table(result, k_max=5)
        hr_within_table(result, k_max=5)
        rfv_parameter_table(result)
        trajectories(result, "f", times=np.linspace(0.0, 80.0, 9))
        branches = [classify_branch(result.spec.frailty_params(lvl)) for lvl in ("m", "f")]
        hr_across_quantile_matched(*branches, 3)
        assert calls == []
