"""Layout, optimizer, Hessian, confidence intervals and tests."""

import math

import numpy as np
import pytest
from scipy import stats

from addamsfrailty import (
    Cluster,
    CurrentStatusDataset,
    ExponentialBaseline,
    FrailtyLink,
    LikelihoodWorkspace,
    LinearPredictor,
    ModelSpec,
    PiecewiseConstantBaseline,
    UnitRecord,
    aic,
    fit,
    hessian,
    lrt,
    pinned_result,
    total_loglik,
    transformed_ci,
)
from addamsfrailty.estimation import ParameterLayout, delta_method_se
from addamsfrailty.errors import (
    DomainViolation,
    IdentifiabilityError,
    InvalidParameters,
    NegativeStatistic,
    NonFiniteEvaluation,
)
from addamsfrailty.simulate import MonitoringLaw, SimConfig, generate


def basic_spec(two_strata=False):
    levels = ["a", "b"] if two_strata else ["a"]
    link = FrailtyLink.for_factor(levels, zeta0=-1.0, kappa0=math.log(5.0))
    return ModelSpec(
        units=("u1", "u2"),
        baselines={
            "u1": PiecewiseConstantBaseline((0.0, 40.0), (0.05, 0.02)),
            "u2": ExponentialBaseline(0.03),
        },
        frailty_link=link,
        predictors={"u1": LinearPredictor(("x",), (0.3,)), "u2": LinearPredictor()},
    )


def simulated_data(spec, n=400, seed=3):
    return generate(SimConfig(spec=spec, n_clusters=n, seed=seed,
                              monitoring=MonitoringLaw("uniform", a=1.0, b=80.0)))


class TestLayout:
    def test_names_and_order(self):
        layout = ParameterLayout(basic_spec())
        assert layout.names == [
            "baseline[u1].rate[0+]", "baseline[u1].rate[40+]",
            "baseline[u2].rate",
            "beta[u1].x",
            "beta0[0]",
            "zeta[0]",
            "kappa[0]",
        ]
        # single level: beta0 intercept pinned by treatment coding
        free = dict(zip(layout.names, layout.free_mask))
        assert not free["beta0[0]"]
        assert free["zeta[0]"] and free["kappa[0]"]

    def test_roundtrip_spec_vector_spec(self):
        spec = basic_spec()
        layout = ParameterLayout(spec)
        theta = layout.free_vector()
        rebuilt = layout.build_spec(theta)
        assert rebuilt.baselines["u1"].rates == pytest.approx(
            spec.baselines["u1"].rates, rel=1e-15
        )
        assert rebuilt.frailty_link.zeta == spec.frailty_link.zeta
        assert ParameterLayout(rebuilt).free_vector() == pytest.approx(theta)

    def test_vector_perturbs_only_targets(self):
        spec = basic_spec()
        layout = ParameterLayout(spec)
        theta = layout.free_vector()
        theta[0] += math.log(2.0)   # double the first baseline rate
        rebuilt = layout.build_spec(theta)
        assert rebuilt.baselines["u1"].rates[0] == pytest.approx(0.10)
        assert rebuilt.baselines["u1"].rates[1] == pytest.approx(0.02)
        assert rebuilt.baselines["u2"].rate == pytest.approx(0.03)

    def test_zeta_pinned_when_no_free_regime(self):
        import dataclasses
        spec = basic_spec()
        from addamsfrailty.hazard import BranchRegime
        spec = dataclasses.replace(spec, branch_regimes={"a": BranchRegime("gamma")})
        layout = ParameterLayout(spec)
        free = dict(zip(layout.names, layout.free_mask))
        assert not free["zeta[0]"]
        assert free["kappa[0]"]


class TestHessian:
    def test_exact_on_quadratic(self):
        a = np.array([[2.0, 0.5], [0.5, 1.5]])

        def f(x):
            return -0.5 * float(x @ a @ x)

        h = hessian(f, np.array([0.3, -0.7]))
        np.testing.assert_allclose(h, -a, atol=1e-8)
        np.testing.assert_array_equal(h, h.T)

    def test_richardson_beats_plain_differences(self):
        # quartic with known second derivative at x = 1: f'' = 12 x^2 = 12
        f = lambda x: float(x[0] ** 4)
        h = hessian(f, np.array([1.0]))
        assert h[0, 0] == pytest.approx(12.0, rel=1e-7)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_value_mode_non_finite_probe_raises(self):
        def f(x):
            return math.inf if x[1] > 0.5 else float(x @ x)

        with pytest.raises(NonFiniteEvaluation):
            hessian(f, np.array([0.0, 0.5]))

    def test_score_mode_non_finite_probe_raises(self):
        def score(x):
            return np.array([math.nan if x[0] < 0.0 else 2.0 * x[0], 2.0 * x[1]])

        with pytest.raises(NonFiniteEvaluation):
            hessian(score, np.array([0.0, 1.0]), from_score=True)


class TestTransformedCi:
    def test_unconstrained_normal_interval(self):
        lo, hi = transformed_ci(1.0, 0.5, "unconstrained")
        assert lo == pytest.approx(1.0 - 1.959963984540054 * 0.5, rel=1e-12)
        assert hi == pytest.approx(1.0 + 1.959963984540054 * 0.5, rel=1e-12)

    def test_positive_log_interval(self):
        est, se = 2.0, 0.4
        lo, hi = transformed_ci(est, se, "positive")
        z = stats.norm.ppf(0.975)
        assert lo == pytest.approx(est * math.exp(-z * se / est), rel=1e-12)
        assert hi == pytest.approx(est * math.exp(z * se / est), rel=1e-12)
        assert 0 < lo < est < hi

    def test_unit_interval_stays_inside(self):
        lo, hi = transformed_ci(0.94, 0.05, "unit_interval")
        assert 0.0 < lo < 0.94 < hi < 1.0

    def test_zero_se_degenerate(self):
        assert transformed_ci(2.0, 0.0, "positive") == (2.0, 2.0)

    def test_huge_se_saturates_instead_of_overflowing(self):
        lo, hi = transformed_ci(1e-8, 1.0, "positive")
        assert 0.0 <= lo < 1e-300 and hi == math.inf
        lo, hi = transformed_ci(1e-12, 5.0, "unit_interval")
        assert 0.0 <= lo <= hi <= 1.0

    def test_domain_violations(self):
        with pytest.raises(DomainViolation):
            transformed_ci(-1.0, 0.1, "positive")
        with pytest.raises(DomainViolation):
            transformed_ci(1.2, 0.1, "unit_interval")
        with pytest.raises(DomainViolation):
            transformed_ci(0.5, -0.1, "unconstrained")
        with pytest.raises(DomainViolation):
            transformed_ci(0.5, 0.1, "logit")


class TestLrtAic:
    def _result(self, ll, k):
        spec = basic_spec()
        r = pinned_result(spec, ll)
        object.__setattr__(r, "names", tuple(f"p{i}" for i in range(k)))
        return r

    def test_statistic_and_pvalue(self):
        null = self._result(-103.0, 3)
        alt = self._result(-100.0, 5)
        stat, p = lrt(null, alt)
        assert stat == pytest.approx(6.0)
        assert p == pytest.approx(stats.chi2.sf(6.0, 2), rel=1e-12)

    def test_explicit_df(self):
        null = self._result(-103.0, 3)
        alt = self._result(-100.0, 5)
        stat, p = lrt(null, alt, df=1)
        assert p == pytest.approx(stats.chi2.sf(6.0, 1), rel=1e-12)

    def test_negative_statistic_rejected(self):
        null = self._result(-100.0, 3)
        alt = self._result(-103.0, 5)
        with pytest.raises(NegativeStatistic):
            lrt(null, alt)

    def test_df_must_be_positive(self):
        null = self._result(-103.0, 5)
        alt = self._result(-100.0, 5)
        with pytest.raises(InvalidParameters):
            lrt(null, alt)

    def test_aic(self):
        r = self._result(-100.0, 4)
        assert aic(r) == pytest.approx(208.0)


class TestIdentifiability:
    def test_stratified_baselines_require_pinned_mu(self):
        link = FrailtyLink.for_factor(["a", "b"])
        baselines = {
            (lvl, "u"): ExponentialBaseline(0.05) for lvl in ("a", "b")
        }
        spec = ModelSpec(units=("u",), baselines=baselines, frailty_link=link,
                         stratified_baselines=True)
        data = CurrentStatusDataset((
            Cluster("c1", (UnitRecord("u", 5.0, 0),), stratum="a"),
            Cluster("c2", (UnitRecord("u", 6.0, 1),), stratum="b"),
        ))
        with pytest.raises(IdentifiabilityError):
            fit(spec, data)


class TestFit:
    def test_recovery_within_three_se(self):
        spec = basic_spec()
        data = simulated_data(spec, n=800, seed=7)
        result = fit(spec, data)
        assert result.converged
        by_name = dict(zip(result.names, zip(result.theta, result.se)))
        zeta_hat, zeta_se = by_name["zeta[0]"]
        kappa_hat, kappa_se = by_name["kappa[0]"]
        assert abs(zeta_hat - (-1.0)) < 3.0 * zeta_se
        assert abs(kappa_hat - math.log(5.0)) < 3.0 * kappa_se
        # reported loglik matches an independent recomputation at theta-hat
        assert result.loglik == pytest.approx(
            total_loglik(result.spec, data), rel=1e-12
        )

    def test_fit_takes_value_and_score_from_one_pass(self, monkeypatch):
        calls = []
        value_only = LikelihoodWorkspace.total_loglik

        def counted(ws, spec):
            calls.append(1)
            return value_only(ws, spec)

        monkeypatch.setattr(LikelihoodWorkspace, "total_loglik", counted)
        spec = basic_spec()
        result = fit(spec, simulated_data(spec, n=200, seed=4))
        assert result.converged
        assert calls == []

    def test_refit_from_solution_is_fixed_point(self):
        spec = basic_spec()
        data = simulated_data(spec, n=300, seed=9)
        first = fit(spec, data)
        again = fit(first.spec, data, init="spec")
        assert again.iterations <= 2
        assert again.loglik == pytest.approx(first.loglik, abs=1e-6)

    def test_fully_pinned_fit_shortcut(self):
        import dataclasses
        spec = basic_spec()
        link = dataclasses.replace(
            spec.frailty_link,
            zeta_free=(False,), kappa_free=(False,), beta0_free=(False,),
        )
        spec = dataclasses.replace(spec, frailty_link=link)
        data = simulated_data(spec, n=50, seed=1)
        layout = ParameterLayout(spec)
        # baselines and beta are still free; pin everything via init vector
        result = fit(spec, data, init=layout.free_vector(), maxiter=0)
        assert math.isfinite(result.loglik)

    def test_covariance_consistency(self):
        # cov x (-hessian) = identity
        spec = basic_spec()
        data = simulated_data(spec, n=400, seed=5)
        result = fit(spec, data)
        h = hessian(lambda th: total_loglik(
            ParameterLayout(spec).build_spec(th), data
        ), result.theta)
        ident = result.covariance @ (-h)
        np.testing.assert_allclose(ident, np.eye(h.shape[0]), atol=1e-4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidParameters):
            fit(basic_spec(), CurrentStatusDataset(()))


class TestDeltaMethod:
    def test_linear_function_exact(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        theta = np.array([1.0, 2.0])
        fn = lambda th: 2.0 * th[0] - th[1]
        grad = np.array([2.0, -1.0])
        expected = math.sqrt(float(grad @ cov @ grad))
        assert delta_method_se(fn, theta, cov) == pytest.approx(expected, rel=1e-6)

    def test_empty_theta(self):
        assert delta_method_se(lambda th: 1.0, np.zeros(0), np.zeros((0, 0))) == 0.0

    def test_vector_function_matches_scalar_entries(self):
        cov = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        theta = np.array([1.0, -2.0, 0.5])
        entries = (
            lambda th: math.exp(th[0]) * th[1],
            lambda th: th[2] ** 3 - th[0],
            lambda th: math.sin(th[1] * th[2]),
        )
        se = delta_method_se(lambda th: np.array([f(th) for f in entries]), theta, cov)
        assert se.shape == (3,)
        for s, f in zip(se, entries):
            scalar = delta_method_se(f, theta, cov)
            assert isinstance(scalar, float)
            assert s == scalar            # the same arithmetic per entry

    def test_empty_theta_vector_function(self):
        se = delta_method_se(lambda th: np.ones(4), np.zeros(0), np.zeros((0, 0)))
        np.testing.assert_array_equal(se, np.zeros(4))
