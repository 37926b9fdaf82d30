"""Layout, optimizer, Hessian, confidence intervals and tests."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from addamsfrailty import (
    Cluster,
    CurrentStatusDataset,
    ExponentialBaseline,
    FrailtyLink,
    GeneralizedGammaBaseline,
    LikelihoodWorkspace,
    LinearPredictor,
    ModelSpec,
    PiecewiseConstantBaseline,
    UnitRecord,
    WeibullBaseline,
    fit,
    hessian,
    lrt,
    pinned_result,
    transformed_ci,
)
from addamsfrailty.config import load_config
from addamsfrailty.estimation import ParameterLayout, delta_method_se
from addamsfrailty.errors import (
    DomainViolation,
    IdentifiabilityError,
    InvalidParameters,
    NegativeStatistic,
    NonFiniteEvaluation,
)
from addamsfrailty.hazard import BranchRegime
from addamsfrailty.simulate import MonitoringLaw, SimConfig, generate
from oracles import score_hessian
from test_acceptance import recovery_spec, simulate_from


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


def seam_spec(alpha):
    """The recovery gate's design with its frailty law at (alpha, gamma = 1)."""
    link = FrailtyLink.for_factor(["s"], zeta0=alpha, kappa0=0.0)
    return dataclasses.replace(recovery_spec(), frailty_link=link)


@pytest.fixture
def bfgs_calls(monkeypatch):
    """Records every ``loglik_and_score`` pass in ``passes`` (True for an
    information pass) and each BFGS call of ``fit`` in ``calls`` as (x0,
    result, passes inside the call)."""
    from addamsfrailty import estimation

    record = SimpleNamespace(passes=[], calls=[])
    one_pass = LikelihoodWorkspace.loglik_and_score

    def counted(ws, layout, theta, information=False):
        record.passes.append(information)
        return one_pass(ws, layout, theta, information=information)

    minimize = estimation.optimize.minimize

    def recorded(fun, x0, **kwargs):
        before = len(record.passes)
        res = minimize(fun, x0, **kwargs)
        record.calls.append((np.array(x0), res, len(record.passes) - before))
        return res

    monkeypatch.setattr(LikelihoodWorkspace, "loglik_and_score", counted)
    monkeypatch.setattr(estimation.optimize, "minimize", recorded)
    return record


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

    @pytest.mark.parametrize("two_strata", [False, True])
    def test_built_spec_equals_a_replace_built_one(self, two_strata):
        # build_spec sets the numbers without the link's and the spec's
        # checks; dataclasses.replace, which runs them, builds the same spec
        spec = basic_spec(two_strata)
        layout = ParameterLayout(spec)
        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = layout.free_vector() + rng.normal(scale=0.3, size=layout.n_free)
            built = layout.build_spec(theta)
            full = layout.full_from_free(theta)
            link = dataclasses.replace(spec.frailty_link, **{
                name: tuple(full[sl]) for name, sl in layout.link_slices.items()})
            expected = dataclasses.replace(spec, frailty_link=link, baselines={
                key: spec.baselines[key].with_log_params(full[sl])
                for key, sl in layout.baseline_slices.items()}, predictors={
                unit: spec.predictors[unit].with_coefficients(full[layout.beta_slices[unit]])
                if spec.predictors[unit].covariate_names else spec.predictors[unit]
                for unit in spec.units})
            assert built == expected
            for name in ("zeta", "kappa", "beta0"):
                assert all(type(v) is float for v in getattr(built.frailty_link, name))
            assert ParameterLayout(built).free_vector().tobytes() == theta.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_overflowing_log_rate_is_infeasible_in_fit(self):
        # exp(800) overflows: the baseline's own check refuses the rate, and
        # fit reads the point as infeasible, not as an error
        spec = basic_spec()
        layout = ParameterLayout(spec)
        theta = layout.free_vector()
        theta[0] = 800.0
        with pytest.raises(InvalidParameters):
            layout.build_spec(theta)
        with pytest.raises(NonFiniteEvaluation, match="start point"):
            fit(spec, simulated_data(spec, n=100, seed=2), init=theta)

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

    # the score-difference Hessian is the information pass's reference,
    # ``oracles.score_hessian``
    def test_score_mode_exact_on_quadratic(self):
        # the score of a quadratic is linear, so one central difference is
        # exact up to rounding, from 2 score passes per parameter
        a = np.array([[2.0, 0.5, -0.3], [0.5, 1.5, 0.2], [-0.3, 0.2, 4.0]])
        calls = []

        def score(x):
            calls.append(1)
            return -a @ x

        h = score_hessian(score, np.array([0.3, -0.7, 12.0]))
        np.testing.assert_allclose(h, -a, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(h, h.T)
        assert len(calls) == 2 * 3

    def test_score_mode_error_is_order_step_squared(self):
        # f = x0^4 + x0 x1^3: a central difference of the score at step h is
        # off by h^2/6 times its third derivative, 4 h0^2 in H00 and, after
        # symmetrizing, h1^2 / 2 in H01
        def score(x):
            return np.array([4.0 * x[0] ** 3 + x[1] ** 3, 3.0 * x[0] * x[1] ** 2])

        x = np.array([1.0, -3.0])
        h0, h1 = 1e-4 * np.maximum(1.0, np.abs(x))
        exact = np.array([[12.0 * x[0] ** 2, 3.0 * x[1] ** 2],
                          [3.0 * x[1] ** 2, 6.0 * x[0] * x[1]]])
        predicted = np.array([[4.0 * h0 ** 2, 0.5 * h1 ** 2], [0.5 * h1 ** 2, 0.0]])
        error = score_hessian(score, x) - exact
        assert np.all(np.abs(error - predicted) <= 1e-9)

    def test_score_mode_covariance_matches_value_mode(self):
        # the gate-5 seed-0 fit: SEs from the fit's observed information and
        # from the Richardson value-mode Hessian of the log-likelihood
        from test_acceptance import recovery_spec, simulate_from

        spec = recovery_spec()
        data = simulate_from(spec, 3000, seed=0)
        result = fit(spec, data)
        layout = ParameterLayout(spec)
        ws = LikelihoodWorkspace(spec, data)
        rich = hessian(lambda th: ws.total_loglik(layout.build_spec(th)), result.theta)
        se = np.sqrt(np.diag(np.linalg.inv(-rich)))
        np.testing.assert_allclose(result.se, se, rtol=1e-4, atol=0.0)

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
            score_hessian(score, np.array([0.0, 1.0]))


class TestTransformedCi:
    def test_unconstrained_normal_interval(self):
        lo, hi = transformed_ci(1.0, 0.5, "unconstrained")
        assert lo == pytest.approx(1.0 - 1.959963984540054 * 0.5, rel=1e-12)
        assert hi == pytest.approx(1.0 + 1.959963984540054 * 0.5, rel=1e-12)

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
    def test_z_is_the_normal_quantile_bit_for_bit(self, level):
        # the interval is the 95% one: its z is the 0.975 normal quantile
        # bit for bit, and the quantile of any other level differs
        z = stats.norm.ppf(0.975)
        assert z == stats.norm.ppf(0.5 + 0.95 / 2.0)
        lo, hi = transformed_ci(0.0, 1.0, "unconstrained")
        assert (lo, hi) == (-z, z)
        z_level = stats.norm.ppf(0.5 + level / 2.0)
        if level == 0.95:
            assert hi == z_level
        else:
            assert (hi > z_level) == (level < 0.95)
            assert hi != z_level
        est, se = 2.0, 0.4
        assert transformed_ci(est, se, "positive")[1] == est * math.exp(z * se / est)

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
        assert r.aic == pytest.approx(208.0)


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

    def test_aliased_mean_rejected_before_any_pass(self, bfgs_calls):
        # with the reference mean pinned, beta0[0] loads only on stratum b,
        # as beta0[1] does: only their sum is identified
        spec = basic_spec(two_strata=True)
        spec = dataclasses.replace(spec, frailty_link=dataclasses.replace(
            spec.frailty_link, beta0_free=(True, True)))
        assert {"beta0[0]", "beta0[1]"} <= set(ParameterLayout(spec).free_names)
        with pytest.raises(IdentifiabilityError, match=r"beta0\[0\], beta0\[1\]"):
            fit(spec, simulated_data(basic_spec(two_strata=True), n=200))
        assert bfgs_calls.passes == [] and bfgs_calls.calls == []


class TestMixedRegimes:
    """Stratum b pinned to the gamma limit, a free: zeta[1] reaches no alpha."""

    @pytest.fixture(scope="class")
    def fits(self):
        spec = basic_spec(two_strata=True)
        data = simulated_data(spec, n=400, seed=3)
        mixed = dataclasses.replace(spec, branch_regimes={"a": BranchRegime("free"),
                                                          "b": BranchRegime("gamma")})
        by_hand = dataclasses.replace(mixed, frailty_link=dataclasses.replace(
            mixed.frailty_link, zeta_free=(True, False)))
        return SimpleNamespace(spec=spec, mixed=fit(mixed, data), by_hand=fit(by_hand, data),
                               alt=fit(spec, data))

    def test_unreached_zeta_is_not_estimated(self, fits):
        mixed = fits.mixed
        assert mixed.converged and "zeta[1]" not in mixed.names
        # every masked-free entry but zeta[1] is estimated
        masked = ParameterLayout(fits.spec).n_free
        assert mixed.n_free == masked - 1
        assert mixed.aic == -2.0 * mixed.loglik + 2.0 * (masked - 1)

    def test_fit_equals_the_hand_pinned_fit(self, fits):
        mixed, by_hand = fits.mixed, fits.by_hand
        assert mixed.names == by_hand.names
        assert mixed.theta.tobytes() == by_hand.theta.tobytes()
        assert mixed.covariance.tobytes() == by_hand.covariance.tobytes()
        assert mixed.loglik == by_hand.loglik and mixed.aic == by_hand.aic

    def test_lrt_against_all_free_has_one_df(self, fits):
        assert fits.alt.converged
        stat, p = lrt(fits.mixed, fits.alt)
        assert fits.alt.n_free - fits.mixed.n_free == 1
        assert stat > 0.0 and p == stats.chi2.sf(stat, 1)


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
            LikelihoodWorkspace(result.spec, data).total_loglik(result.spec), rel=1e-12
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

    def test_start_point_check_feeds_the_first_bfgs_call(self, bfgs_calls):
        spec = basic_spec()
        result = fit(spec, simulated_data(spec, n=200, seed=4))
        attempts = bfgs_calls.calls
        assert result.converged and attempts
        # each attempt's start point is evaluated once, by the check, and
        # the covariance takes one information pass after the last attempt
        assert all(inside == res.nfev - 1 for _, res, inside in attempts)
        assert len(bfgs_calls.passes) == sum(res.nfev for _, res, _ in attempts) + 1
        assert bfgs_calls.passes[-1] and not any(bfgs_calls.passes[:-1])

    def test_stall_restarts_from_the_best_point_without_a_pass(self, bfgs_calls):
        spec = seam_spec(0.5)
        result = fit(spec, simulate_from(spec, 3000, seed=50009))
        assert result.converged and len(bfgs_calls.calls) == 2
        (_, first, _), (x0, second, _) = bfgs_calls.calls
        assert np.array_equal(x0, first.x) and second.fun < first.fun
        # the restart's first call is served the best point's value and gradient
        nfev = first.nfev + second.nfev
        assert len(bfgs_calls.passes) == nfev - 1 + 1

    def test_unconverged_fit_restarts_only_from_the_best_point(self, bfgs_calls):
        spec = seam_spec(0.9)
        data = simulate_from(spec, 1000, seed=50001)
        result = fit(spec, data)
        assert not result.converged and len(bfgs_calls.calls) > 1
        best = bfgs_calls.calls[0][1]
        for x0, res, _ in bfgs_calls.calls[1:]:
            assert np.array_equal(x0, best.x)
            if res.fun < best.fun:
                best = res
        assert np.array_equal(result.theta, best.x)
        assert fit(spec, data).theta.tobytes() == result.theta.tobytes()

    def test_non_finite_start_raises_after_one_pass(self, bfgs_calls):
        spec = basic_spec()
        init = ParameterLayout(spec).free_vector()
        init[0] = math.nan
        with pytest.raises(NonFiniteEvaluation, match="start point"):
            fit(spec, simulated_data(spec, n=200, seed=4), init=init)
        assert len(bfgs_calls.passes) == 1 and bfgs_calls.calls == []

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
        ws, layout = LikelihoodWorkspace(spec, data), ParameterLayout(spec)
        h = hessian(lambda th: ws.total_loglik(layout.build_spec(th)), result.theta)
        ident = result.covariance @ (-h)
        np.testing.assert_allclose(ident, np.eye(h.shape[0]), atol=1e-4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidParameters):
            fit(basic_spec(), CurrentStatusDataset(()))


class TestDefaultStart:
    """Fits from ``default_init`` on the baseline keys it treats apart."""

    def test_stratified_baselines(self):
        link = FrailtyLink.for_factor(["a", "b"], zeta0=-1.0, kappa0=math.log(5.0))
        rates = {("a", "u1"): 0.04, ("a", "u2"): 0.02, ("b", "u1"): 0.03, ("b", "u2"): 0.05}
        spec = ModelSpec(
            units=("u1", "u2"),
            baselines={key: ExponentialBaseline(rate) for key, rate in rates.items()},
            frailty_link=dataclasses.replace(link, beta0_free=(False, False)),
            stratified_baselines=True,
        )
        data = generate(SimConfig(spec=spec, n_clusters=4000, seed=1,
                                  stratum_probs={"a": 0.5, "b": 0.5}))
        start = ParameterLayout(spec).default_init(data)
        # each level's rates start from that level's own clusters
        assert len(set(np.round(start[:4], 12))) == 4
        result = fit(spec, data)
        assert result.converged
        assert result.names[:4] == tuple(f"baseline[{lvl}:{u}].rate" for lvl, u in rates)

    @pytest.mark.parametrize("family, truth, start", [
        ("weibull", ("1.5, 30", "1.2, 40"), WeibullBaseline(1.0, 20.0)),
        ("gengamma", ("1.3, 1.1, 25", "1.1, 0.9, 35"), GeneralizedGammaBaseline(1.0, 1.0, 20.0)),
    ])
    def test_parametric_baseline_without_params(self, tmp_path, family, truth, start):
        model = f"[model]\nunits = u1, u2\nbaseline = {family}\n"
        (tmp_path / "truth.ini").write_text(
            model + f"[params]\nzeta = -1.0\nkappa = 1.6094379124341003\n"
                    f"params.u1 = {truth[0]}\nparams.u2 = {truth[1]}\n")
        (tmp_path / "fit.ini").write_text(model)
        data = generate(SimConfig(spec=load_config(tmp_path / "truth.ini").build_spec(),
                                  n_clusters=2000, seed=1))
        spec = load_config(tmp_path / "fit.ini").build_spec()
        assert spec.baselines == {"u1": start, "u2": start}
        result = fit(spec, data)
        assert result.converged


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
