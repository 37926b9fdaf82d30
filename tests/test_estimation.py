"""Layout, optimizer, Hessian, confidence intervals and tests."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from addamsfrailty import (
    AddamsParameters,
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
    log_laplace,
    lrt,
    pinned_result,
    transformed_ci,
)
from addamsfrailty.config import load_config
from addamsfrailty.estimation import (
    _START_GAMMA,
    ParameterLayout,
    _trust_region,
    _trust_region_step,
    delta_method_se,
)
from addamsfrailty.errors import (
    DomainViolation,
    IdentifiabilityError,
    InvalidParameters,
    NegativeStatistic,
    NonFiniteEvaluation,
)
from addamsfrailty.hazard import BranchRegime, _central_jacobian
from addamsfrailty.report import fit_payload
from addamsfrailty.simulate import MonitoringLaw, SimConfig, generate
from oracles import score_hessian
from test_acceptance import recovery_spec, simulate_from
from test_likelihood import pass_design


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
def fit_calls(monkeypatch):
    """Records every ``loglik_and_score`` pass in ``passes`` (True for an
    information pass) and its value in ``values``, each ``optimize.minimize``
    call of ``fit`` in ``calls`` as (x0, result, passes inside the call, its
    keywords), each point its objective reads in ``points`` as (x, its
    output), and the last call's objective in ``evaluate``."""
    from addamsfrailty import estimation

    record = SimpleNamespace(passes=[], values=[], calls=[], points=[], evaluate=None)
    one_pass = LikelihoodWorkspace.loglik_and_score

    def counted(ws, layout, theta, information=False):
        record.passes.append(information)
        out = one_pass(ws, layout, theta, information=information)
        record.values.append(out[0])
        return out

    minimize = estimation.optimize.minimize

    def recorded(fun, x0, **kwargs):
        record.evaluate = fun

        def read(x):
            out = fun(x)
            record.points.append((np.array(x), out))
            return out

        before = len(record.passes)
        res = minimize(read, x0, **kwargs)
        record.calls.append((np.array(x0), res, len(record.passes) - before, kwargs))
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
        from addamsfrailty.hazard import BranchRegime, _central_jacobian
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

    def test_aliased_mean_rejected_before_any_pass(self, fit_calls):
        # with the reference mean pinned, beta0[0] loads only on stratum b,
        # as beta0[1] does: only their sum is identified
        spec = basic_spec(two_strata=True)
        spec = dataclasses.replace(spec, frailty_link=dataclasses.replace(
            spec.frailty_link, beta0_free=(True, True)))
        assert {"beta0[0]", "beta0[1]"} <= set(ParameterLayout(spec).free_names)
        with pytest.raises(IdentifiabilityError, match=r"beta0\[0\], beta0\[1\]"):
            fit(spec, simulated_data(basic_spec(two_strata=True), n=200))
        assert fit_calls.passes == [] and fit_calls.calls == []


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

    def test_start_point_check_feeds_the_first_evaluation(self, fit_calls):
        spec = basic_spec()
        data = simulated_data(spec, n=200, seed=4)
        result = fit(spec, data)
        (x0, res, inside, kwargs), = fit_calls.calls
        # one objective, read whole at each point: no jac or hess callbacks
        assert kwargs == {"method": _trust_region, "options": {"maxiter": 500}}
        assert result.converged and result.stop == res.stop == "gradient"
        assert np.array_equal(x0, ParameterLayout(spec).default_init(data))
        # the start's pass is the first evaluation, and its value is the
        # check; every other point the trust region tries costs one pass,
        # its value, score and J together, and the covariance takes one
        # information pass after the call
        assert np.array_equal(fit_calls.points[0][0], x0)
        assert inside == len(fit_calls.points) == res.nit + 1
        assert len(fit_calls.passes) == inside + 1
        assert fit_calls.passes[-1] and not any(fit_calls.passes[:-1])

    def test_trust_region_pass_count(self, fit_calls):
        # the gate-5 free fits of seeds 0-9 take 8.0 passes each on average
        # (12.8 under BFGS from the BHHH seed, 19.1 from the identity), the
        # start and information passes included
        counts = []
        for seed in range(10):
            before = len(fit_calls.passes)
            assert fit(recovery_spec(), simulate_from(recovery_spec(), 3000, seed)).converged
            counts.append(len(fit_calls.passes) - before)
        assert np.mean(counts) <= 8.0 + 1.0

    def test_each_point_is_steered_by_its_bhhh_matrix(self, fit_calls):
        # the trust region's model Hessian at a point is J = G' W G of that
        # point's pass, and its value and gradient are that pass's, negated
        spec = basic_spec(two_strata=True)
        data = simulated_data(spec, n=300, seed=5)
        result = fit(spec, data, maxiter=7)
        (_, res, _, kwargs), = fit_calls.calls
        assert kwargs["options"]["maxiter"] == 7
        assert result.stop == "maxiter" and res.nit == 7 and len(fit_calls.points) == 8
        layout = ParameterLayout(spec)
        ws = LikelihoodWorkspace(spec, data)
        for theta, (value, grad, model) in fit_calls.points:
            loglik, score, bhhh = ws.loglik_and_score(layout, theta)
            per_cluster = ws.scores.copy(order="K")
            assert model.tobytes() == bhhh.tobytes()
            weighted = per_cluster * data.weight[:, None]
            assert bhhh.tobytes() == (per_cluster.T @ weighted).tobytes()
            assert value == -loglik and grad.tobytes() == (-score).tobytes()

    def test_singular_bhhh_matrix_at_the_start_still_converges(self, monkeypatch):
        # a J of zeros at the start, as from a G of zeros, and the trust region's
        # first step runs to its radius along the negated gradient
        one_pass = LikelihoodWorkspace.loglik_and_score
        passes = []

        def zero_scores_at_start(ws, layout, theta, information=False):
            out = one_pass(ws, layout, theta, information=information)
            passes.append(theta)
            if len(passes) > 1:
                return out
            return (*out[:2], np.zeros_like(out[2]), *out[3:])

        monkeypatch.setattr(LikelihoodWorkspace, "loglik_and_score", zero_scores_at_start)
        spec = basic_spec()
        data = simulated_data(spec, n=200, seed=4)
        assert fit(spec, data).converged
        assert np.array_equal(passes[0], ParameterLayout(spec).default_init(data))

    def test_infeasible_point_reads_inf_with_a_finite_stand_in(self, fit_calls):
        # off the feasible region the objective reads (inf, 0), and J's
        # stand-in is the identity, finite for the trust region's checks
        spec = basic_spec()
        layout = ParameterLayout(spec)
        fit(spec, simulated_data(spec, n=50, seed=2), maxiter=0)
        theta = layout.free_vector()
        theta[layout.free_names.index("kappa[0]")] = 800.0
        with np.errstate(over="ignore"):
            value, grad, model = fit_calls.evaluate(theta)
        assert value == math.inf and not grad.any()
        assert model.tobytes() == np.eye(theta.size).tobytes()

    def test_interior_truths_converge(self):
        # the seam set at (alpha, gamma) = (0.5, 1): 12 of these 20 fits
        # converged from the no-frailty start, 19 from the data-chosen one
        spec = seam_spec(0.5)
        converged = sum(fit(spec, simulate_from(spec, 3000, seed=seed)).converged
                        for seed in range(50000, 50020))
        assert converged >= 19

    def test_unconverged_fit_returns_its_best_point(self, fit_calls):
        spec = seam_spec(0.9)
        data = simulate_from(spec, 1000, seed=50001)
        result = fit(spec, data)
        (_, res, _, _), = fit_calls.calls
        assert not result.converged and res.nit > 0
        assert np.array_equal(result.theta, res.x)
        # the highest log L of every pass the fit made, the information
        # pass at the returned point included
        assert result.loglik == max(fit_calls.values) == fit_calls.values[-1]
        assert fit(spec, data).theta.tobytes() == result.theta.tobytes()

    def test_non_finite_start_raises_after_one_pass(self, fit_calls):
        spec = basic_spec()
        init = ParameterLayout(spec).free_vector()
        init[0] = math.nan
        with pytest.raises(NonFiniteEvaluation, match="start point"):
            fit(spec, simulated_data(spec, n=200, seed=4), init=init)
        assert len(fit_calls.passes) == 1 and fit_calls.calls == []

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

    def test_negative_variance_gives_no_standard_error(self, monkeypatch, caplog):
        # a hand-built indefinite information: its inverse has negative
        # variances for the first two parameters
        one_pass = LikelihoodWorkspace.loglik_and_score

        def indefinite(ws, layout, theta, information=False):
            out = one_pass(ws, layout, theta, information=information)
            if not information:
                return out
            info = np.eye(theta.size)
            info[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
            return (*out[:3], info)

        monkeypatch.setattr(LikelihoodWorkspace, "loglik_and_score", indefinite)
        spec = basic_spec()
        with caplog.at_level("WARNING", logger="addamsfrailty.estimation"):
            result = fit(spec, simulated_data(spec, n=200, seed=4))
        assert np.diag(result.covariance)[:2].tolist() == pytest.approx([-1 / 3, -1 / 3])
        assert np.isnan(result.se[:2]).all() and np.isfinite(result.se[2:]).all()
        for name in result.names[:2]:
            est, lo, hi = result.ci[name]
            assert math.isfinite(est) and math.isnan(lo) and math.isnan(hi)
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 1
        assert warned[0].endswith(f"no standard error for {result.names[0]}, {result.names[1]}")
        payload = fit_payload(result)["parameters"]
        assert payload[result.names[0]]["se"] == payload[result.names[1]]["hi"] == "nan"


    def test_singular_information_gives_no_standard_errors(self, monkeypatch, caplog):
        # a hand-built singular information: the second parameter's row and
        # column are 0, as for a rate whose interval no monitoring time reaches
        one_pass = LikelihoodWorkspace.loglik_and_score

        def singular(ws, layout, theta, information=False):
            out = one_pass(ws, layout, theta, information=information)
            if not information:
                return out
            info = np.eye(theta.size)
            info[1, 1] = 0.0
            return (*out[:3], info)

        monkeypatch.setattr(LikelihoodWorkspace, "loglik_and_score", singular)
        spec = basic_spec()
        with caplog.at_level("WARNING", logger="addamsfrailty.estimation"):
            result = fit(spec, simulated_data(spec, n=200, seed=4))
        assert np.isnan(result.covariance).all() and np.isnan(result.se).all()
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 1
        assert f"do not inform {result.names[1]};" in warned[0]
        assert fit_payload(result)["parameters"][result.names[0]]["se"] == "nan"

    def test_rates_running_to_zero_stop_on_their_ridge(self):
        # on this compiled-pass design piecewise rates run toward 0, where
        # log L flattens; every step is finite, and the fit stops on that
        # ridge, higher than its start, with max|g| under the bound
        spec, data = pass_design(np.random.default_rng(7), "binomial:2")
        layout = ParameterLayout(spec)
        start = LikelihoodWorkspace(spec, data).loglik_and_score(
            layout, layout.default_init(data))[0]
        result = fit(spec, data)
        assert result.converged and np.isfinite(result.theta).all()
        assert result.loglik > start
        assert result.theta.min() < -40.0

    def test_intervals_running_to_infinity_are_named(self, caplog):
        # on the same ridge three log-rates end at -89, -272 and -141 with
        # log-scale SEs of 2e18, 8e57 and 3e29: z SE > 700, so their
        # intervals run to infinity, and one warning after the negative
        # variance's names all three
        spec, data = pass_design(np.random.default_rng(7), "binomial:2")
        with caplog.at_level("WARNING", logger="addamsfrailty.estimation"):
            result = fit(spec, data)
        unbounded = ["baseline[u1].rate[20+]", "baseline[u1].rate[45+]", "baseline[u2].rate[20+]"]
        assert [name for name in result.names if result.ci[name][2] == math.inf] == unbounded
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 2 and "negative variance" in warned[0]
        assert warned[1].endswith("runs to infinity (log-scale z SE > 700) for "
                                  + ", ".join(unbounded))


@st.composite
def step_problems(draw):
    """(kind, B, g, radius): B = Q diag(l) Q' positive semidefinite, of full
    rank (l from 1e-3 to 1e3 times one scale), rank-deficient with g in its
    range, or 0 with g not 0."""
    kind = draw(st.sampled_from(["full", "deficient", "zero"]))
    size = draw(st.integers(2 if kind == "deficient" else 1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis = np.linalg.qr(rng.normal(size=(size, size)))[0]
    curvature = 10.0 ** (rng.uniform(-3.0, 3.0, size) + draw(st.floats(-4.0, 4.0)))
    if kind == "deficient":
        curvature[:draw(st.integers(1, size - 1))] = 0.0
    elif kind == "zero":
        curvature[:] = 0.0
    model = (basis * curvature) @ basis.T
    model = 0.5 * (model + model.T)
    grad = model @ rng.normal(size=size) if kind == "deficient" else rng.normal(size=size)
    return (kind, model, grad * 10.0 ** draw(st.floats(-4.0, 4.0)),
            10.0 ** draw(st.floats(-4.0, 4.0)))


class TestTrustRegionStep:
    @settings(max_examples=300, deadline=None)
    @given(step_problems())
    def test_step_solves_the_subproblem(self, problem):
        kind, model, grad, radius = problem
        step, on_boundary = _trust_region_step(model, grad, radius)
        assert np.isfinite(step).all()
        assert np.linalg.norm(step) <= radius * (1.0 + 1e-12)

        def no_worse(s, other):
            # the model's change at s is at most its change at other, up to
            # a margin over the rounding of the sums that form them
            change = [grad @ x + 0.5 * x @ model @ x for x in (s, other)]
            scale = [np.abs(grad) @ np.abs(x) + np.abs(x) @ np.abs(model) @ np.abs(x)
                     for x in (s, other)]
            return change[0] <= change[1] + 1e-10 * sum(scale)

        # the Cauchy point: the model's least value along -g inside the radius
        norm, curving = np.linalg.norm(grad), grad @ model @ grad
        tau = 1.0 if curving <= 0.0 else min(1.0, norm ** 3 / (radius * curving))
        assert no_worse(step, -tau * radius / norm * grad)
        # the Newton step -B^+ g, where it lies inside: equal to it at full
        # rank; with B singular, one of the model's least values
        newton = -np.linalg.pinv(model) @ grad
        if kind != "zero" and np.linalg.norm(newton) <= radius * (1.0 - 1e-8):
            assert no_worse(step, newton)
            if kind == "full":
                assert not on_boundary
                assert np.linalg.norm(step - newton) <= 1e-8 * np.linalg.norm(newton)


# log L of the pinned cure-branch fits below, as the BFGS fit of commit
# 5e79ee3 (before its first step took the BHHH seed) reached them
PINNED_CURE_BRANCH_LOGLIK = {
    ("poisson", None): (
        -2168.271560307094, -2116.859118312695, -2114.236774366188,
        -2151.844788856176, -2210.1391095106046, -2162.950922733714,
        -2135.446683827384, -2113.5288233998544, -2152.1511987436515,
        -2193.012294820842,
    ),
    ("binomial", 2): (
        -2167.977416246022, -2116.5788936812896, -2114.716898239141,
        -2151.687489719443, -2210.8941331602687, -2163.966269690383,
        -2134.2639064882774, -2114.4381498201747, -2153.388610280954,
        -2194.099374717477,
    ),
    ("binomial", 1): (
        -2168.372232094362, -2116.889654204562, -2115.9198954045114,
        -2152.1860176524433, -2212.3764134701933, -2165.742401855322,
        -2133.7878294553493, -2115.996209372364, -2155.088365642474,
        -2195.8352963793113,
    ),
}


def test_pinned_cure_branch_fits_reach_the_recorded_maxima():
    # (alpha, gamma) = (0.9, 1) data, n = 2000, seeds 60000-60009, fitted
    # with the stratum pinned to the Poisson and the binomial b = 2 and
    # b = 1 branches from the default start.  BFGS from the BHHH seed
    # stopped on 11 of the 20 binomial fits up to 13.35 lower, "converged"
    # on a ridge of a piecewise rate near exp(-12) to exp(-28), with NaN SEs
    spec = seam_spec(0.9)
    datasets = [simulate_from(spec, 2000, seed) for seed in range(60000, 60010)]
    failures = []
    for (kind, b), recorded in PINNED_CURE_BRANCH_LOGLIK.items():
        pinned = dataclasses.replace(spec, branch_regimes={"s": BranchRegime(kind, b)})
        for seed, data, maximum in zip(range(60000, 60010), datasets, recorded):
            result = fit(pinned, data)
            if result.loglik < maximum - 1e-6:
                failures.append(f"{kind} {b} seed {seed}: {result.loglik - maximum:.3g}")
            if result.converged and np.isnan(result.se).any():
                failures.append(f"{kind} {b} seed {seed}: converged with NaN SEs")
    assert not failures, failures


def analyze_design_fit(seed):
    """The free fit of a two-stratum design (m: alpha -1, gamma 5, mu 1; f:
    alpha -2, gamma 8, mu 0.5; exponential rates 0.04 and 0.02), n = 500,
    monitoring uniform on [1, 80), strata drawn 0.5 / 0.5."""
    link = FrailtyLink.for_factor(["m", "f"], zeta0=-1.0, kappa0=math.log(5.0))
    link = dataclasses.replace(link, zeta=(-1.0, -1.0),
                               kappa=(math.log(5.0), math.log(8.0 / 5.0)),
                               beta0=(0.0, math.log(0.5)))
    spec = ModelSpec(
        units=("u1", "u2"),
        baselines={"u1": ExponentialBaseline(0.04), "u2": ExponentialBaseline(0.02)},
        frailty_link=link,
    )
    data = generate(SimConfig(spec=spec, n_clusters=500, seed=seed,
                              monitoring=MonitoringLaw("uniform", a=1.0, b=80.0),
                              stratum_probs={"m": 0.5, "f": 0.5}))
    return fit(spec, data)


class TestStop:
    """``FitResult.stop``: why the trust region stopped."""

    def test_small_gradient(self):
        result = analyze_design_fit(1835504127)
        assert result.stop == "gradient" and result.converged
        assert result.iterations == 10
        assert not result.at_wall

    def test_iteration_limit(self):
        # a ridge: both rates run to about e^15 and stratum f's mu to 2e-8
        result = analyze_design_fit(2834126987)
        assert result.stop == "maxiter" and not result.converged
        assert result.iterations == 500
        assert result.gradient_norm == pytest.approx(199.0, abs=0.5)

    def test_no_reduction(self):
        # stratum f ends at the alpha = gamma wall, where every step the
        # radius allows predicts a decrease lost in rounding
        result = analyze_design_fit(1490961094)
        assert result.stop == "no_reduction" and not result.converged
        assert result.iterations == 53
        assert result.gradient_norm == pytest.approx(0.083, abs=5e-4)
        law = result.spec.frailty_params("f")
        assert 0.0 < law.gamma - law.alpha < 1e-9
        assert result.at_wall

    def test_gradient_is_read_before_the_iteration_limit(self):
        # this fit meets the bound at its 12th iteration: a limit of 12 reads
        # "gradient", one of 11 "maxiter", and a limit of 0 returns the start
        spec = basic_spec()
        data = simulated_data(spec, n=200, seed=4)
        assert fit(spec, data).iterations == 12
        at_limit = fit(spec, data, maxiter=12)
        assert at_limit.stop == "gradient" and at_limit.converged
        short = fit(spec, data, maxiter=11)
        assert short.stop == "maxiter" and not short.converged and short.iterations == 11
        start = fit(spec, data, maxiter=0)
        assert start.stop == "maxiter" and start.iterations == 0
        assert np.array_equal(start.theta, ParameterLayout(spec).default_init(data))

    def test_nothing_fitted_has_no_stop(self):
        assert pinned_result(basic_spec()).stop is None
        assert not pinned_result(basic_spec()).at_wall

    def test_a_pinned_level_is_not_at_the_wall(self):
        # a level pinned to the Poisson member has alpha = gamma by its pin
        spec = dataclasses.replace(basic_spec(), branch_regimes={"a": BranchRegime("poisson")})
        assert spec.frailty_params("a").alpha == spec.frailty_params("a").gamma
        assert not pinned_result(spec).at_wall


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
        # each level's rates start from that level's own clusters
        start = ParameterLayout(spec).default_init(data)
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


    @pytest.mark.parametrize("kappa_free", [True, False])
    def test_rate_matches_the_event_fraction_under_the_start_law(self, kappa_free):
        # a free kappa intercept starts at ln _START_GAMMA; a pinned one
        # keeps the spec's value, and the start's law reads it
        spec = basic_spec()
        link = dataclasses.replace(spec.frailty_link, kappa=(math.log(3.0),),
                                   kappa_free=(kappa_free,))
        spec = dataclasses.replace(spec, frailty_link=link)
        data = simulated_data(basic_spec(), n=300, seed=2)
        layout = ParameterLayout(spec)
        u2 = data.unit == data.unit_names.index("u2")
        p_hat, t_bar = data.event[u2].mean(), data.time[u2].mean()
        start = layout.default_init(data)
        gamma = _START_GAMMA if kappa_free else 3.0
        assert ("kappa[0]" in layout.free_names) == kappa_free
        rate = math.exp(start[layout.free_names.index("baseline[u2].rate")])
        assert log_laplace(AddamsParameters(-0.1, gamma), rate * t_bar) == pytest.approx(
            math.log1p(-p_hat), rel=1e-12)

    def test_infeasible_start_law_raises(self):
        # alpha pinned above the start's gamma: the law is off the free region
        spec = basic_spec()
        link = dataclasses.replace(spec.frailty_link, zeta=(9.0,), zeta_free=(False,))
        spec = dataclasses.replace(spec, frailty_link=link)
        data = simulated_data(basic_spec(), n=100, seed=2)
        with pytest.raises(NonFiniteEvaluation, match="start point"):
            ParameterLayout(spec).default_init(data)
        with pytest.raises(NonFiniteEvaluation, match="start point"):
            fit(spec, data)

    def test_weights_count_as_copies(self):
        # a cluster of weight k starts the fit as k copies of it would, bit
        # for bit, wherever the copies sit
        data = simulated_data(basic_spec(), n=90, seed=6)
        clusters = data.clusters
        weights = [1 + i % 3 for i in range(len(clusters))]
        weighted = CurrentStatusDataset(
            dataclasses.replace(c, weight=float(w)) for c, w in zip(clusters, weights))
        copies = [dataclasses.replace(c, cluster_id=f"{c.cluster_id}#{j}")
                  for c, w in zip(clusters, weights) for j in range(1, w)]
        expanded = CurrentStatusDataset(list(clusters) + copies)
        layout = ParameterLayout(basic_spec(two_strata=True))
        by_weight, by_copy = layout.default_init(weighted), layout.default_init(expanded)
        assert by_weight.tobytes() == by_copy.tobytes()
        assert by_weight.tobytes() != layout.default_init(data).tobytes()

    def test_weight_scale_does_not_move_the_start(self):
        # weights normalised far below 1 leave the start where unit weights
        # put it; with a power-of-2 scale every weighted sum scales exactly
        data = simulated_data(basic_spec(), n=90, seed=6)
        scaled = CurrentStatusDataset(
            dataclasses.replace(c, weight=2.0 ** -10) for c in data.clusters)
        layout = ParameterLayout(basic_spec(two_strata=True))
        assert layout.default_init(scaled).tobytes() == layout.default_init(data).tobytes()


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

    def test_negative_variance_gives_nan(self, caplog):
        # a hand-built indefinite covariance: the gradient (1, -1) of the
        # first entry sees variance 1 - 2 * 2 + 1 = -2, the second's (1, 1) 6
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        fn = lambda th: np.array([th[0] - th[1], th[0] + th[1], 3.0 * th[0]])
        with caplog.at_level("WARNING", logger="addamsfrailty.estimation"):
            se = delta_method_se(fn, np.array([0.5, 1.5]), cov)
        assert math.isnan(se[0])
        np.testing.assert_allclose(se[1:], [math.sqrt(6.0), 3.0], rtol=1e-9)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and warnings[0].endswith("no standard error for entry 0")
        with caplog.at_level("WARNING", logger="addamsfrailty.estimation"):
            scalar = delta_method_se(lambda th: th[0] - th[1], np.array([0.5, 1.5]), cov)
        assert math.isnan(scalar) and caplog.records[-1].getMessage().endswith("the value")

    def test_positive_definite_se_is_the_root_of_the_variance(self):
        # the same arithmetic as before the nan rule: sqrt(g @ cov @ g), bit for bit
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        theta = np.array([1.0, 2.0])
        fn = lambda th: np.array([math.exp(th[0]) * th[1], th[1] ** 2])
        se = delta_method_se(fn, theta, cov)
        jac = _central_jacobian(fn, theta, np.maximum(1e-6, 1e-5 * np.abs(theta)))
        expected = [math.sqrt(max(float(g @ cov @ g), 0.0)) for g in np.ascontiguousarray(jac.T)]
        assert se.tolist() == expected

    def test_empty_theta_vector_function(self):
        se = delta_method_se(lambda th: np.ones(4), np.zeros(0), np.zeros((0, 0)))
        np.testing.assert_array_equal(se, np.zeros(4))
