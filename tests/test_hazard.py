"""Baseline hazards, linear predictors and the frailty link."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from addamsfrailty import (
    PIENTER2_CUTPOINTS,
    BranchRegime,
    ExponentialBaseline,
    FrailtyLink,
    GeneralizedGammaBaseline,
    LinearPredictor,
    ModelSpec,
    PiecewiseConstantBaseline,
    WeibullBaseline,
    cluster_loglik,
    log_laplace,
)
from addamsfrailty.data import Cluster, UnitRecord
from addamsfrailty.errors import (
    InvalidParameters,
    InvalidRegion,
    MissingCovariate,
    NegativeTime,
    UnknownStratum,
)


class TestPiecewiseConstant:
    def test_hand_integration(self):
        base = PiecewiseConstantBaseline((0.0, 2.0, 5.0), (0.5, 0.2, 0.1))
        assert base.cumulative(0.0) == 0.0
        assert base.cumulative(1.0) == pytest.approx(0.5)
        assert base.cumulative(2.0) == pytest.approx(1.0)     # right-closed tie
        assert base.cumulative(4.0) == pytest.approx(1.0 + 0.2 * 2)
        assert base.cumulative(10.0) == pytest.approx(1.0 + 0.6 + 0.5)

    def test_last_interval_unbounded(self):
        base = PiecewiseConstantBaseline((0.0,), (0.3,))
        assert base.cumulative(1e6) == pytest.approx(3e5)

    def test_single_interval_equals_exponential(self):
        piece = PiecewiseConstantBaseline((0.0,), (0.07,))
        expo = ExponentialBaseline(0.07)
        ts = np.linspace(0.0, 90.0, 19)
        np.testing.assert_allclose(piece.cumulative(ts), expo.cumulative(ts))

    def test_invert_roundtrip(self):
        base = PiecewiseConstantBaseline((0.0, 2.0, 5.0), (0.5, 0.2, 0.1))
        for t in (0.0, 0.5, 2.0, 3.7, 5.0, 12.0):
            assert base.invert(float(base.cumulative(t))) == pytest.approx(t, abs=1e-12)

    def test_invert_picks_interval_as_searchsorted(self):
        # targets on the knots go to the interval the knot opens, as with
        # numpy's searchsorted(side="right"), and the result is bit-equal
        base = PiecewiseConstantBaseline((0.0, 2.0, 5.0, 9.0), (0.5, 0.2, 0.1, 0.3))
        knots = base.cumulative(np.array(base.cutpoints))
        targets = np.concatenate([knots, np.random.default_rng(3).uniform(0.0, 5.0, 500)])
        for target in targets.tolist():
            idx = int(np.clip(np.searchsorted(knots, target, side="right") - 1, 0, 3))
            expected = base.cutpoints[idx] + (target - knots[idx]) / base.rates[idx]
            assert base.invert(target) == expected

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            PiecewiseConstantBaseline((1.0, 2.0), (0.1, 0.1))   # must start at 0
        with pytest.raises(InvalidParameters):
            PiecewiseConstantBaseline((0.0, 2.0), (0.1,))
        with pytest.raises(InvalidParameters):
            PiecewiseConstantBaseline((0.0, 2.0), (0.1, -0.1))
        with pytest.raises(InvalidParameters):
            PiecewiseConstantBaseline((0.0, 2.0, 2.0), (0.1, 0.1, 0.1))

    def test_preset_cutpoints(self):
        assert PIENTER2_CUTPOINTS[0] == 0.0
        assert list(PIENTER2_CUTPOINTS) == sorted(PIENTER2_CUTPOINTS)
        PiecewiseConstantBaseline(PIENTER2_CUTPOINTS, (0.1,) * len(PIENTER2_CUTPOINTS))

    def test_rejects_negative_times(self):
        base = PiecewiseConstantBaseline((0.0,), (0.1,))
        with pytest.raises(NegativeTime):
            base.cumulative(-1.0)


class TestParametricBaselines:
    def test_weibull_quadrature_oracle(self):
        # Lambda(t) = integral of the Weibull hazard shape/scale (t/scale)^(shape-1)
        base = WeibullBaseline(1.7, 12.0)

        def hazard(t):
            return (1.7 / 12.0) * (t / 12.0) ** 0.7

        for t in (0.5, 3.0, 20.0):
            expected, _ = integrate.quad(hazard, 0.0, t)
            assert float(base.cumulative(t)) == pytest.approx(expected, rel=1e-9)

    def test_generalized_gamma_survival_oracle(self):
        # -log S with S from the scipy generalized-gamma distribution
        power, k, scale = 1.4, 2.3, 9.0
        base = GeneralizedGammaBaseline(power, k, scale)
        dist = stats.gengamma(k, power, scale=scale)
        for t in (1.0, 7.5, 25.0):
            assert float(base.cumulative(t)) == pytest.approx(
                -math.log(dist.sf(t)), rel=1e-9
            )

    @pytest.mark.parametrize("power, k, scale", [(2.0, 2.0, 40.0), (1.4, 2.3, 9.0),
                                                 (0.7, 0.5, 3.0), (3.0, 0.8, 60.0)])
    def test_generalized_gamma_keeps_its_digits_at_small_hazards(self, power, k, scale):
        # -log Q(k, (t/scale)^power) at 50 digits, from hazards near 1e-19 up;
        # -log Q itself loses every digit as Q nears 1
        import mpmath

        base = GeneralizedGammaBaseline(power, k, scale)
        ts = np.geomspace(1e-3, 1e2, 16)
        with mpmath.workdps(50):
            exact = [-mpmath.log(mpmath.gammainc(k, (mpmath.mpf(t) / scale) ** power,
                                                 regularized=True)) for t in ts]
        np.testing.assert_allclose(base.cumulative(ts), [float(h) for h in exact], rtol=1e-12)
        for t, h in zip(ts, exact):
            assert base.invert(float(h)) == pytest.approx(t, rel=1e-10)

    def test_generalized_gamma_nests_weibull(self):
        gg = GeneralizedGammaBaseline(1.8, 1.0, 10.0)
        wb = WeibullBaseline(1.8, 10.0)
        ts = np.linspace(0.1, 40.0, 9)
        np.testing.assert_allclose(gg.cumulative(ts), wb.cumulative(ts), rtol=1e-10)

    @pytest.mark.parametrize("base", [
        ExponentialBaseline(0.2),
        WeibullBaseline(0.8, 5.0),
        GeneralizedGammaBaseline(1.2, 0.7, 3.0),
    ])
    def test_invert_roundtrip(self, base):
        for t in (0.01, 1.0, 8.0, 50.0):
            assert base.invert(float(base.cumulative(t))) == pytest.approx(t, rel=1e-8)

    @pytest.mark.parametrize("base", [
        PiecewiseConstantBaseline((0.0, 5.0), (0.1, 0.3)),
        ExponentialBaseline(0.2),
        WeibullBaseline(0.8, 5.0),
        GeneralizedGammaBaseline(1.2, 0.7, 3.0),
    ])
    def test_flat_layout_roundtrip(self, base):
        rebuilt = base.with_log_params(base.log_params)
        ts = np.array([0.5, 4.0, 22.0])
        np.testing.assert_allclose(rebuilt.cumulative(ts), base.cumulative(ts))
        assert len(base.param_names) == base.log_params.size

    @pytest.mark.parametrize("make", [
        lambda v: WeibullBaseline(v, 25.0),
        lambda v: WeibullBaseline(1.2, v),
        lambda v: GeneralizedGammaBaseline(v, 1.0, 25.0),
        lambda v: GeneralizedGammaBaseline(1.0, v, 25.0),
        lambda v: GeneralizedGammaBaseline(1.0, 1.0, v),
    ])
    def test_infinite_parameter_rejected(self, make):
        # an infinite Weibull shape read Lambda = [0, inf] at times 10 and 30
        with pytest.raises(InvalidParameters):
            make(math.inf)


EVERY_BASELINE = [
    PiecewiseConstantBaseline((0.0, 2.0, 5.0, 9.0), (0.5, 0.2, 0.1, 0.3)),
    ExponentialBaseline(0.04),
    WeibullBaseline(1.5, 10.0),
    GeneralizedGammaBaseline(1.2, 0.7, 3.0),
]


@pytest.mark.parametrize("base", EVERY_BASELINE, ids=lambda b: type(b).__name__)
class TestInvert:
    # cumulative-hazard targets over [0, 50], the knots included
    TARGETS = np.concatenate([np.linspace(0.0, 50.0, 201), [1.0, 1.6, 2.1]])

    def test_array_equals_elementwise_scalar(self, base):
        inverted = base.invert(self.TARGETS)
        assert isinstance(inverted, np.ndarray) and inverted.shape == self.TARGETS.shape
        scalars = [base.invert(x) for x in self.TARGETS.tolist()]
        assert all(isinstance(t, float) for t in scalars)
        np.testing.assert_array_equal(inverted, scalars)
        grid = self.TARGETS[:12].reshape(3, 4)
        np.testing.assert_array_equal(base.invert(grid), inverted[:12].reshape(3, 4))

    def test_cumulative_undoes_invert(self, base):
        np.testing.assert_allclose(base.cumulative(base.invert(self.TARGETS)), self.TARGETS,
                                   rtol=1e-12, atol=0.0)

    def test_negative_target_rejected(self, base):
        with pytest.raises(InvalidParameters):
            base.invert(-1.0)
        with pytest.raises(InvalidParameters):
            base.invert(np.array([2.0, -1e-12, 3.0]))


class TestLinearPredictor:
    """The likelihood's unit hazard is exp(x' beta) Lambda_0(t): a lone
    unit without an event has log-probability log L of it."""

    @staticmethod
    def spec(names, coefficients):
        return ModelSpec(
            units=("u",),
            baselines={"u": ExponentialBaseline(0.1)},
            frailty_link=FrailtyLink.for_factor(["a"]),
            predictors={"u": LinearPredictor(names, coefficients)},
        )

    @staticmethod
    def loglik(spec, covariates):
        return cluster_loglik(spec, Cluster("c", (UnitRecord("u", 5.0, 0, covariates),)))

    def test_value_and_missing(self):
        spec = self.spec(("age", "urban"), (0.02, -0.5))
        params = spec.frailty_params("a")
        assert self.loglik(spec, {"age": 30.0, "urban": 1.0}) == pytest.approx(
            log_laplace(params, math.exp(0.1) * 0.5), rel=1e-12)
        with pytest.raises(MissingCovariate):
            self.loglik(spec, {"age": 30.0})

    def test_proportionality(self):
        spec = self.spec(("x",), (0.7,))
        params = spec.frailty_params("a")
        for x in (0.0, 1.0):
            assert self.loglik(spec, {"x": x}) == pytest.approx(
                log_laplace(params, math.exp(0.7 * x) * 0.5), rel=1e-12)


class TestFrailtyLink:
    def test_treatment_coding(self):
        link = FrailtyLink.for_factor(["m", "f"], reference="m")
        np.testing.assert_array_equal(link.row("m"), [1.0, 0.0])
        np.testing.assert_array_equal(link.row("f"), [1.0, 1.0])
        with pytest.raises(UnknownStratum):
            link.row("x")

    def test_reference_mu_pinned_to_one(self):
        link = FrailtyLink.for_factor(["m", "f"], reference="m")
        _, _, mu = link.raw_params("m")
        assert mu == 1.0

    def test_link_scales(self):
        link = FrailtyLink.for_factor(["m", "f"], reference="m",
                                      zeta0=-0.5, kappa0=math.log(2.0))
        alpha, gamma, _ = link.raw_params("m")
        assert alpha == pytest.approx(-0.5)      # identity link
        assert gamma == pytest.approx(2.0)       # log link

    def test_regime_pins_applied(self):
        link = FrailtyLink.for_factor(["a"], zeta0=-0.5, kappa0=math.log(2.0))
        base = {"a": ExponentialBaseline(0.1)}

        def params(regime):
            spec = ModelSpec(units=("u",), baselines={"u": base["a"]},
                             frailty_link=link, branch_regimes={"a": regime})
            return spec.frailty_params("a")

        assert params(BranchRegime("free")).alpha == pytest.approx(-0.5)
        assert params(BranchRegime("gamma")).alpha == 0.0
        p = params(BranchRegime("poisson"))
        assert p.alpha == p.gamma
        p = params(BranchRegime("binomial", b=4))
        assert p.alpha == pytest.approx(p.gamma + 0.25)

    def test_pin_applies_before_validation(self):
        # raw alpha 3.3 > gamma 3 is no binomial law (1/0.3 is not an
        # integer); every pin discards it, so no pinned stratum may raise
        link = FrailtyLink.for_factor(["a"], zeta0=3.3, kappa0=math.log(3.0))

        def params(regime):
            spec = ModelSpec(units=("u",), baselines={"u": ExponentialBaseline(0.1)},
                             frailty_link=link, branch_regimes={"a": regime})
            return spec.frailty_params("a")

        assert params(BranchRegime("poisson")).alpha == pytest.approx(3.0)
        assert params(BranchRegime("gamma")).alpha == 0.0
        assert params(BranchRegime("binomial", b=2)).alpha == pytest.approx(3.5)
        with pytest.raises(InvalidRegion):
            params(BranchRegime("free"))      # free needs alpha < gamma

    def test_regime_validation(self):
        with pytest.raises(InvalidParameters):
            BranchRegime("binomial")          # b required
        with pytest.raises(InvalidParameters):
            BranchRegime("free", b=3)
        with pytest.raises(InvalidParameters):
            BranchRegime("exotic")

    def test_stratified_baselines_keying(self):
        link = FrailtyLink.for_factor(["m", "f"], reference="m")
        baselines = {
            (lvl, "u"): ExponentialBaseline(0.1 * (i + 1))
            for i, lvl in enumerate(("m", "f"))
        }
        spec = ModelSpec(units=("u",), baselines=baselines, frailty_link=link,
                         stratified_baselines=True)
        assert spec.baseline_for("f", "u").rate == pytest.approx(0.2)
        with pytest.raises(InvalidParameters):
            ModelSpec(units=("u",), baselines={("m", "u"): ExponentialBaseline(0.1)},
                      frailty_link=link, stratified_baselines=True)
