"""Synthetic data generator: laws, determinism, substream stability."""

import math

import numpy as np
import pytest
from scipy import stats

from addamsfrailty import (
    AddamsParameters,
    ExponentialBaseline,
    FrailtyLink,
    LinearPredictor,
    ModelSpec,
    MonitoringLaw,
    PiecewiseConstantBaseline,
    SimConfig,
    classify_branch,
    generate,
    laplace,
    sample_event_time,
    sample_frailty,
)
from addamsfrailty.errors import InvalidParameters


def spec_of(alpha=-1.0, gamma=5.0, units=("u1", "u2")):
    link = FrailtyLink.for_factor(["s"], zeta0=alpha, kappa0=math.log(gamma))
    return ModelSpec(
        units=tuple(units),
        baselines={u: ExponentialBaseline(0.04) for u in units},
        frailty_link=link,
    )


class TestSampleFrailty:
    @pytest.mark.parametrize("params", [
        AddamsParameters(-1.0, 5.0, 1.0),
        AddamsParameters(-0.3, 2.0, 1.5),
        AddamsParameters(0.0, 3.0, 0.8),
        AddamsParameters(1.0, 2.0, 1.0),
        AddamsParameters(2.0, 2.0, 1.0),
        AddamsParameters(2.5, 2.0, 0.6),
    ])
    def test_moments_match_family(self, params):
        # E(Z) = mu, Var(Z) = gamma mu^2 (RFV at time zero)
        branch = classify_branch(params)
        rng = np.random.default_rng(99)
        draws = np.array([sample_frailty(branch, rng) for _ in range(40000)])
        mc_se_mean = draws.std() / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(params.mu, abs=4 * mc_se_mean)
        var_target = params.gamma * params.mu ** 2
        mc_se_var = np.var((draws - draws.mean()) ** 2) ** 0.5 / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(var_target, abs=4 * mc_se_var + 1e-9)

    def test_support_is_lattice_for_discrete_branches(self):
        branch = classify_branch(AddamsParameters(-1.0, 3.0, 2.0))
        rng = np.random.default_rng(3)
        draws = [sample_frailty(branch, rng) for _ in range(200)]
        shift, psi = branch.psi * branch.nu, branch.psi
        ms = [(z - shift) / psi for z in draws]
        assert all(abs(m - round(m)) < 1e-9 for m in ms)

    def test_cure_fraction_frequency(self):
        params = AddamsParameters(1.0, 2.0, 1.0)
        branch = classify_branch(params)
        rng = np.random.default_rng(11)
        draws = np.array([sample_frailty(branch, rng) for _ in range(20000)])
        p_zero = float(np.mean(draws == 0.0))
        expected = laplace(params, 1e12)   # L(inf) = P(Z = 0)
        assert p_zero == pytest.approx(expected, abs=4 * math.sqrt(expected / 20000))


class TestSampleEventTime:
    def test_zero_frailty_never_fails(self):
        rng = np.random.default_rng(0)
        t = sample_event_time(0.0, ExponentialBaseline(0.1), 1.0, rng)
        assert t == math.inf

    def test_negative_frailty_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameters):
            sample_event_time(-0.1, ExponentialBaseline(0.1), 1.0, rng)

    def test_array_draws(self):
        # one uniform per entry, inf exactly where the frailty is zero
        z = np.array([0.0, 0.5, 0.0, 2.0])
        factor = np.array([1.0, 1.0, 3.0, 0.5])
        base = PiecewiseConstantBaseline((0.0, 10.0), (0.02, 0.2))
        times = sample_event_time(z, base, factor, np.random.default_rng(5))
        assert times.shape == (4,)
        assert np.isinf(times[[0, 2]]).all() and np.isfinite(times[[1, 3]]).all()
        u = 1.0 - np.random.default_rng(5).random(4)
        np.testing.assert_allclose(base.cumulative(times[[1, 3]]) * z[[1, 3]] * factor[[1, 3]],
                                   -np.log(u[[1, 3]]), rtol=1e-12)

    def test_conditional_law_kolmogorov_smirnov(self):
        # given z, T ~ survival exp(-z Lambda0(t)); exponential baseline
        rng = np.random.default_rng(42)
        z, rate = 1.7, 0.04
        base = ExponentialBaseline(rate)
        draws = [sample_event_time(z, base, 1.0, rng) for _ in range(5000)]
        _, p = stats.kstest(draws, "expon", args=(0.0, 1.0 / (z * rate)))
        assert p > 0.01

    def test_piecewise_baseline_law(self):
        rng = np.random.default_rng(7)
        base = PiecewiseConstantBaseline((0.0, 10.0), (0.02, 0.2))
        z = 0.8
        draws = np.array([sample_event_time(z, base, 1.0, rng) for _ in range(20000)])
        # P(T > t) = exp(-z Lambda0(t)) at a few fixed points
        for t in (5.0, 10.0, 15.0):
            expected = math.exp(-z * float(base.cumulative(t)))
            observed = float(np.mean(draws > t))
            se = math.sqrt(expected * (1 - expected) / draws.size)
            assert observed == pytest.approx(expected, abs=4 * se)


class TestGenerate:
    def test_deterministic_given_seed(self):
        config = SimConfig(spec=spec_of(), n_clusters=50, seed=123,
                           monitoring=MonitoringLaw("uniform", a=1.0, b=60.0))
        d1, d2 = generate(config), generate(config)
        assert d1 == d2

    def test_different_seeds_differ(self):
        base = dict(spec=spec_of(), n_clusters=50,
                    monitoring=MonitoringLaw("uniform", a=1.0, b=60.0))
        assert generate(SimConfig(seed=1, **base)) != generate(SimConfig(seed=2, **base))

    def test_substreams_stable_under_cluster_count(self):
        # cluster i is identical whether 50 or 200 clusters are generated
        base = dict(spec=spec_of(), seed=9,
                    monitoring=MonitoringLaw("uniform", a=1.0, b=60.0))
        small = generate(SimConfig(n_clusters=50, **base))
        large = generate(SimConfig(n_clusters=200, **base))
        assert small.clusters == large.clusters[:50]

    def test_substreams_stable_across_blocks(self):
        # 1,000 and 2,600 clusters: the larger run crosses two block
        # boundaries, and its first 1,000 clusters are the smaller run
        link = FrailtyLink.for_factor(["a", "b"], zeta0=-1.0, kappa0=math.log(4.0))
        spec = ModelSpec(units=("u1", "u2"),
                         baselines={"u1": ExponentialBaseline(0.04),
                                    "u2": PiecewiseConstantBaseline((0.0, 30.0), (0.03, 0.05))},
                         frailty_link=link,
                         predictors={"u2": LinearPredictor(("x",), (0.7,))})
        base = dict(spec=spec, seed=21, stratum_probs={"a": 0.3, "b": 0.7},
                    monitoring=MonitoringLaw("uniform", a=1.0, b=60.0))
        small = generate(SimConfig(n_clusters=1000, **base))
        large = generate(SimConfig(n_clusters=2600, **base))
        rows = small.starts[-1]
        assert small.cluster_ids == large.cluster_ids[:1000]
        np.testing.assert_array_equal(np.take(small.stratum_names, small.stratum),
                                      np.take(large.stratum_names, large.stratum[:1000]))
        np.testing.assert_array_equal(small.cluster, large.cluster[:rows])
        np.testing.assert_array_equal(small.unit, large.unit[:rows])
        np.testing.assert_array_equal(small.time, large.time[:rows])
        np.testing.assert_array_equal(small.event, large.event[:rows])
        assert small.covariate_names == large.covariate_names == ("x",)
        np.testing.assert_array_equal(small.covariates, large.covariates[:rows])
        np.testing.assert_array_equal(small.present, large.present[:rows])
        # both strata occur, and in the later blocks too
        assert set(large.stratum[1000:].tolist()) == {0, 1}

    def test_covariate_effect(self):
        # x ~ N(0, 1), and P(event at t | x) = 1 - L(Lambda0(t) exp(0.7 x))
        params = AddamsParameters(-1.0, 5.0)
        rate, t_mon, beta = 0.04, 20.0, 0.7
        link = FrailtyLink.for_factor(["s"], zeta0=-1.0, kappa0=math.log(5.0))
        spec = ModelSpec(units=("u1",), baselines={"u1": ExponentialBaseline(rate)},
                         frailty_link=link, predictors={"u1": LinearPredictor(("x",), (beta,))})
        data = generate(SimConfig(spec=spec, n_clusters=20000, seed=8,
                                  monitoring=MonitoringLaw("grid", times=(t_mon,))))
        assert data.covariate_names == ("x",) and data.present.all()
        x = data.covariates[:, 0]
        _, p = stats.kstest(x, "norm")
        assert p > 0.01
        np.testing.assert_array_equal(data.time, t_mon)
        prob = 1.0 - laplace(params, rate * t_mon * np.exp(beta * x))
        edges = np.quantile(x, np.linspace(0.0, 1.0, 9))
        for lo, hi in zip(edges[:-1], edges[1:]):
            in_bin = (x >= lo) & (x <= hi)
            expected = prob[in_bin].mean()
            se = math.sqrt(np.sum(prob[in_bin] * (1.0 - prob[in_bin]))) / in_bin.sum()
            assert data.event[in_bin].mean() == pytest.approx(expected, abs=4 * se)

    def test_marginal_prevalence_matches_laplace(self):
        # empirical event fraction at fixed monitoring age vs 1 - L(Lambda(t))
        params = AddamsParameters(-1.0, 5.0)
        t_mon = 25.0
        config = SimConfig(
            spec=spec_of(), n_clusters=20000, seed=31,
            monitoring=MonitoringLaw("grid", times=(t_mon,)),
        )
        data = generate(config)
        events = data.event[data.unit == data.unit_names.index("u1")]
        expected = 1.0 - laplace(params, 0.04 * t_mon)
        se = math.sqrt(expected * (1 - expected) / events.size)
        assert events.mean() == pytest.approx(expected, abs=3.5 * se)

    def test_stratum_probabilities(self):
        link = FrailtyLink.for_factor(["a", "b"], zeta0=-1.0, kappa0=math.log(4.0))
        spec = ModelSpec(units=("u1",),
                         baselines={"u1": ExponentialBaseline(0.04)},
                         frailty_link=link)
        config = SimConfig(spec=spec, n_clusters=4000, seed=2,
                           stratum_probs={"a": 0.25, "b": 0.75})
        data = generate(config)
        share_a = np.mean(data.stratum == data.stratum_names.index("a"))
        assert share_a == pytest.approx(0.25, abs=0.03)
        with pytest.raises(InvalidParameters):
            SimConfig(spec=spec, n_clusters=10, stratum_probs={"a": 0.5, "b": 0.6})

    @pytest.mark.parametrize("probs", [
        {"a": 1.5, "b": -0.5}, {"a": math.nan, "b": 0.5}, {"a": math.inf, "b": -math.inf},
    ])
    def test_stratum_probabilities_must_be_finite_and_non_negative(self, probs):
        link = FrailtyLink.for_factor(["a", "b"], zeta0=-1.0, kappa0=math.log(4.0))
        spec = ModelSpec(units=("u1",), baselines={"u1": ExponentialBaseline(0.04)},
                         frailty_link=link)
        with pytest.raises(InvalidParameters):
            SimConfig(spec=spec, n_clusters=10, stratum_probs=probs)

    def test_monitoring_law_validation(self):
        with pytest.raises(InvalidParameters):
            MonitoringLaw("uniform", a=5.0, b=2.0)
        with pytest.raises(InvalidParameters):
            MonitoringLaw("grid", times=())
        with pytest.raises(InvalidParameters):
            MonitoringLaw("poisson")
