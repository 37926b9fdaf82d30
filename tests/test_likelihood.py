"""Cluster marginal likelihood: closed forms, oracles, vectorized path."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

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
    ParameterLayout,
    PiecewiseConstantBaseline,
    UnitRecord,
    WeibullBaseline,
    cluster_loglik,
    laplace,
    read_csv,
    write_csv,
)
from addamsfrailty.hazard import BranchRegime
from addamsfrailty import likelihood
from addamsfrailty.errors import FrailtyModelError, MissingCovariate, NonFiniteEvaluation

from conftest import random_triples
from oracles import numeric_gradient, oracle_cluster_prob, scalar_cluster_loglik, score_hessian

# log P values recomputed by the series/quadrature cluster oracle and frozen;
# configuration: rates below, J = 2, times (10, 25), events (1, 0)
FROZEN_CLUSTER = [
    # (alpha, gamma, mu, expected log-probability)
    (-1.0, 5.0, 1.0, -2.726143668010917),
    (0.0, 5.0, 1.0, -2.926376414322408),
    (2.0, 2.0, 1.0, -2.8462865929723864),
    (4.5, 4.0, 0.7, -3.671187251930517),
]

RATES = {"u1": 0.03, "u2": 0.02}


def single_stratum_spec(alpha, gamma, mu=1.0, units=("u1", "u2"), regime=None):
    from addamsfrailty.hazard import BranchRegime

    if regime is None and alpha >= gamma:
        if alpha == gamma:
            regime = BranchRegime("poisson")
        else:
            regime = BranchRegime("binomial", b=round(1.0 / (alpha - gamma)))
    link = FrailtyLink.for_factor(["s"], zeta0=alpha, kappa0=math.log(gamma))
    if mu != 1.0:
        link = FrailtyLink(
            design={"s": (1.0,)}, zeta=(alpha,), kappa=(math.log(gamma),),
            beta0=(math.log(mu),), reference="s", pin_reference_mu=False,
        )
    regimes = {"s": regime} if regime is not None else {}
    return ModelSpec(
        units=tuple(units),
        baselines={u: ExponentialBaseline(RATES.get(u, 0.05)) for u in units},
        frailty_link=link,
        branch_regimes=regimes,
    )


def cluster_of(times, events, cid="c", weight=1.0):
    return Cluster(
        cluster_id=cid,
        records=tuple(
            UnitRecord(f"u{i + 1}", t, d) for i, (t, d) in enumerate(zip(times, events))
        ),
        weight=weight,
    )


class TestClosedForms:
    def test_single_unit_event_and_no_event(self):
        # J = 1: P(no event) = L(Lambda), P(event) = 1 - L(Lambda)
        spec = single_stratum_spec(-1.0, 5.0, units=("u1",))
        p = AddamsParameters(-1.0, 5.0)
        lam = 0.03 * 10.0
        no_event = cluster_loglik(spec, cluster_of([10.0], [0]))
        event = cluster_loglik(spec, cluster_of([10.0], [1]))
        assert no_event == pytest.approx(math.log(laplace(p, lam)), rel=1e-12)
        assert event == pytest.approx(math.log(1.0 - laplace(p, lam)), rel=1e-12)

    def test_two_units_inclusion_exclusion(self):
        spec = single_stratum_spec(-0.5, 2.0)
        p = AddamsParameters(-0.5, 2.0)
        lam1, lam2 = 0.03 * 10.0, 0.02 * 25.0
        # both events: 1 - L(l1) - L(l2) + L(l1 + l2)
        both = cluster_loglik(spec, cluster_of([10.0, 25.0], [1, 1]))
        expected = 1.0 - laplace(p, lam1) - laplace(p, lam2) + laplace(p, lam1 + lam2)
        assert both == pytest.approx(math.log(expected), rel=1e-10)
        # event in unit 1 only: L(l2) - L(l1 + l2)
        one = cluster_loglik(spec, cluster_of([10.0, 25.0], [1, 0]))
        expected = laplace(p, lam2) - laplace(p, lam1 + lam2)
        assert one == pytest.approx(math.log(expected), rel=1e-10)

    @pytest.mark.parametrize("alpha,gamma,mu,expected", FROZEN_CLUSTER)
    def test_frozen_oracle_values(self, alpha, gamma, mu, expected):
        spec = single_stratum_spec(alpha, gamma, mu)
        got = cluster_loglik(spec, cluster_of([10.0, 25.0], [1, 0]))
        assert got == pytest.approx(expected, rel=1e-9)


class TestOracleEquivalence:
    @staticmethod
    def _condition(alpha, gamma, mu, lams, events, prob):
        # inclusion-exclusion condition number: sum |terms| / |result|
        p = AddamsParameters(alpha, gamma, mu)
        event_lams = [l for l, d in zip(lams, events) if d]
        rest = sum(l for l, d in zip(lams, events) if not d)
        total = 0.0
        for mask in range(1 << len(event_lams)):
            s = rest + sum(
                l for i, l in enumerate(event_lams) if mask >> i & 1
            )
            total += laplace(p, s)
        return total / prob if prob > 0 else math.inf

    def test_random_configurations_all_branches(self, rng):
        # >= 100 configurations spanning |d| in 0..7; the alternating sum
        # cannot beat its own conditioning, so heavily cancelling patterns
        # get a proportionally wider tolerance
        checked = 0
        for branch in ("negative", "zero", "interior", "poisson", "binomial"):
            for alpha, gamma, mu in random_triples(rng, branch, 30):
                n_units = int(rng.integers(1, 8))
                units = tuple(f"u{i + 1}" for i in range(n_units))
                spec = single_stratum_spec(alpha, gamma, mu, units=units)
                times = rng.uniform(1.0, 60.0, size=n_units)
                events = (rng.random(n_units) < 0.5).astype(int)
                lams = [RATES.get(u, 0.05) * t for u, t in zip(units, times)]
                expected = oracle_cluster_prob(alpha, gamma, mu, lams, list(events))
                cond = self._condition(alpha, gamma, mu, lams, list(events), expected)
                tol = max(1e-8, 200.0 * 2.3e-16 * cond)
                got = cluster_loglik(spec, cluster_of(list(times), list(events)))
                assert got == pytest.approx(math.log(expected), rel=tol), (
                    branch, alpha, gamma, mu, list(times), list(events), cond
                )
                if cond < 1e6:
                    checked += 1
        assert checked >= 100

    def test_total_probability_over_patterns(self, rng):
        # sum over all 2^J outcome patterns must be exactly one
        for branch in ("negative", "zero", "poisson"):
            alpha, gamma, mu = random_triples(rng, branch, 1)[0]
            for n_units in (1, 2, 3, 4):
                units = tuple(f"u{i + 1}" for i in range(n_units))
                spec = single_stratum_spec(alpha, gamma, mu, units=units)
                times = list(rng.uniform(1.0, 60.0, size=n_units))
                total = 0.0
                for events in itertools.product((0, 1), repeat=n_units):
                    total += math.exp(
                        cluster_loglik(spec, cluster_of(times, list(events)))
                    )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_vanishing_heterogeneity_gives_independence(self):
        # gamma -> 0: cluster probability factorizes over units
        spec = single_stratum_spec(0.0, 1e-8)
        got = cluster_loglik(spec, cluster_of([10.0, 25.0], [1, 0]))
        lam1, lam2 = 0.3, 0.5
        independent = math.log1p(-math.exp(-lam1)) - lam2
        assert got == pytest.approx(independent, rel=1e-6)


class TestWorkspace:
    def build_data(self, rng, n=60, stratified=True):
        clusters = []
        for i in range(n):
            n_units = int(rng.integers(1, 3))
            records = tuple(
                UnitRecord(f"u{j + 1}", float(rng.uniform(1, 60)), int(rng.random() < 0.5))
                for j in range(n_units)
            )
            # u1 always present so every cluster is scorable
            if not any(r.unit == "u1" for r in records):
                records = (UnitRecord("u1", 5.0, 0),) + records
            clusters.append(Cluster(
                cluster_id=f"c{i}",
                records=records,
                stratum=("m" if i % 2 else "f") if stratified else None,
                weight=float(rng.uniform(0.5, 2.0)),
            ))
        return CurrentStatusDataset(tuple(clusters))

    def two_stratum_spec(self):
        link = FrailtyLink.for_factor(["f", "m"], reference="f",
                                      zeta0=-0.8, kappa0=math.log(3.0))
        return ModelSpec(
            units=("u1", "u2"),
            baselines={
                "u1": PiecewiseConstantBaseline((0.0, 30.0), (0.03, 0.05)),
                "u2": ExponentialBaseline(0.02),
            },
            frailty_link=link,
        )

    def test_vectorized_matches_scalar(self, rng):
        spec = self.two_stratum_spec()
        data = self.build_data(rng)
        ws = LikelihoodWorkspace(spec, data)
        scalar = sum(
            c.weight * scalar_cluster_loglik(spec, c) for c in data.clusters
        )
        assert ws.total_loglik(spec) == pytest.approx(scalar, rel=1e-12)

    def test_weights_scale_contributions(self, rng):
        spec = self.two_stratum_spec()
        data = self.build_data(rng, n=20)
        doubled = CurrentStatusDataset(tuple(
            Cluster(c.cluster_id, c.records, c.stratum, 2.0 * c.weight)
            for c in data.clusters
        ))
        assert LikelihoodWorkspace(spec, doubled).total_loglik(spec) == pytest.approx(
            2.0 * LikelihoodWorkspace(spec, data).total_loglik(spec), rel=1e-12
        )

    def test_workspace_reusable_across_parameter_values(self, rng):
        # recompute from a fresh workspace at new parameters: identical
        spec = self.two_stratum_spec()
        data = self.build_data(rng, n=30)
        ws = LikelihoodWorkspace(spec, data)
        import dataclasses
        link2 = dataclasses.replace(spec.frailty_link, zeta=(-0.4, 0.1))
        spec2 = dataclasses.replace(spec, frailty_link=link2)
        assert ws.total_loglik(spec2) == pytest.approx(
            LikelihoodWorkspace(spec2, data).total_loglik(spec2), rel=1e-14
        )
        # and the original value is unchanged by the detour
        assert ws.total_loglik(spec) == pytest.approx(
            LikelihoodWorkspace(spec, data).total_loglik(spec), rel=1e-14
        )


def score_data(rng, n, strata=("s",), covariate=False):
    """Random clusters of one to three units with weights and strata."""
    clusters = []
    for i in range(n):
        units = [u for u in ("u1", "u2", "u3") if rng.random() < 0.7] or ["u1"]
        records = tuple(
            UnitRecord(u, float(rng.uniform(1.0, 70.0)), int(rng.random() < 0.45),
                       {"x": float(rng.normal())} if covariate else {})
            for u in units
        )
        clusters.append(Cluster(
            cluster_id=f"c{i}", records=records,
            stratum=strata[i % len(strata)], weight=float(rng.uniform(0.5, 2.0)),
        ))
    return CurrentStatusDataset(tuple(clusters))


def score_spec(alpha=-1.0, gamma=3.0, regime="free", b=None, baseline=None,
               covariate=False, strata=("s",), stratified=False):
    units = ("u1", "u2", "u3")
    if baseline is None:
        baseline = lambda i: PiecewiseConstantBaseline((0.0, 20.0, 45.0), (0.02, 0.03 + 0.01 * i, 0.05))
    # a pinned regime ignores zeta; keep the fit's default start there
    zeta0 = alpha if regime == "free" else -0.1
    link = FrailtyLink.for_factor(strata, zeta0=zeta0, kappa0=math.log(gamma))
    if len(strata) > 1:
        link = dataclasses.replace(link, zeta=(alpha, 0.3), kappa=(math.log(gamma), -0.2),
                                   beta0=(0.0, -0.4))
    if stratified:
        link = dataclasses.replace(link, beta0_free=(False,) * len(strata))
        baselines = {(lvl, u): baseline(i + k) for k, lvl in enumerate(strata)
                     for i, u in enumerate(units)}
    else:
        baselines = {u: baseline(i) for i, u in enumerate(units)}
    predictors = {"u2": LinearPredictor(("x",), (0.4,))} if covariate else {}
    return ModelSpec(
        units=units, baselines=baselines, frailty_link=link, predictors=predictors,
        branch_regimes={lvl: BranchRegime(regime, b) for lvl in strata},
        stratified_baselines=stratified,
    )


def richardson_gradient(f, theta, h=1e-4):
    coarse = numeric_gradient(f, theta, abs_step=h, rel_step=0.0)
    fine = numeric_gradient(f, theta, abs_step=h / 2.0, rel_step=0.0)
    return (4.0 * fine - coarse) / 3.0


class TestScore:
    """The analytic score against Richardson central differences."""

    def check(self, spec, data, theta=None, rtol=1e-9):
        layout = ParameterLayout(spec)
        theta = layout.free_vector() if theta is None else theta
        ws = LikelihoodWorkspace(spec, data)
        value, score = ws.loglik_and_score(layout, theta)
        assert value == ws.total_loglik(layout.build_spec(theta))
        reference = richardson_gradient(
            lambda th: ws.total_loglik(layout.build_spec(th)), theta)
        np.testing.assert_allclose(score, reference, rtol=rtol,
                                   atol=rtol * np.abs(reference).max())
        return score

    @pytest.mark.parametrize("alpha,gamma,regime,b", [
        (-1.0, 3.0, "free", None),        # negative branch
        (0.0, 3.0, "gamma", None),        # gamma-pinned
        (4e-7, 3.0, "free", None),        # alpha near the gamma limit
        (1.2, 3.0, "free", None),         # interior, cure fraction
        (3.0, 3.0, "poisson", None),      # poisson-pinned
        (3.5, 3.0, "binomial", 2),        # binomial-pinned
    ])
    def test_every_regime(self, rng, alpha, gamma, regime, b):
        spec = score_spec(alpha, gamma, regime, b)
        # the pinned cure branches' values carry about 5e-12 of round-off,
        # ten or more times the other branches', which the Richardson
        # reference divides by its 1e-4 step: they are held to what it resolves
        rtol = 1e-7 if regime in ("poisson", "binomial") else 1e-9
        self.check(spec, score_data(rng, 120), rtol=rtol)

    # Weibull and generalized gamma baselines are differenced in their
    # log-parameters (``hazard._central_jacobian``), with an O(1e-8) error of their own
    @pytest.mark.parametrize("baseline,rtol", [
        (lambda i: PiecewiseConstantBaseline((0.0, 20.0, 45.0), (0.02, 0.03 + 0.01 * i, 0.05)),
         1e-9),
        (lambda i: ExponentialBaseline(0.02 + 0.01 * i), 1e-9),
        (lambda i: WeibullBaseline(1.3 + 0.2 * i, 40.0), 1e-7),
        (lambda i: GeneralizedGammaBaseline(1.2, 0.8 + 0.3 * i, 30.0), 1e-7),
    ], ids=["piecewise", "exponential", "weibull", "gengamma"])
    def test_every_baseline_family(self, rng, baseline, rtol):
        self.check(score_spec(baseline=baseline), score_data(rng, 120), rtol=rtol)

    def test_covariates(self, rng):
        self.check(score_spec(covariate=True), score_data(rng, 120, covariate=True))

    def test_stratified_baselines(self, rng):
        strata = ("f", "m")
        spec = score_spec(strata=strata, stratified=True)
        self.check(spec, score_data(rng, 160, strata=strata))

    def test_two_stratum_factor_link(self, rng):
        strata = ("f", "m")
        spec = score_spec(strata=strata)
        layout = ParameterLayout(spec)
        score = self.check(spec, score_data(rng, 160, strata=strata))
        free = dict(zip(layout.free_names, score))
        assert {"zeta[1]", "kappa[1]", "beta0[1]"} <= set(free)

    def test_pinned_reference_mu(self, rng):
        # with the mu intercept free, mu of the reference stratum stays
        # pinned at 1 while the other stratum's moves with it
        strata = ("f", "m")
        spec = score_spec(strata=strata)
        spec = dataclasses.replace(spec, frailty_link=dataclasses.replace(
            spec.frailty_link, beta0_free=(True, True)))
        assert "beta0[0]" in ParameterLayout(spec).free_names
        self.check(spec, score_data(rng, 160, strata=strata))

    def test_clamped_cluster_contributes_nothing(self, rng):
        # two events at hazards ~1e-10: 1 - L(a) - L(b) + L(a + b) is lost to
        # round-off and clamped, while its derivatives are not zero
        spec = score_spec(alpha=-1.0, gamma=3.0)
        data = score_data(rng, 80)
        layout = ParameterLayout(spec)
        ws = LikelihoodWorkspace(spec, data)
        clean = ws.loglik_and_score(layout, layout.free_vector())[1]
        degenerate = Cluster("clamped", (UnitRecord("u1", 1e-8, 1), UnitRecord("u2", 1.7e-8, 1)))
        ws = LikelihoodWorkspace(spec, CurrentStatusDataset(data.clusters + (degenerate,)))
        before = likelihood.diagnostics.clamped_probabilities
        value, score = ws.loglik_and_score(layout, layout.free_vector())
        assert likelihood.diagnostics.clamped_probabilities > before
        assert math.isfinite(value)
        np.testing.assert_array_equal(score, clean)

    @pytest.mark.parametrize("regime,b", [("poisson", None), ("binomial", 2)])
    def test_pinned_stratum_link_score(self, rng, regime, b):
        # stratum "m" pins alpha to gamma (+ 1/b), so zeta does not reach
        # it while kappa moves alpha with gamma; "f" keeps zeta free, and
        # zeta[1], which loads on "m" alone, is not estimated
        strata = ("f", "m")
        spec = dataclasses.replace(
            score_spec(strata=strata),
            branch_regimes={"f": BranchRegime("free"), "m": BranchRegime(regime, b)},
        )
        layout = ParameterLayout(spec)
        assert "zeta[1]" not in layout.free_names
        theta = layout.free_vector()
        ws = LikelihoodWorkspace(spec, score_data(rng, 120, strata=("m",)))
        score = dict(zip(layout.free_names, ws.loglik_and_score(layout, theta)[1]))
        assert score["zeta[0]"] == 0.0
        kappa = [layout.free_names.index(name) for name in ("kappa[0]", "kappa[1]")]

        def f_kappa(sub):
            th = theta.copy()
            th[kappa] = sub
            return ws.total_loglik(layout.build_spec(th))

        reference = richardson_gradient(f_kappa, theta[kappa])
        assert reference[0] != 0.0
        np.testing.assert_allclose([score["kappa[0]"], score["kappa[1]"]], reference,
                                   rtol=1e-7)

    def test_infeasible_link_step(self, rng):
        # alpha sits 5e-5 below gamma = 0.01: a +h step on zeta leaves
        # alpha < gamma, while (gamma - alpha) / gamma stays large enough
        # for log L to keep its digits
        gamma = 0.01
        spec = score_spec(alpha=gamma - 5e-5, gamma=gamma)
        layout = ParameterLayout(spec)
        theta = layout.free_vector()
        ws = LikelihoodWorkspace(spec, score_data(rng, 120))
        zeta = layout.free_names.index("zeta[0]")
        with pytest.raises(FrailtyModelError):
            layout.build_spec(theta + 1e-4 * (np.arange(theta.size) == zeta)).frailty_params("s")
        score = ws.loglik_and_score(layout, theta)[1]
        f = lambda th: ws.total_loglik(layout.build_spec(th))
        others = np.arange(theta.size) != zeta

        def f_others(sub):
            th = theta.copy()
            th[others] = sub
            return f(th)

        def backward(h):
            # f'(x) ~ (3 f(x) - 4 f(x - h) + f(x - 2h)) / (2h), error O(h^2)
            step = h * (np.arange(theta.size) == zeta)
            return (3.0 * f(theta) - 4.0 * f(theta - step) + f(theta - 2.0 * step)) / (2.0 * h)

        reference = np.empty(theta.size)
        reference[others] = richardson_gradient(f_others, theta[others])
        reference[zeta] = (4.0 * backward(5e-4) - backward(1e-3)) / 3.0
        np.testing.assert_allclose(score, reference, rtol=1e-6,
                                   atol=1e-6 * np.abs(reference).max())


GROUPING_UNITS = ("u1", "u2", "u3", "u4", "u5")
GROUPING_STRATA = ("f", "m")


def grouping_spec():
    """Five units, two frailty strata, a covariate on u2."""
    link = FrailtyLink.for_factor(GROUPING_STRATA, zeta0=-0.8, kappa0=math.log(2.0))
    link = dataclasses.replace(link, zeta=(-0.8, 0.4), kappa=(math.log(2.0), -0.3),
                               beta0=(0.0, -0.3))
    return ModelSpec(
        units=GROUPING_UNITS,
        baselines={u: PiecewiseConstantBaseline((0.0, 20.0, 45.0), (0.02, 0.02 + 0.005 * i, 0.03))
                   for i, u in enumerate(GROUPING_UNITS)},
        frailty_link=link,
        predictors={"u2": LinearPredictor(("x",), (0.4,))},
    )


def grouping_data(rng, n=240):
    """Clusters over two strata and three unit sets (all five units, no u5,
    no u3), with event counts cycling through 0..|units| and random event
    units, so each count holds several patterns."""
    clusters = []
    for i in range(n):
        dropped = (None, "u5", "u3")[(i // 2) % 3]
        units = [u for u in GROUPING_UNITS if u != dropped]
        k = (i // 6) % (len(units) + 1)
        event_units = set(rng.choice(units, size=k, replace=False))
        records = tuple(
            UnitRecord(u, float(rng.uniform(10.0, 70.0)), int(u in event_units),
                       {"x": float(rng.normal())} if u == "u2" else {})
            for u in units
        )
        clusters.append(Cluster(
            cluster_id=f"c{i}", records=records, stratum=GROUPING_STRATA[i % 2],
            weight=float(rng.uniform(0.5, 2.0)),
        ))
    return CurrentStatusDataset(tuple(clusters))


class TestEventCountGrouping:
    """Clusters of several unit sets and event counts in two strata: the
    workspace holds all of a stratum's inclusion-exclusion terms in one
    vector, so a pass makes one kernel call per stratum level."""

    @staticmethod
    def keys(data):
        units = {(c.stratum, tuple(r.unit for r in c.records)) for c in data.clusters}
        events = {c.cluster_id: tuple(r.unit for r in c.records if r.event == 1)
                  for c in data.clusters}
        counts = {(c.stratum, tuple(r.unit for r in c.records), len(events[c.cluster_id]))
                  for c in data.clusters}
        patterns = {(c.stratum, tuple(r.unit for r in c.records), events[c.cluster_id])
                    for c in data.clusters}
        return units, counts, patterns

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(likelihood, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(likelihood, name, counted)
        return calls

    def test_cluster_logliks_match_scalar(self, rng):
        spec = grouping_spec()
        data = grouping_data(rng)
        got = LikelihoodWorkspace(spec, data).cluster_logliks(spec)
        expected = [scalar_cluster_loglik(spec, c) for c in data.clusters]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_score_matches_central_differences(self, rng):
        TestScore().check(grouping_spec(), grouping_data(rng))

    def test_clamped_cluster_contributes_nothing(self, rng):
        # u1 and u2 have the event at hazards ~1e-10 and the other units
        # none: the sum is lost to round-off and clamped; the cluster shares
        # its group with the two-event clusters of the same unit set
        spec = grouping_spec()
        data = grouping_data(rng)
        layout = ParameterLayout(spec)
        theta = layout.free_vector()
        clean = LikelihoodWorkspace(spec, data).loglik_and_score(layout, theta)[1]
        degenerate = Cluster("clamped", tuple(
            UnitRecord(u, t, int(u in ("u1", "u2")), {"x": 0.3} if u == "u2" else {})
            for u, t in zip(GROUPING_UNITS, (1e-8, 1.7e-8, 1e-8, 2e-8, 1e-8))
        ), stratum="f")
        grown = CurrentStatusDataset(data.clusters + (degenerate,))
        assert self.keys(grown)[1] == self.keys(data)[1]
        ws = LikelihoodWorkspace(spec, grown)
        before = likelihood.diagnostics.clamped_probabilities
        value, score = ws.loglik_and_score(layout, theta)
        assert likelihood.diagnostics.clamped_probabilities > before
        assert math.isfinite(value)
        np.testing.assert_allclose(score, clean, rtol=1e-13, atol=0.0)

    def test_one_kernel_call_per_level(self, rng, monkeypatch):
        spec = grouping_spec()
        data = grouping_data(rng)
        units, counts, patterns = self.keys(data)
        assert len(units) == 6  # two strata x three unit sets
        assert {k for _, _, k in counts} == set(range(len(GROUPING_UNITS) + 1))
        for key in counts:
            if 0 < key[2] < len(key[1]):
                assert sum(p[:2] == key[:2] and len(p[2]) == key[2] for p in patterns) >= 2
        ws = LikelihoodWorkspace(spec, data)
        calls = self.counted(monkeypatch, "log_laplace")
        ws.total_loglik(spec)
        assert len(calls) == len(GROUPING_STRATA)

    def test_one_kernel_call_per_level_in_a_score_pass(self, rng, monkeypatch):
        # the link coefficients' partials come from the value's terms: no
        # perturbed transform is evaluated
        spec = grouping_spec()
        layout = ParameterLayout(spec)
        assert {"zeta[0]", "zeta[1]", "kappa[0]", "kappa[1]", "beta0[1]"} <= set(layout.free_names)
        ws = LikelihoodWorkspace(spec, grouping_data(rng))
        calls = self.counted(monkeypatch, "log_laplace")
        partials = self.counted(monkeypatch, "log_laplace_partials")
        ws.loglik_and_score(layout, layout.free_vector())
        assert len(calls) == len(partials) == len(GROUPING_STRATA)


def reference_terms(spec, data):
    """{level: sorted terms} built from the cluster view, a term being
    (cluster position, (-1)^|A|, sorted member (unit, time, covariates))
    for each subset A of the cluster's events; and each level's cluster
    positions in order."""
    terms, members = {}, {}
    for pos, c in enumerate(data.clusters):
        level = c.stratum if c.stratum is not None else spec.frailty_link.reference
        members.setdefault(level, []).append(pos)
        cells = [(r.unit, r.time, tuple(r.covariates[nm] for nm in spec.predictors[r.unit].covariate_names))
                 for r in c.records]
        events = [cell for cell, r in zip(cells, c.records) if r.event == 1]
        rest = [cell for cell, r in zip(cells, c.records) if r.event != 1]
        for size in range(len(events) + 1):
            for subset in itertools.combinations(events, size):
                terms.setdefault(level, []).append(
                    (pos, (-1.0) ** size, tuple(sorted(rest + list(subset)))))
    return {level: sorted(ts) for level, ts in terms.items()}, members


def workspace_terms(level):
    """The same terms read from one level of a workspace's layout."""
    cell = {}
    for block in level.blocks:
        for i in range(block.cells.start, block.cells.stop):
            j = i - block.cells.start
            row = () if block.design is None else tuple(block.design[j])
            cell[i] = (block.unit, block.times[j], row)
    assert sorted(cell) == list(range(level.incidence.shape[1]))
    incidence = level.incidence
    assert np.all(incidence.data == 1.0)
    return sorted(
        (int(level.clusters[level.term_cluster[t]]), float(level.signs[t]),
         tuple(sorted(cell[i] for i in incidence.indices[incidence.indptr[t]:incidence.indptr[t + 1]])))
        for t in range(incidence.shape[0])
    )


class TestColumnarWorkspace:
    """The workspace lays out the dataset's columns as the terms a loop over
    its cluster view would enumerate."""

    @staticmethod
    def check(spec, data):
        ws = LikelihoodWorkspace(spec, data)
        reference, members = reference_terms(spec, data)
        assert sorted(level.name for level in ws.levels) == sorted(reference)
        for level in ws.levels:
            assert level.clusters.tolist() == members[level.name]
            assert level.term_cluster.size == level.incidence.shape[0] == level.signs.size
            got = workspace_terms(level)
            assert got == reference[level.name]
            # 2^k terms per cluster of k events
            per_cluster = np.bincount(level.term_cluster, minlength=level.clusters.size)
            events = [sum(r.event for r in data.clusters[pos].records) for pos in members[level.name]]
            assert per_cluster.tolist() == [1 << k for k in events]
        return ws

    def test_terms_match_reference(self, rng):
        self.check(grouping_spec(), grouping_data(rng))

    def test_interleaved_csv_rows(self, rng, tmp_path):
        # rows of a cluster scattered over the file, units in random order
        data = grouping_data(rng, n=60)
        rows = [(c.cluster_id, r.unit, repr(r.time), str(r.event), c.stratum,
                 repr(r.covariates["x"]) if "x" in r.covariates else "")
                for c in data.clusters for r in c.records]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        f = tmp_path / "d.csv"
        f.write_text("cluster_id,unit,time,event,stratum,x\n"
                     + "".join(",".join(row) + "\n" for row in rows))
        ws = self.check(grouping_spec(), read_csv(f))
        assert ws.n_clusters == len(data)

    def test_missing_covariate_names_first_in_group_order(self):
        # three clusters of one group: the first lacks nothing, the next two
        # lack x on u2; the error names the first of those
        spec = grouping_spec()

        def cluster(cid, covs):
            return Cluster(cid, tuple(UnitRecord(u, 10.0, 0, covs) for u in GROUPING_UNITS),
                           stratum="f")

        data = CurrentStatusDataset([cluster("c1", {"x": 1.0}), cluster("c7", {}),
                                     cluster("c2", {})])
        with pytest.raises(MissingCovariate, match="'c7', unit 'u2'"):
            LikelihoodWorkspace(spec, data)

    def test_missing_covariate_names_first_cluster_over_levels(self):
        # the first cluster of stratum "f" is complete and its second lacks x;
        # the first cluster that lacks x is in stratum "m", between them
        spec = grouping_spec()

        def cluster(cid, covs, stratum):
            return Cluster(cid, tuple(UnitRecord(u, 10.0, 0, covs) for u in GROUPING_UNITS),
                           stratum=stratum)

        data = CurrentStatusDataset([cluster("c1", {"x": 1.0}, "f"), cluster("c5", {}, "m"),
                                     cluster("c2", {}, "f")])
        with pytest.raises(MissingCovariate, match="'c5', unit 'u2'"):
            LikelihoodWorkspace(spec, data)

    @pytest.mark.parametrize("baselines", [
        # other piecewise cutpoints on every unit
        {u: PiecewiseConstantBaseline((0.0, 15.0, 50.0), (0.025, 0.02 + 0.004 * i, 0.035))
         for i, u in enumerate(GROUPING_UNITS)},
        # u3 on a Weibull baseline, the other units on the built grid
        {"u3": WeibullBaseline(1.3, 60.0)},
    ], ids=["cutpoints", "weibull"])
    def test_other_baseline_grid_matches_a_fresh_workspace(self, rng, baselines):
        # a workspace built for one spec evaluates a spec whose baselines its
        # exposure matrices do not fit as a workspace built for that spec
        spec = grouping_spec()
        data = grouping_data(rng)
        ws = LikelihoodWorkspace(spec, data)
        other = dataclasses.replace(spec, baselines={**spec.baselines, **baselines})
        fresh = LikelihoodWorkspace(other, data)
        assert ws.total_loglik(other) == pytest.approx(fresh.total_loglik(other), rel=1e-13)
        layout = ParameterLayout(other)
        theta = layout.free_vector()
        value, score = ws.loglik_and_score(layout, theta)
        fresh_value, fresh_score = fresh.loglik_and_score(layout, theta)
        assert value == pytest.approx(fresh_value, rel=1e-13)
        np.testing.assert_allclose(score, fresh_score, rtol=1e-13,
                                   atol=1e-13 * np.abs(fresh_score).max())

    def test_fit_path_builds_no_cluster_view(self, rng, tmp_path, monkeypatch):
        data = grouping_data(rng, n=40)
        f = tmp_path / "d.csv"
        write_csv(data, f)

        def refuse(self):
            raise AssertionError("cluster view built")

        monkeypatch.setattr(CurrentStatusDataset, "_cluster_view", refuse)
        spec = grouping_spec()
        fresh = read_csv(f)
        layout = ParameterLayout(spec)
        layout.default_init(fresh)
        ws = LikelihoodWorkspace(spec, fresh)
        ws.loglik_and_score(layout, layout.free_vector())
        write_csv(fresh, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == f.read_bytes()


class TestInformation:
    """The observed information -H of an information pass against the
    score-difference Hessian (``oracles.score_hessian``), 2p score passes,
    on the score tests' designs: weights from 0.5 to 2 throughout."""

    def check(self, spec, data, rtol=1e-6, step=1e-4):
        layout = ParameterLayout(spec)
        theta = layout.free_vector()
        ws = LikelihoodWorkspace(spec, data)
        value, score, info = ws.loglik_and_score(layout, theta, information=True)
        # the value and the score are the plain pass's, bit for bit
        plain = ws.loglik_and_score(layout, theta)
        assert value == plain[0] and score.tobytes() == plain[1].tobytes()
        assert info.shape == (theta.size, theta.size) and np.array_equal(info, info.T)

        def negated(th):
            return -ws.loglik_and_score(layout, th)[1]

        if step == 1e-4:
            reference = score_hessian(negated, theta)
        else:
            # Richardson over the steps h and h/2 of the same reference
            reference = (4.0 * score_hessian(negated, theta, step / 2.0)
                         - score_hessian(negated, theta, step)) / 3.0
        scale = np.abs(reference).max()
        np.testing.assert_allclose(info, reference, rtol=0.0, atol=rtol * scale)
        return layout, info

    @pytest.mark.parametrize("alpha,gamma,regime,b", [
        (-1.0, 3.0, "free", None),        # negative branch
        (1.2, 3.0, "free", None),         # interior, cure fraction
        (0.0, 3.0, "gamma", None),        # gamma-pinned
        (3.0, 3.0, "poisson", None),      # poisson-pinned
    ])
    def test_every_regime(self, rng, alpha, gamma, regime, b):
        self.check(score_spec(alpha, gamma, regime, b), score_data(rng, 150))

    def test_binomial(self, rng):
        # a binomial law's cluster probabilities reach 1e-9 here, as
        # differences of Laplace terms near its cure fraction P(Z = 0) =
        # 0.02; their round-off (1e-8 relative) puts about 1e-5 of the
        # largest entry into the reference at the 1e-4 step, so it is
        # differenced at 1e-2 and extrapolated
        self.check(score_spec(3.5, 3.0, "binomial", 2), score_data(rng, 150), step=1e-2)

    @pytest.mark.parametrize("baseline", [
        lambda i: ExponentialBaseline(0.02 + 0.01 * i),
        lambda i: WeibullBaseline(1.3 + 0.2 * i, 40.0),
        lambda i: GeneralizedGammaBaseline(1.2, 0.8 + 0.3 * i, 30.0),
    ], ids=["exponential", "weibull", "gengamma"])
    def test_every_baseline_family(self, rng, baseline):
        self.check(score_spec(baseline=baseline, covariate=True),
                   score_data(rng, 150, covariate=True))

    def test_covariates(self, rng):
        self.check(score_spec(covariate=True), score_data(rng, 150, covariate=True))

    def test_stratified_baselines(self, rng):
        strata = ("f", "m")
        self.check(score_spec(strata=strata, stratified=True, covariate=True),
                   score_data(rng, 160, strata=strata, covariate=True))

    def test_free_reference_mu(self, rng):
        # mu moves in one stratum with beta0[0] and beta0[1]: d2 mu = mu x x'
        strata = ("f", "m")
        spec = score_spec(strata=strata)
        spec = dataclasses.replace(spec, frailty_link=dataclasses.replace(
            spec.frailty_link, beta0_free=(True, True)))
        self.check(spec, score_data(rng, 160, strata=strata))

    @pytest.mark.parametrize("regime,b", [("poisson", None), ("binomial", 2)])
    def test_pinned_stratum(self, rng, regime, b):
        # "m" moves alpha with gamma: d2 alpha = gamma x x' in the kappa block
        strata = ("f", "m")
        spec = dataclasses.replace(
            score_spec(strata=strata),
            branch_regimes={"f": BranchRegime("free"), "m": BranchRegime(regime, b)},
        )
        self.check(spec, score_data(rng, 160, strata=strata))

    def test_many_units_and_events(self, rng):
        self.check(grouping_spec(), grouping_data(rng))

    def test_clamped_cluster_contributes_nothing(self, rng):
        # the clamped cluster of TestScore: whether its sum clamps flips
        # within the reference's stencil, so the information with it is
        # held to the reference-checked information without it
        spec = score_spec(alpha=-1.0, gamma=3.0, covariate=True)
        data = score_data(rng, 80, covariate=True)
        layout, clean = self.check(spec, data)
        degenerate = Cluster("clamped", (UnitRecord("u1", 1e-8, 1),
                                         UnitRecord("u2", 1.7e-8, 1, {"x": 0.2})))
        ws = LikelihoodWorkspace(spec, CurrentStatusDataset(data.clusters + (degenerate,)))
        before = likelihood.diagnostics.clamped_probabilities
        value, _, info = ws.loglik_and_score(layout, layout.free_vector(), information=True)
        assert likelihood.diagnostics.clamped_probabilities > before
        assert math.isfinite(value)
        np.testing.assert_allclose(info, clean, rtol=0.0, atol=1e-13 * np.abs(clean).max())

    def test_one_kernel_call_per_level(self, rng, monkeypatch):
        spec = grouping_spec()
        layout = ParameterLayout(spec)
        ws = LikelihoodWorkspace(spec, grouping_data(rng))
        calls = {name: TestEventCountGrouping.counted(monkeypatch, name) for name in
                 ("log_laplace", "log_laplace_partials", "log_laplace_second_partials")}
        ws.loglik_and_score(layout, layout.free_vector(), information=True)
        assert [len(c) for c in calls.values()] == [len(GROUPING_STRATA), 0, len(GROUPING_STRATA)]


class TestPinnedAlpha:
    """A gamma-pinned stratum's alpha rows of ``frailty_jacobian`` are zero,
    so its passes compute no alpha partial."""

    def test_score_is_the_alpha_computing_score_bit_for_bit(self, monkeypatch):
        # the recovery design pinned to the gamma limit; forcing the alpha
        # partials back in, as the passes once computed them, changes no bit
        from test_acceptance import recovery_spec, simulate_from

        spec = dataclasses.replace(recovery_spec(), branch_regimes={"s": BranchRegime("gamma")})
        data = simulate_from(recovery_spec(), 3000, seed=0)
        layout = ParameterLayout(spec)
        ws = LikelihoodWorkspace(spec, data)
        calls = []
        partials = likelihood.log_laplace_partials

        def recorded(params, svals, log_l, alpha=True):
            calls.append(alpha)
            return partials(params, svals, log_l, alpha)

        monkeypatch.setattr(likelihood, "log_laplace_partials", recorded)
        for theta in (layout.free_vector(), layout.default_init(data)):
            value, score = ws.loglik_and_score(layout, theta)
            monkeypatch.setattr(likelihood, "log_laplace_partials",
                                lambda params, svals, log_l, alpha=True:
                                partials(params, svals, log_l, True))
            forced = ws.loglik_and_score(layout, theta)
            monkeypatch.setattr(likelihood, "log_laplace_partials", recorded)
            assert value == forced[0] and score.tobytes() == forced[1].tobytes()
        assert calls == [False, False]

    def test_information_skips_alpha(self, monkeypatch, rng):
        spec = score_spec(0.0, 3.0, "gamma")
        layout = ParameterLayout(spec)
        ws = LikelihoodWorkspace(spec, score_data(rng, 60))
        calls = []
        second = likelihood.log_laplace_second_partials

        def recorded(params, svals, log_l, alpha=True):
            calls.append(alpha)
            return second(params, svals, log_l, alpha)

        monkeypatch.setattr(likelihood, "log_laplace_second_partials", recorded)
        ws.loglik_and_score(layout, layout.free_vector(), information=True)
        assert calls == [False]


class TestNumericGradient:
    def test_quadratic_exact(self):
        f = lambda x: -(x[0] - 1.0) ** 2 - 3.0 * (x[1] + 2.0) ** 2
        g = numeric_gradient(f, np.array([0.0, 0.0]))
        np.testing.assert_allclose(g, [2.0, -12.0], atol=1e-6)

    def test_nonfinite_reports_coordinate(self):
        def f(x):
            return math.inf if x[1] > 0.5 else float(np.sum(x))

        with pytest.raises(NonFiniteEvaluation):
            numeric_gradient(f, np.array([0.0, 0.5]))
