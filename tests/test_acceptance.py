"""End-to-end acceptance gate.

One check per criterion, each printing a single PASS/FAIL line (run with
``pytest -s`` to see them as they complete).  The heavy replication
studies (parameter recovery coverage, likelihood-ratio calibration) run
here rather than in the unit files; expect a few minutes total.
"""

import itertools
import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from addamsfrailty import (
    AddamsParameters,
    ExponentialBaseline,
    FrailtyLink,
    ModelSpec,
    MonitoringLaw,
    PiecewiseConstantBaseline,
    SimConfig,
    classify_branch,
    cluster_loglik,
    fit,
    generate,
    hessian,
    hr_across_quantile_matched,
    hr_within,
    laplace,
    laplace_derivative,
    lrt,
    pinned_result,
    rc_table,
    sample_event_time,
)
from addamsfrailty.cli import main
from addamsfrailty.errors import NegativeStatistic
from addamsfrailty.estimation import ParameterLayout
from addamsfrailty.hazard import BranchRegime
from addamsfrailty.likelihood import LikelihoodWorkspace
from addamsfrailty.simulate import sample_frailty

from conftest import random_triples
from test_likelihood import RATES, cluster_of, single_stratum_spec
from oracles import oracle_cluster_prob

MALE = AddamsParameters(-0.502, 83.447, 1.0)
FEMALE = AddamsParameters(-2.882, 90.996, 0.328)
BRANCHES = ("negative", "zero", "interior", "poisson", "binomial")


def verdict(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({label}): {status}", flush=True)
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def two_stratum_fit():
    link = FrailtyLink(
        design={"m": (1.0, 0.0), "f": (1.0, 1.0)},
        zeta=(-0.502, -2.882 + 0.502),
        kappa=(math.log(83.447), math.log(90.996 / 83.447)),
        beta0=(0.0, math.log(0.328)),
        reference="m",
    )
    spec = ModelSpec(
        units=("u1", "u2"),
        baselines={"u1": ExponentialBaseline(0.05), "u2": ExponentialBaseline(0.03)},
        frailty_link=link,
    )
    return pinned_result(spec)


def recovery_spec():
    link = FrailtyLink.for_factor(["s"], zeta0=-1.0, kappa0=math.log(5.0))
    return ModelSpec(
        units=("u1", "u2"),
        baselines={
            "u1": PiecewiseConstantBaseline((0.0, 40.0), (0.05, 0.02)),
            "u2": PiecewiseConstantBaseline((0.0, 40.0), (0.03, 0.04)),
        },
        frailty_link=link,
    )


def simulate_from(spec, n, seed):
    return generate(SimConfig(
        spec=spec, n_clusters=n, seed=seed,
        monitoring=MonitoringLaw("uniform", a=1.0, b=80.0),
    ))


@pytest.fixture(scope="module")
def recovery_fit():
    spec = recovery_spec()
    data = simulate_from(spec, 3000, seed=0)
    return spec, data, fit(spec, data)


def test_criterion_1_derived_parameter_mapping():
    failures = []
    for label, params, expected in (
        ("male", MALE, (0.502, 0.012, 0.006)),
        ("female", FEMALE, (0.946, 0.011, 0.031)),
    ):
        branch = classify_branch(params)
        for name, got, want in zip(("psi", "nu", "pi"),
                                   (branch.psi, branch.nu, branch.pi), expected):
            if abs(got - want) > 0.002:
                failures.append(f"{label} {name}: {got:.4f} vs {want}")
    verdict(1, "derived frailty parameters", failures)


def test_criterion_2_risk_category_golden_values():
    failures = []
    result = two_stratum_fit()
    table = rc_table(result, k_max=1)
    first_m = next(r for r in table.rows if r.stratum == "m" and r.k == 1)
    if abs(first_m.cum_prob.value - 0.941) > 0.002:
        failures.append(f"P(Z<=z1) {first_m.cum_prob.value:.4f} vs 0.941")
    if abs(first_m.z.value - 0.006) > 0.001:
        failures.append(f"z1 {first_m.z.value:.4f} vs 0.006")
    hw = hr_within(classify_branch(MALE), 1)
    if abs(hw - 84.9) > 1.0:
        failures.append(f"hr_within(1) {hw:.2f} vs 84.9")
    ratio = classify_branch(FEMALE).psi / classify_branch(MALE).psi
    if abs(ratio - 1.883) > 0.01:
        failures.append(f"psi ratio {ratio:.4f} vs 1.883")
    verdict(2, "published risk-category values", failures)


def test_criterion_3_laplace_identities(rng):
    failures = []
    for branch in BRANCHES:
        for alpha, gamma, mu in random_triples(rng, branch, 500):
            p = AddamsParameters(alpha, gamma, mu)
            if laplace(p, 0.0) != 1.0:
                failures.append(f"L(0) != 1 at {(alpha, gamma, mu)}")
                break
            d1 = laplace_derivative(p, 0.0, order=1)
            if abs(-d1 - mu) > 1e-10 * mu:
                failures.append(f"-L'(0) off at {(alpha, gamma, mu)}: {-d1}")
                break
            d2 = laplace_derivative(p, 0.0, order=2)
            if abs((d2 - mu ** 2) / mu ** 2 - gamma) > 1e-8 * gamma:
                failures.append(f"L''(0) off at {(alpha, gamma, mu)}")
                break
    # branch continuity across the removable singularities
    s_grid = np.array([0.1, 0.7, 2.0, 6.0])
    for gamma, mu in ((0.5, 1.0), (5.0, 0.4), (40.0, 1.5)):
        lo = laplace(AddamsParameters(-1e-7, gamma, mu), s_grid)
        hi = laplace(AddamsParameters(1e-7, gamma, mu), s_grid)
        if np.max(np.abs(hi - lo)) > 1e-5:
            failures.append(f"alpha=0 seam jump at gamma={gamma}")
        lo = laplace(AddamsParameters(gamma * (1 - 1e-7), gamma, mu), s_grid)
        hi = laplace(AddamsParameters(gamma, gamma, mu), s_grid)
        if np.max(np.abs(hi - lo)) > 1e-5:
            failures.append(f"alpha=gamma seam jump at gamma={gamma}")
    verdict(3, "Laplace transform identities", failures)


def test_criterion_4_likelihood_oracle_equivalence(rng):
    failures = []
    checked = 0
    sizes_seen = set()

    def check(alpha, gamma, mu, n_units, events):
        nonlocal checked
        units = tuple(f"u{i + 1}" for i in range(n_units))
        spec = single_stratum_spec(alpha, gamma, mu, units=units)
        times = rng.uniform(1.0, 60.0, size=n_units)
        lams = [RATES.get(u, 0.05) * t for u, t in zip(units, times)]
        expected = oracle_cluster_prob(alpha, gamma, mu, lams, list(events))
        # alternating-sum conditioning bounds the accuracy either side can
        # reach; only well-conditioned configurations face the strict bar
        p = AddamsParameters(alpha, gamma, mu)
        total = sum(
            laplace(p, sum(l for l, d in zip(lams, events) if not d)
                    + sum(l for i, (l, d) in enumerate(zip(lams, events)) if d
                          and mask >> i & 1))
            for mask in range(1 << sum(events))
        )
        if expected <= 0 or total / expected >= 1e6:
            return
        got = cluster_loglik(spec, cluster_of(list(times), list(events)))
        if not math.isclose(got, math.log(expected), rel_tol=1e-8):
            failures.append(
                f"mismatch at {(alpha, gamma, mu)} events={list(events)}"
            )
        checked += 1
        sizes_seen.add(int(sum(events)))

    # forced coverage of every event count 0..7
    for d in range(8):
        events = [1] * d + [0] * (7 - d)
        check(-1.0, 5.0, 1.0, 7, events)
    for branch in BRANCHES:
        for alpha, gamma, mu in random_triples(rng, branch, 30):
            n_units = int(rng.integers(1, 8))
            events = (rng.random(n_units) < 0.5).astype(int)
            check(alpha, gamma, mu, n_units, list(events))
    if checked < 100:
        failures.append(f"only {checked} well-conditioned configurations")
    if sizes_seen != set(range(8)):
        failures.append(f"event-count coverage incomplete: {sorted(sizes_seen)}")

    # total probability over all outcome patterns
    for branch in ("negative", "zero", "poisson"):
        alpha, gamma, mu = random_triples(rng, branch, 1)[0]
        for n_units in (1, 2, 3, 4):
            units = tuple(f"u{i + 1}" for i in range(n_units))
            spec = single_stratum_spec(alpha, gamma, mu, units=units)
            times = list(rng.uniform(1.0, 60.0, size=n_units))
            total = sum(
                math.exp(cluster_loglik(spec, cluster_of(times, list(ev))))
                for ev in itertools.product((0, 1), repeat=n_units)
            )
            if abs(total - 1.0) > 1e-10:
                failures.append(f"patterns sum to {total} for J={n_units}")
    verdict(4, "cluster likelihood vs independent oracles", failures)


def test_criterion_5_parameter_recovery(recovery_fit):
    failures = []
    spec, _, result = recovery_fit
    by_name = dict(zip(result.names, zip(result.theta, result.se)))
    zeta_hat, zeta_se = by_name["zeta[0]"]
    kappa_hat, kappa_se = by_name["kappa[0]"]
    if not result.converged:
        failures.append("seed-pinned fit did not converge")
    if abs(zeta_hat - (-1.0)) > 3.0 * zeta_se:
        failures.append(f"alpha-hat {zeta_hat:.3f} beyond 3 SE of -1")
    if abs(kappa_hat - math.log(5.0)) > 3.0 * kappa_se:
        failures.append(f"gamma-hat {math.exp(kappa_hat):.3f} beyond 3 SE of 5")

    covered = total = 0
    z = stats.norm.ppf(0.975)
    for seed in range(50):
        data = simulate_from(spec, 3000, seed=seed)
        rep = fit(spec, data)
        if not rep.converged:
            continue
        est, se = dict(zip(rep.names, zip(rep.theta, rep.se)))["zeta[0]"]
        total += 1
        covered += est - z * se <= -1.0 <= est + z * se
    if total < 45:
        failures.append(f"only {total}/50 replicates converged")
    coverage = covered / total if total else 0.0
    if not 0.85 <= coverage <= 1.00:
        failures.append(f"alpha CI coverage {coverage:.3f} outside [0.85, 1.00]")
    verdict(5, f"recovery and CI coverage ({coverage:.2f})" if total else "recovery",
            failures)


def test_criterion_6_lrt_calibration():
    failures = []
    link = FrailtyLink.for_factor(["s"], kappa0=math.log(2.0))
    base = dict(
        units=("u1", "u2"),
        baselines={"u1": ExponentialBaseline(0.04), "u2": ExponentialBaseline(0.02)},
        frailty_link=link,
    )
    null_spec = ModelSpec(branch_regimes={"s": BranchRegime("gamma")}, **base)
    alt_spec = ModelSpec(branch_regimes={"s": BranchRegime("free")}, **base)
    rejections = total = 0
    for seed in range(100):
        data = simulate_from(null_spec, 2000, seed=1000 + seed)
        null = fit(null_spec, data)
        alt = fit(alt_spec, data)
        if not (null.converged and alt.converged):
            continue
        try:
            _, p_value = lrt(null, alt)
        except NegativeStatistic:
            p_value = 1.0
        total += 1
        rejections += p_value < 0.05
    if total < 90:
        failures.append(f"only {total}/100 replicates converged")
    rate = rejections / total if total else 1.0
    if not 0.0 <= rate <= 0.15:
        failures.append(f"rejection rate {rate:.3f} outside [0, 0.15]")
    verdict(6, f"LRT size under gamma truth ({rate:.2f})", failures)


def test_criterion_7_hessian_numerics(recovery_fit):
    failures = []
    spec, data, result = recovery_fit
    layout = ParameterLayout(spec)
    ws = LikelihoodWorkspace(spec, data)

    def loglik(theta):
        return ws.total_loglik(layout.build_spec(theta))

    rich = hessian(loglik, result.theta)
    if not np.array_equal(rich, rich.T):
        failures.append("Richardson Hessian is not exactly symmetric")

    # plain central differences at a quarter of the base step
    theta = result.theta
    n = theta.size
    h = np.maximum(1e-3, 1e-3 * np.abs(theta)) / 4.0
    plain = np.empty((n, n))
    f0 = loglik(theta)
    for i in range(n):
        ei = np.zeros(n); ei[i] = h[i]
        plain[i, i] = (loglik(theta + ei) - 2.0 * f0 + loglik(theta - ei)) / h[i] ** 2
        for j in range(i):
            ej = np.zeros(n); ej[j] = h[j]
            plain[i, j] = plain[j, i] = (
                loglik(theta + ei + ej) - loglik(theta + ei - ej)
                - loglik(theta - ei + ej) + loglik(theta - ei - ej)
            ) / (4.0 * h[i] * h[j])
    scale = np.abs(plain).max()
    rel = np.abs(rich - plain) / np.maximum(np.abs(plain), 1e-6 * scale)
    if rel.max() > 1e-3:
        failures.append(f"Hessian mismatch: max relative gap {rel.max():.2e}")

    # the fit's covariance inverts the exact observed information of one
    # information pass, which the Richardson Hessian matches within the bound
    info = ws.loglik_and_score(layout, theta, information=True)[2]
    rel = np.abs(rich + info) / np.maximum(np.abs(info), 1e-6 * np.abs(info).max())
    if rel.max() > 1e-3:
        failures.append(f"information mismatch: max relative gap {rel.max():.2e}")

    ident = result.covariance @ (-rich)
    if np.abs(ident - np.eye(n)).max() > 1e-4:
        failures.append("covariance is not the inverse of -Hessian at 1e-4")
    verdict(7, "Richardson Hessian vs plain differences", failures)


def test_criterion_8_simulator_marginals():
    failures = []
    params = AddamsParameters(-1.0, 5.0)
    ages = (10.0, 20.0, 30.0, 45.0, 60.0)
    rate = 0.04
    link = FrailtyLink.for_factor(["s"], zeta0=-1.0, kappa0=math.log(5.0))
    spec = ModelSpec(units=("u1",),
                     baselines={"u1": ExponentialBaseline(rate)},
                     frailty_link=link)
    data = generate(SimConfig(
        spec=spec, n_clusters=100000, seed=17,
        monitoring=MonitoringLaw("grid", times=ages),
    ))
    for t in ages:
        events = data.event[data.time == t]
        expected = 1.0 - laplace(params, rate * t)
        se = math.sqrt(expected * (1.0 - expected) / events.size)
        if abs(events.mean() - expected) > 3.0 * se:
            failures.append(
                f"prevalence at t={t}: {events.mean():.4f} vs {expected:.4f}"
            )
    # conditional event-time law given the frailty draw
    rng = np.random.default_rng(23)
    z = sample_frailty(classify_branch(params), rng)
    while z <= 0:
        z = sample_frailty(classify_branch(params), rng)
    draws = [sample_event_time(z, ExponentialBaseline(rate), 1.0, rng)
             for _ in range(5000)]
    _, p = stats.kstest(draws, "expon", args=(0.0, 1.0 / (z * rate)))
    if p <= 0.01:
        failures.append(f"KS test of conditional event times: p={p:.4f}")
    verdict(8, "simulator marginal and conditional laws", failures)


def test_criterion_9_deterministic_reports(tmp_path):
    failures = []
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[data]\n"
        f"path = {tmp_path / 'data.csv'}\n"
        "[model]\n"
        "units = u1, u2\n"
        "baseline = exponential\n"
        "[params]\n"
        "zeta = -1.0\n"
        "kappa = 1.6094379124341003\n"
        "params.u1 = 0.04\n"
        "params.u2 = 0.02\n"
        "[simulate]\n"
        "n_clusters = 1000\n"
        "seed = 6\n"
        "[output]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    sim1 = tmp_path / "d1.csv"
    sim2 = tmp_path / "d2.csv"
    for target in (sim1, sim2):
        if main(["simulate", "--config", str(cfg),
                 "--set", f"data.path={target}"]) != 0:
            failures.append("simulate run failed")
    if sim1.read_bytes() != sim2.read_bytes():
        failures.append("simulated datasets differ across runs")

    if main(["simulate", "--config", str(cfg)]) != 0:
        failures.append("simulate for fit input failed")
    outputs = []
    for out, threads in ((tmp_path / "r1", None), (tmp_path / "r2", "1"),
                         (tmp_path / "r3", "8")):
        if threads is None:
            os.environ.pop("ADDAMSFRAILTY_THREADS", None)
        else:
            os.environ["ADDAMSFRAILTY_THREADS"] = threads
        try:
            if main(["fit", "--config", str(cfg),
                     "--set", f"output.dir={out}"]) != 0:
                failures.append(f"fit run failed (threads={threads})")
            outputs.append(out)
        finally:
            os.environ.pop("ADDAMSFRAILTY_THREADS", None)
    for name in ("report.json", "params.csv", "rfv_params.csv"):
        blobs = {(out / name).read_bytes() for out in outputs}
        if len(blobs) != 1:
            failures.append(f"{name} differs across runs or thread counts")
    report = json.loads((outputs[0] / "report.json").read_text())
    if report["fit"]["converged"] != "true":
        failures.append("determinism fit did not converge")
    verdict(9, "byte-identical reports", failures)
