"""Independent reference implementations used to cross-check the library.

The probability oracles are deliberately written from the distributional
definitions (series summation over the discrete support, adaptive
quadrature over the gamma density) rather than from the closed-form
Laplace transform, so agreement with the library is evidence and not
tautology.  ``scalar_cluster_loglik`` is the exception: it walks the
inclusion-exclusion sum one cluster at a time through the library's own
``log_laplace``, so it checks the workspace's grouping, index arrays and
scatter, not the transform.
"""

import math
import warnings

import numpy as np
from scipy import integrate, stats


def branch_pieces(alpha, gamma, mu):
    """(count distribution, scale psi, shift) from the member definitions."""
    if alpha < 0:
        psi = mu * (-alpha)
        nu = 1.0 / (gamma - alpha)
        return stats.nbinom(nu, -alpha / (gamma - alpha)), psi, psi * nu
    if alpha == gamma:
        return stats.poisson(1.0 / gamma), mu * gamma, 0.0
    if alpha > gamma:
        b = round(1.0 / (alpha - gamma))
        return stats.binom(b, (alpha - gamma) / alpha), mu * alpha, 0.0
    nu = 1.0 / (gamma - alpha)
    return stats.nbinom(nu, alpha / gamma), mu * alpha, 0.0


def _series_sum(dist, term_of_z, psi, shift, tol):
    """sum_m P(M=m) f(shift + psi m), truncated once the tail mass is gone."""
    total = 0.0
    start = 0
    block = 512
    while True:
        ms = np.arange(start, start + block)
        zs = shift + psi * ms
        total += float(np.sum(dist.pmf(ms) * term_of_z(zs)))
        if float(dist.sf(ms[-1])) < tol:
            return total
        start += block
        block = min(2 * block, 1 << 18)
        if start > 50_000_000:
            raise RuntimeError("series oracle failed to converge")


def series_laplace(alpha, gamma, mu, s, tol=1e-16):
    """L(s) = sum_m P(M=m) exp(-s (shift + psi m)), truncated by tail mass."""
    dist, psi, shift = branch_pieces(alpha, gamma, mu)
    return _series_sum(dist, lambda z: np.exp(-s * z), psi, shift, tol)


def quad_laplace(gamma, mu, s):
    """Gamma-limit L(s) by adaptive quadrature of the gamma density."""
    k = 1.0 / gamma
    theta = mu * gamma

    def f(z):
        return math.exp(-s * z) * stats.gamma.pdf(z, k, scale=theta)

    value, _ = integrate.quad(f, 0.0, np.inf, limit=200)
    return value


def naive_laplace_longdouble(alpha, gamma, mu, s):
    """Unguarded closed form in 80-bit floats.

    Deliberately the textbook expression, not the cancellation-safe
    rearrangement the library uses; extended precision absorbs the digit
    loss near alpha = 0, making this an independent check of the guarded
    series expansions.
    """
    a = np.longdouble(alpha)
    g = np.longdouble(gamma)
    x = a * np.longdouble(mu) * np.longdouble(s)
    bracket = (1 - g / a) * np.exp(-x) + g / a
    return float(np.log(bracket) / (a - g))


def oracle_laplace(alpha, gamma, mu, s):
    if alpha == 0.0:
        return quad_laplace(gamma, mu, s)
    return series_laplace(alpha, gamma, mu, s)


def _pattern_prob_given_z(z, lams, events):
    z = np.asarray(z, dtype=float)
    p = np.ones_like(z)
    for lam, d in zip(lams, events):
        surv = np.exp(-z * lam)
        p = p * ((1.0 - surv) if d else surv)
    return p


def series_cluster_prob(alpha, gamma, mu, lams, events, tol=1e-25):
    """P(pattern) = E_Z[prod_j (1 - e^{-Z L_j})^{d_j} e^{-Z L_j (1-d_j)}]."""
    dist, psi, shift = branch_pieces(alpha, gamma, mu)
    return _series_sum(
        dist, lambda z: _pattern_prob_given_z(z, lams, events), psi, shift, tol
    )


def quad_cluster_prob(gamma, mu, lams, events):
    k = 1.0 / gamma
    theta = mu * gamma

    def f(z):
        return _pattern_prob_given_z(z, lams, events) * stats.gamma.pdf(z, k, scale=theta)

    with warnings.catch_warnings():
        # roundoff-detected warnings at extreme epsabs are expected and benign
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, 0.0, np.inf, limit=500, epsabs=1e-300, epsrel=1e-11)
    return value


def oracle_cluster_prob(alpha, gamma, mu, lams, events):
    if alpha == 0.0:
        return quad_cluster_prob(gamma, mu, lams, events)
    return series_cluster_prob(alpha, gamma, mu, lams, events)


def scalar_cluster_loglik(spec, cluster):
    """Log-probability of one cluster's outcome: the inclusion-exclusion sum
    walked in Gray-code order, one hazard added or removed per step, with
    compensated summation grouped by subset parity.  Round-off negatives
    above -1e-12 are clamped to 1e-300, as the workspace does."""
    from addamsfrailty.errors import NonPositiveProbability
    from addamsfrailty.family import log_laplace

    level = cluster.stratum if cluster.stratum is not None else spec.frailty_link.reference
    params = spec.frailty_params(level)
    lam = [
        spec.unit_cumulative_hazard(level, r.unit, r.covariates, r.time)
        for r in cluster.records
    ]
    event_lams = [l for l, r in zip(lam, cluster.records) if r.event == 1]
    rest = math.fsum(l for l, r in zip(lam, cluster.records) if r.event == 0)
    even_terms = [math.exp(log_laplace(params, rest))]  # empty subset
    odd_terms = []
    lam_subset = 0.0
    gray = 0
    parity = 0
    for m in range(1, 1 << len(event_lams)):
        new_gray = m ^ (m >> 1)
        flipped = new_gray ^ gray
        j = flipped.bit_length() - 1
        if new_gray & flipped:
            lam_subset += event_lams[j]
            parity += 1
        else:
            lam_subset -= event_lams[j]
            parity -= 1
        gray = new_gray
        value = math.exp(log_laplace(params, rest + lam_subset))
        (odd_terms if parity % 2 else even_terms).append(value)
    prob = math.fsum(even_terms) - math.fsum(odd_terms)
    if prob <= 0.0:
        if prob <= -1e-12:
            raise NonPositiveProbability(
                f"cluster {cluster.cluster_id!r}: inclusion-exclusion sum {prob}"
            )
        prob = 1e-300
    return math.log(prob)


def finite_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_difference(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def numeric_gradient(f, theta, abs_step=1e-6, rel_step=1e-7):
    """Central-difference gradient with per-coordinate step size.

    Step rule: h_k = max(abs_step, rel_step * |theta_k|).  Raises
    NonFiniteEvaluation when a probe of ``f`` is not finite.
    """
    from addamsfrailty.errors import NonFiniteEvaluation

    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        h = max(abs_step, rel_step * abs(theta[k]))
        hi = theta.copy()
        lo = theta.copy()
        hi[k] += h
        lo[k] -= h
        f_hi = f(hi)
        f_lo = f(lo)
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NonFiniteEvaluation(f"non-finite objective at coordinate {k}")
        grad[k] = (f_hi - f_lo) / (2.0 * h)
    return grad


def mp_log_laplace(alpha, gamma, mu, s, dps=50):
    """log L(s) from the closed form in ``dps``-digit arithmetic.

    The double inputs are taken exactly, so near alpha = 0 and alpha =
    gamma the cancellations cost digits of the 50, not of the result;
    expm1 and log1p keep the digits of tiny arguments.  The two limits use
    their own closed forms.
    """
    import mpmath

    with mpmath.workdps(dps):
        a, g, m, s = (mpmath.mpf(float(v)) for v in (alpha, gamma, mu, s))
        if a == 0:
            return float(-mpmath.log1p(g * m * s) / g)
        if a == g:
            return float(mpmath.expm1(-g * m * s) / g)
        # bracket (1 - g/a) exp(-a m s) + g/a, less 1
        excess = (1 - g / a) * mpmath.expm1(-a * m * s)
        return float(mpmath.log1p(excess) / (a - g))


def reference_read_csv(path):
    """Row-by-row reader over ``csv.DictReader`` that builds Cluster and
    UnitRecord objects; the library's columnar ``read_csv`` must accept,
    reject and report exactly as this does."""
    import csv

    from addamsfrailty.data import (
        REQUIRED_COLUMNS,
        RESERVED_COLUMNS,
        Cluster,
        CurrentStatusDataset,
        UnitRecord,
    )
    from addamsfrailty.errors import (
        BadEventFlag,
        DatasetError,
        DuplicateUnit,
        MalformedRow,
        NegativeTimeRow,
    )

    problems = []
    order = []
    per_cluster = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DatasetError([MalformedRow(1, f"missing columns {missing}")])
        covariate_cols = [c for c in header if c not in RESERVED_COLUMNS]
        for lineno, row in enumerate(reader, start=2):
            try:
                cid = (row["cluster_id"] or "").strip()
                unit = (row["unit"] or "").strip()
                if not cid or not unit:
                    problems.append(MalformedRow(lineno, "(empty cluster_id or unit)"))
                    continue
                try:
                    time = float(row["time"])
                except (TypeError, ValueError):
                    problems.append(MalformedRow(lineno, "(non-numeric time)"))
                    continue
                if time < 0:
                    problems.append(NegativeTimeRow(lineno, time))
                    continue
                raw_event = (row["event"] or "").strip()
                if raw_event not in ("0", "1"):
                    problems.append(BadEventFlag(lineno, raw_event))
                    continue
                covs = {}
                bad_cov = False
                for c in covariate_cols:
                    val = row.get(c)
                    if val is None or val == "":
                        continue
                    try:
                        covs[c] = float(val)
                    except ValueError:
                        problems.append(MalformedRow(lineno, f"(non-numeric {c!r})"))
                        bad_cov = True
                        break
                if bad_cov:
                    continue
                stratum = (row.get("stratum") or "").strip() or None
                weight = float(row["weight"]) if row.get("weight") not in (None, "") else 1.0
                if not weight > 0:
                    problems.append(MalformedRow(lineno, f"(weight {weight!r} must be > 0)"))
                    continue
                if cid not in per_cluster:
                    order.append(cid)
                    per_cluster[cid] = {
                        "stratum": stratum, "weight": weight, "records": [], "units": set(),
                    }
                info = per_cluster[cid]
                if unit in info["units"]:
                    problems.append(DuplicateUnit(cid, unit, line=lineno))
                    continue
                if info["stratum"] != stratum or info["weight"] != weight:
                    problems.append(
                        MalformedRow(lineno, "(stratum/weight differ within cluster)")
                    )
                    continue
                info["units"].add(unit)
                info["records"].append(UnitRecord(unit, time, int(raw_event), covs))
            except Exception as exc:  # safety net: a non-numeric weight lands here
                problems.append(MalformedRow(lineno, f"({exc})"))
    if problems:
        raise DatasetError(problems)
    clusters = [
        Cluster(
            cluster_id=cid,
            records=tuple(per_cluster[cid]["records"]),
            stratum=per_cluster[cid]["stratum"],
            weight=per_cluster[cid]["weight"],
        )
        for cid in order
    ]
    return CurrentStatusDataset(tuple(clusters))
