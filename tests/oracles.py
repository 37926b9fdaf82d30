"""Independent reference implementations used to cross-check the library.

The probability oracles are deliberately written from the distributional
definitions (series summation over the discrete support, adaptive
quadrature over the gamma density) rather than from the closed-form
Laplace transform, so agreement with the library is evidence and not
tautology.  ``scalar_cluster_loglik`` is the exception: it walks the
inclusion-exclusion sum one cluster at a time through the library's own
``log_laplace``, with each record's hazard exp(x' beta) Lambda_0(t) from
``unit_cumulative_hazard``, so it checks the workspace's hazards,
grouping, index arrays and scatter, not the transform.
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


def count_distribution(branch):
    """Frozen scipy law of a discrete branch's count variable M: the
    reference for the library's unfrozen ``family._count_law``."""
    from addamsfrailty.errors import ContinuousBranch
    from addamsfrailty.family import BranchKind

    if branch.kind is BranchKind.GAMMA_LIMIT:
        raise ContinuousBranch("gamma limit has no count distribution")
    if branch.kind in (BranchKind.SHIFTED_SCALED_NEG_BINOMIAL, BranchKind.SCALED_NEG_BINOMIAL):
        return stats.nbinom(branch.nu, branch.pi)
    if branch.kind is BranchKind.SCALED_POISSON:
        return stats.poisson(branch.lambda_star)
    return stats.binom(branch.b, branch.pi)


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


def unit_cumulative_hazard(spec, level, unit, covariates, t):
    """exp(x' beta) Lambda_0(t) of one unit record, x' beta summed in the
    predictor's covariate order.  A covariate missing from ``covariates``
    raises KeyError."""
    predictor = spec.predictors[unit]
    linear = 0.0
    for name, coef in zip(predictor.covariate_names, predictor.coefficients):
        linear += coef * float(covariates[name])
    return math.exp(linear) * spec.baseline_for(level, unit).cumulative(t)


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
        unit_cumulative_hazard(spec, level, r.unit, r.covariates, r.time)
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


def spec_point(workspace, layout, theta_free):
    """What ``LikelihoodWorkspace._point`` reads at ``theta_free``, taken
    from ``layout.build_spec(theta_free)`` instead: ``ModelSpec.frailty_params``
    and ``frailty_jacobian``, the spec's baselines and its predictors."""
    spec = layout.build_spec(theta_free)
    points = []
    for level in workspace.levels:
        sources = []
        for block in level.blocks:
            key = (level.name, block.unit) if spec.stratified_baselines else block.unit
            baseline, predictor = spec.baselines[key], spec.predictors[block.unit]
            exposure = block.exposure_for(layout.spec0.baselines[key])
            sources.append((
                key, exposure, baseline if exposure is None else baseline.rate_vector,
                np.asarray(predictor.coefficients) if predictor.covariate_names else None))
        points.append((spec.branch_regimes[level.name], spec.frailty_link.row(level.name),
                       spec.frailty_params(level.name), spec.frailty_jacobian(level.name),
                       sources))
    return points


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


def score_hessian(score, theta, step=1e-4):
    """The symmetrized central-difference Jacobian of an exact ``score`` at
    steps ``step`` max(1, |theta_i|): 2p score evaluations for p
    parameters, exact for a linear score and O(h^2) otherwise.  ``fit``
    once took its covariance from it at the default step; it is now the
    reference for the observed information of
    ``LikelihoodWorkspace.loglik_and_score``.  A non-finite entry raises
    NonFiniteEvaluation."""
    from addamsfrailty.errors import NonFiniteEvaluation
    from addamsfrailty.hazard import _central_jacobian

    theta = np.asarray(theta, dtype=float)
    estimate = _central_jacobian(score, theta, step * np.maximum(1.0, np.abs(theta)))
    if not np.all(np.isfinite(estimate)):
        raise NonFiniteEvaluation("non-finite Hessian entries")
    return 0.5 * (estimate + estimate.T)


def _mp_log_laplace(a, g, m, s):
    """log L(s) of mpmath numbers: the closed form, or its gamma (a = 0) and
    Poisson (a = g) limits."""
    import mpmath

    if a == 0:
        return -mpmath.log1p(g * m * s) / g
    if a == g:
        return mpmath.expm1(-g * m * s) / g
    # bracket (1 - g/a) exp(-a m s) + g/a, less 1
    return mpmath.log1p((1 - g / a) * mpmath.expm1(-a * m * s)) / (a - g)


def mp_log_laplace(alpha, gamma, mu, s, dps=50):
    """log L(s) from the closed form in ``dps``-digit arithmetic.

    The double inputs are taken exactly, so near alpha = 0 and alpha =
    gamma the cancellations cost digits of the 50, not of the result;
    expm1 and log1p keep the digits of tiny arguments.  The two limits use
    their own closed forms.
    """
    import mpmath

    with mpmath.workdps(dps):
        return float(_mp_log_laplace(*(mpmath.mpf(float(v)) for v in (alpha, gamma, mu, s))))


def _mp_derivative(f, x, dps):
    """f'(x) to ``dps`` digits by a central difference at +-10^(-dps/2).

    The difference is taken in enough digits that its O(h^2) error and its
    rounding, which costs log10(|f| / (h |f'|)) digits, both stay below
    ``dps`` digits; a derivative tiny beside the value (log L near its
    cure-fraction limit) raises the working precision until it does.
    """
    import mpmath

    h_digits = dps // 2
    work = 2 * dps
    while True:
        with mpmath.workdps(work):
            slope = mpmath.diff(f, x, h=mpmath.mpf(10) ** (-h_digits))
            value = f(x)
            if value == 0 or work > 64 * dps:
                return slope
            lost = work if slope == 0 else int(mpmath.log10(abs(value / slope))) + h_digits
            if work - lost >= dps + 10:
                return slope
        work = max(2 * work, lost + dps + 20)


def separate_log_laplace_partials(p, s, log_l, alpha=True):
    """(d_alpha, d_gamma, h) from a log L computed apart, as two kernel
    calls once took them: ``log_laplace``, then the partials at its value.
    The reference for the fused ``family.log_laplace_partials``; it
    recomputes every exponential the fused call shares with log L and
    uses the library's series only for the regions where they serve."""
    from addamsfrailty import family

    a, g, m = p.alpha, p.gamma, p.mu
    d = a - g
    s_arr = np.asarray(s, dtype=float).reshape(-1)
    log_l = np.asarray(log_l, dtype=float).reshape(-1)
    s_min = float(s_arr.min()) if s_arr.size else math.inf
    if s_min == 0.0:
        s_min = float(np.min(s_arr, where=s_arr > 0.0, initial=math.inf))
    gamma_limit = family._is_gamma_limit(a, g)
    lead = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if gamma_limit:
            u = m * s_arr
            h = 1.0 / (1.0 + g * m * s_arr)
            t = u * h
            if alpha:
                lead = 0.5 * u * t
        else:
            x = a * m * s_arr
            if a < 0.0:
                e = np.expm1(x)
                h = 1.0 / ((g / a) * e + 1.0)
                t = e * h / a
                if alpha:
                    lead = (e - x) * h
            else:
                em = np.expm1(-x)
                ex = np.exp(-x)
                one_plus_q = ex - (g / a) * em
                h = ex / one_plus_q
                t = em / one_plus_q / -a
                if alpha:
                    lead = -((x * ex + em) / one_plus_q)
            if alpha:
                lead = lead / a / a
                limit = family._PHI2_SPAN / abs(a) / m
                if s_min < limit:
                    small = s_arr < limit
                    v = m * s_arr[small]
                    lead[small] = v * v * h[small] * np.polynomial.polynomial.polyval(
                        a * v, family._PHI2_SERIES)
        d_gamma = (log_l + t) * (1.0 / d) if d else np.empty_like(s_arr)
        limit = family._psi_limit(a, g) / m
        if s_min < limit:
            small = s_arr < limit
            v = m * s_arr[small]
            r = -v if gamma_limit else np.expm1(-a * v) / a
            d_gamma[small] = r * r * np.polynomial.polynomial.polyval(d * r, family._PSI_SERIES)
    d_alpha = family._alpha_partial(p, s_arr, s_min, lead, d_gamma) if alpha else None
    return d_alpha, d_gamma, h


def mp_log_laplace_partials(alpha, gamma, mu, s, dps=50):
    """(d/dalpha, d/dgamma, d/dmu) of log L(s), each by a ``dps``-digit
    central difference (:func:`_mp_derivative`) of the closed form in one
    argument with the others held.

    The stencil never lands on the removable singularities, so at alpha = 0
    and alpha = gamma each partial is the limit of the closed form's, which
    is the derivative of the gamma or Poisson limit along that argument.
    """
    import mpmath

    with mpmath.workdps(dps):
        a, g, m, s = (mpmath.mpf(float(v)) for v in (alpha, gamma, mu, s))
    return (
        float(_mp_derivative(lambda t: _mp_log_laplace(t, g, m, s), a, dps)),
        float(_mp_derivative(lambda t: _mp_log_laplace(a, t, m, s), g, dps)),
        float(_mp_derivative(lambda t: _mp_log_laplace(a, g, t, s), m, dps)),
    )


def mp_log_laplace_second_partials(alpha, gamma, u, dps=50):
    """(uu, ua, ug, aa, ag, gg): the second partials of log L in (u = mu s,
    alpha, gamma), each a ``dps``-digit central difference of the closed
    form in the scaled coordinates u (1 + xi_u), alpha + c xi_alpha and
    gamma + c xi_gamma at steps of 10^(-dps/2).  c = min(1, 1 / u) while
    exp(-alpha u) matters (|alpha| u < 1e4, alpha = 0 included), and
    min(1, |alpha|) / 10 beyond, where log L no longer varies on the scale 1 / u.

    The working precision doubles until the difference keeps ``dps + 10``
    digits beside the value, as in :func:`_mp_derivative`, or until its
    rounding is below 1e-330 in absolute terms, finer than any double; as
    there, the stencil is off the seams except at its centre, so at
    alpha = 0 and alpha = gamma each entry is the limit of the closed form's.
    """
    import mpmath

    with mpmath.workdps(dps):
        a0, g0, u0 = (mpmath.mpf(float(v)) for v in (alpha, gamma, u))
        if a0 == 0 or abs(a0) * u0 < 10 ** 4:
            c = min(mpmath.mpf(1), 1 / u0)
        else:
            c = min(mpmath.mpf(1), abs(a0)) / 10
    h = mpmath.mpf(10) ** (-(dps // 2))

    def f(xi_u, xi_a, xi_g):
        return _mp_log_laplace(a0 + c * xi_a, g0 + c * xi_g, 1, u0 * (1 + xi_u))

    scales = (u0, c, c)
    out = []
    for orders in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)):
        scale = 1
        for k, n in enumerate(orders):
            scale *= scales[k] ** n
        work = 3 * dps
        while True:
            with mpmath.workdps(work):
                slope = mpmath.diff(f, (0, 0, 0), orders, h=h)
                value = f(0, 0, 0)
                lost = work if slope == 0 else int(mpmath.log10(abs(value / slope))) + dps
                rounding = abs(value) * mpmath.mpf(10) ** (dps + 5 - work)
                if (value == 0 or work - lost >= dps + 10 or work > 80 * dps
                        or rounding < mpmath.mpf(10) ** -330 * scale):
                    out.append(float(slope / scale))
                    break
            work *= 2
    return tuple(out)


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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # csv.reader refuses a line holding a NUL before Python 3.11, and
        # reads a lone surrogate on every version
        reader = csv.DictReader(line.replace("\x00", "\udc00") for line in fh)
        header = reader.fieldnames or []
        if any("\udc00" in name for name in header):
            raise DatasetError([MalformedRow(1, "(line contains NUL)")])
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DatasetError([MalformedRow(1, f"missing columns {missing}")])
        covariate_cols = [c for c in header if c not in RESERVED_COLUMNS]
        for lineno, row in enumerate(reader, start=2):
            try:
                # cells past the header's width (key None) are ignored
                if any("\udc00" in cell for key, cell in row.items() if key is not None and cell):
                    problems.append(MalformedRow(lineno, "(line contains NUL)"))
                    continue
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
                if not 0.0 <= time < math.inf:
                    problems.append(
                        NegativeTimeRow(lineno, time) if time < 0
                        else MalformedRow(lineno, f"(time {time!r} is not finite)")
                    )
                    continue
                raw_event = (row["event"] or "").strip()
                if raw_event not in ("0", "1"):
                    problems.append(BadEventFlag(lineno, raw_event))
                    continue
                if raw_event == "1" and time == 0.0:
                    problems.append(MalformedRow(lineno, "(event at time 0)"))
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


def reference_write_csv(dataset, path):
    """Row-by-row writer through ``csv.writer``; the library's block writer
    ``write_csv`` must write exactly its bytes, or raise as it does.  A
    dataset whose file would not read back as itself, one with a cluster
    with no row or a unit name in two rows of a cluster, is refused."""
    import csv

    from addamsfrailty.data import REQUIRED_COLUMNS
    from addamsfrailty.errors import InvalidParameters

    units = {c: [] for c in range(len(dataset.cluster_ids))}
    for c, u in zip(dataset.cluster.tolist(), dataset.unit.tolist()):
        units[c].append(dataset.unit_names[u])
    for c, names in units.items():
        if not names or len(set(names)) < len(names):
            raise InvalidParameters(f"cluster {dataset.cluster_ids[c]!r}")

    # np.float64's repr is "np.float64(...)" in numpy 2: format Python floats
    columns = [
        [dataset.cluster_ids[c] for c in dataset.cluster.tolist()],
        [dataset.unit_names[u] for u in dataset.unit.tolist()],
        [repr(t) for t in dataset.time.tolist()],
        [str(e) for e in dataset.event.tolist()],
    ]
    header = list(REQUIRED_COLUMNS)
    if np.any(dataset.stratum >= 0):
        header.append("stratum")
        names = dataset.stratum_names
        labels = [names[s] if s >= 0 else "" for s in dataset.stratum.tolist()]
        columns.append([labels[c] for c in dataset.cluster.tolist()])
    if np.any(dataset.weight != 1.0):
        header.append("weight")
        weights = [repr(w) for w in dataset.weight.tolist()]
        columns.append([weights[c] for c in dataset.cluster.tolist()])
    header.extend(dataset.covariate_names)
    for j in range(len(dataset.covariate_names)):
        columns.append([
            repr(v) if p else ""
            for v, p in zip(dataset.covariates[:, j].tolist(), dataset.present[:, j].tolist())
        ])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
