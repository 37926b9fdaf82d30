"""Post-fit interpretation: latent risk categories and trajectories.

Risk category (RC) k of a stratum is the k-th ordered support point of
its discrete frailty law.  Hazard ratios between adjacent RCs within a
stratum (HR_W) and between strata at the same or quantile-matched RC
(HR_A) are reported together with the RC probability distribution, RFV
and conditional-mean trajectories, and marginal prevalence curves; the
curves are taken at the baseline hazards (every covariate at 0).

Infinite and undefined ratios are distinct: HR values may be ``inf``
(one stratum's RC is non-susceptible) while the 0/0 case raises
:class:`~addamsfrailty.errors.UndefinedRatio` and is reported as
"undef" downstream, never as NaN.

Confidence intervals: each table or curve function writes what it reports
once, as ``quantities(spec) -> 1-D array`` holding every entry that gets
a CI, with each stratum's branch classified once per call.  The reported
values are ``quantities(fit.spec)``; all standard errors come from one
central-difference Jacobian of ``quantities(fit.layout.build_spec(theta))``
at the fitted theta, i.e. 2p spec builds for p free parameters.  Entries
without a CI (an infinite or undefined HR, ``b``) are decided at
``fit.spec`` and kept out of the vector.  On the positive domain a value
<= 0, such as a zero support point, and on the unit interval a value
outside (0, 1), is its own interval (lo = hi = value).  A fully pinned
result reports no CIs and builds no spec.

Every table reads a stratum's support from its ``FrailtyBranch``, z_(k)
from ``support_value`` and the point count from ``n_support``.

No scipy distribution is frozen: z comes from ``scipy.special.ndtri`` in
``transformed_ci``, and the count law's cdf and ppf from the shared scipy
generator with the branch's shape arguments (``family._count_law``).
``rc_table`` takes each stratum's CDF at k = 0..k_max-1 in one call per
spec, and every entry reads from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContinuousBranch, UndefinedRatio
from .estimation import FitResult, delta_method_se, transformed_ci
from .family import (
    FrailtyBranch,
    _count_law,
    classify_branch,
    conditional_moments,
    laplace,
    rfv,
    support_and_pmf,
    support_value,
)

__all__ = [
    "Estimate",
    "RCRow",
    "RCPair",
    "RCTable",
    "TrajectoryCurve",
    "hr_within",
    "hr_across",
    "hr_across_quantile_matched",
    "hr_within_table",
    "rc_table",
    "rfv_parameter_table",
    "trajectories",
]


@dataclass(frozen=True)
class Estimate:
    value: float
    lo: Optional[float] = None
    hi: Optional[float] = None


@dataclass(frozen=True)
class RCRow:
    stratum: str
    k: int
    z: Estimate
    prob: float
    cum_prob: Estimate


@dataclass(frozen=True)
class RCPair:
    """Cross-stratum comparison at RC k against the reference stratum."""

    stratum: str
    reference: str
    k: int
    cum_prob_ratio: Estimate
    hr_across: Optional[Estimate]   # None encodes the undefined 0/0 case


@dataclass(frozen=True)
class RCTable:
    reference: str
    rows: Tuple[RCRow, ...]
    pairs: Tuple[RCPair, ...]


@dataclass(frozen=True)
class TrajectoryCurve:
    kind: str                      # "rfv" | "cond_mean" | "prevalence"
    stratum: str
    unit: Optional[str]
    times: np.ndarray
    values: np.ndarray
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None


def hr_within(branch: FrailtyBranch, k: int) -> float:
    """Hazard ratio z_(k+1) / z_(k) of RC k+1 versus RC k within one stratum;
    infinite where z_(k) = 0, at k = 1 when a cure fraction exists."""
    z_next = support_value(branch, k + 1)
    z = support_value(branch, k)
    return math.inf if z == 0.0 else z_next / z


def hr_across(branch_i: FrailtyBranch, branch_j: FrailtyBranch, k: int) -> float:
    """Hazard ratio z_{i,(k)} / z_{j,(k)} between two strata at the same RC."""
    zi = support_value(branch_i, k)
    zj = support_value(branch_j, k)
    if zi == 0.0 and zj == 0.0:
        raise UndefinedRatio(f"RC {k} is non-susceptible in both strata (0/0)")
    if zj == 0.0:
        return math.inf
    return zi / zj


def hr_across_quantile_matched(branch_i: FrailtyBranch, branch_j: FrailtyBranch,
                               k: int) -> Tuple[int, float]:
    """Across-stratum HR against the quantile-matched RC of the other stratum.

    Picks the k' with P(Z_j <= z_{j,(k')}) inside
    [P(Z_i <= z_{i,(k-1)}), P(Z_i <= z_{i,(k)})); if no such k' exists, the
    k' whose cumulative probability is closest to that interval (ties to
    the smaller k').
    """
    if not (branch_i.is_discrete and branch_j.is_discrete):
        raise ContinuousBranch("quantile matching needs discrete branches")
    if k < 1:
        raise ValueError("k must be >= 1")
    dist_i, args_i = _count_law(branch_i)
    dist_j, args_j = _count_law(branch_j)
    lo = 0.0 if k == 1 else float(dist_i.cdf(k - 2, *args_i))
    hi = float(dist_i.cdf(k - 1, *args_i))
    if lo <= 0.0:
        k_prime = 1
    else:
        k_prime = int(dist_j.ppf(lo, *args_j)) + 1   # smallest k' with cdf(k'-1) >= lo
    p = float(dist_j.cdf(k_prime - 1, *args_j))
    if not (lo <= p < hi):
        candidates = [(max(lo - p, 0.0) + max(p - hi, 0.0), k_prime)]
        if k_prime > 1:
            p_prev = float(dist_j.cdf(k_prime - 2, *args_j))
            candidates.append((max(lo - p_prev, 0.0) + max(p_prev - hi, 0.0), k_prime - 1))
        if k_prime + 1 <= branch_j.n_support:
            p_next = float(dist_j.cdf(k_prime, *args_j))
            candidates.append((max(lo - p_next, 0.0) + max(p_next - hi, 0.0), k_prime + 1))
        candidates.sort(key=lambda c: (c[0], c[1]))
        k_prime = candidates[0][1]
    zi = support_value(branch_i, k)
    zj = support_value(branch_j, k_prime)
    if zi == 0.0 and zj == 0.0:
        raise UndefinedRatio("quantile-matched RCs are both non-susceptible")
    return k_prime, math.inf if zj == 0.0 else zi / zj


# ---------------------------------------------------------------------------
# Delta-method confidence intervals over a fitted model
# ---------------------------------------------------------------------------

def _branches(spec, levels) -> Dict[str, FrailtyBranch]:
    return {lvl: classify_branch(spec.frailty_params(lvl)) for lvl in levels}


def _standard_errors(fit: FitResult, quantities) -> Optional[np.ndarray]:
    """SE of every entry of quantities(spec) from one Jacobian in theta.

    None when nothing was estimated; otherwise 2p spec builds.
    """
    if fit.n_free == 0:
        return None
    return delta_method_se(
        lambda theta: quantities(fit.layout.build_spec(theta)), fit.theta, fit.covariance
    )


def _ci(value: float, se: float, domain: str) -> Tuple[float, float]:
    """(lo, hi) of one entry; a value on its domain's boundary is its own interval."""
    if (domain == "positive" and value <= 0) or (
        domain == "unit_interval" and not 0.0 < value < 1.0
    ):
        return value, value
    return transformed_ci(value, se, domain)


def _estimates(fit: FitResult, entries: Dict[tuple, str], quantities) -> Dict[tuple, Estimate]:
    """One Estimate per key of ``entries`` (key -> CI domain).

    ``quantities(spec)`` returns the value of every key, in key order.
    """
    values = quantities(fit.spec).tolist()
    se = _standard_errors(fit, quantities)
    if se is None:
        return {key: Estimate(value) for key, value in zip(entries, values)}
    return {
        key: Estimate(value, *_ci(value, s, domain))
        for (key, domain), value, s in zip(entries.items(), values, se)
    }


def rc_table(fit: FitResult, strata: Optional[Sequence[str]] = None,
             k_max: int = 5) -> RCTable:
    """RC distribution per stratum plus comparisons with the reference stratum.

    All strata must be on a discrete branch; the gamma limit raises
    :class:`ContinuousBranch`.  CIs use the ln transform for support
    points and hazard ratios, ln(-ln) for cumulative probabilities.
    """
    link = fit.spec.frailty_link
    strata = list(strata) if strata is not None else list(link.levels)
    reference = link.reference
    levels = list(dict.fromkeys(strata + [reference]))
    branches = _branches(fit.spec, levels)
    points = {lvl: support_and_pmf(branches[lvl], k_max) for lvl in strata}
    compared = [lvl for lvl in strata if lvl != reference and branches[reference].is_discrete]
    # a pair needs RC k in both laws
    pair_keys = [(lvl, k) for lvl in compared for k in range(
        1, min(k_max, branches[lvl].n_support, branches[reference].n_support) + 1)]

    fixed: Dict[tuple, Optional[Estimate]] = {}   # entries without a CI
    entries: Dict[tuple, str] = {}                # entries with a CI -> its domain
    for lvl in strata:
        for point in points[lvl]:
            entries["z", lvl, point.k] = "positive"
            entries["cum", lvl, point.k] = "unit_interval"
    for lvl, k in pair_keys:
        entries["ratio", lvl, k] = "positive"
        try:
            hr_value = hr_across(branches[lvl], branches[reference], k)
        except UndefinedRatio:
            fixed["hr", lvl, k] = None
        else:
            if math.isinf(hr_value):
                fixed["hr", lvl, k] = Estimate(math.inf)
            else:
                entries["hr", lvl, k] = "positive"

    def quantities(spec) -> np.ndarray:
        at = _branches(spec, levels)
        laws = {lvl: _count_law(b) for lvl, b in at.items() if b.is_discrete}
        # P(M <= k - 1) for k = 1..k_max, one call per stratum
        cdf = {lvl: dist.cdf(np.arange(k_max), *args) for lvl, (dist, args) in laws.items()}

        def value(kind, lvl, k):
            if kind == "z":
                return support_value(at[lvl], k)
            if kind == "cum":
                return cdf[lvl][k - 1]
            if kind == "ratio":
                return cdf[lvl][k - 1] / cdf[reference][k - 1]
            return hr_across(at[lvl], at[reference], k)

        return np.array([value(*key) for key in entries], dtype=float)

    est = {**fixed, **_estimates(fit, entries, quantities)}
    rows = [
        RCRow(lvl, p.k, est["z", lvl, p.k], p.prob, est["cum", lvl, p.k])
        for lvl in strata for p in points[lvl]
    ]
    pairs = [
        RCPair(lvl, reference, k, est["ratio", lvl, k], est["hr", lvl, k])
        for lvl, k in pair_keys
    ]
    return RCTable(reference=reference, rows=tuple(rows), pairs=tuple(pairs))


def hr_within_table(fit: FitResult, strata: Optional[Sequence[str]] = None,
                    k_max: int = 5) -> List[Dict]:
    """Adjacent-RC hazard ratios (k+1 vs k) per stratum with delta CIs.

    Continuous (gamma-limit) strata are skipped; the infinite ratio at
    k = 1 under a cure fraction is reported without a CI.
    """
    link = fit.spec.frailty_link
    strata = list(strata) if strata is not None else list(link.levels)
    branches = _branches(fit.spec, strata)
    keys = [(lvl, k) for lvl in strata if branches[lvl].is_discrete
            for k in range(1, min(k_max, branches[lvl].n_support))]
    fixed = {(lvl, k): Estimate(math.inf) for lvl, k in keys
             if math.isinf(hr_within(branches[lvl], k))}
    entries = {key: "positive" for key in keys if key not in fixed}

    def quantities(spec) -> np.ndarray:
        at = _branches(spec, strata)
        return np.array([hr_within(at[lvl], k) for lvl, k in entries], dtype=float)

    est = {**fixed, **_estimates(fit, entries, quantities)}
    return [{"stratum": lvl, "k": k, "hr": est[lvl, k]} for lvl, k in keys]


_RFV_DOMAINS = {
    "alpha": "unconstrained", "gamma": "positive", "mu": "positive",
    "psi": "positive", "nu": "positive", "pi": "unit_interval", "lambda_star": "positive",
}


def rfv_parameter_table(fit: FitResult,
                        strata: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, Optional[Estimate]]]:
    """Frailty-law parameters per stratum with delta-method CIs.

    Rows hold alpha, gamma, mu plus the branch-derived scale (psi),
    count size (nu), success probability (pi) and, where applicable,
    trials (b) and Poisson rate (lambda_star).  Entries that do not
    apply to a branch are None.
    """
    link = fit.spec.frailty_link
    strata = list(strata) if strata is not None else list(link.levels)
    branches = _branches(fit.spec, strata)
    entries = {
        (lvl, name): domain for lvl in strata for name, domain in _RFV_DOMAINS.items()
        if getattr(branches[lvl], name) is not None
    }

    def quantities(spec) -> np.ndarray:
        at = _branches(spec, strata)
        return np.array([getattr(at[lvl], name) for lvl, name in entries], dtype=float)

    est = _estimates(fit, entries, quantities)
    table: Dict[str, Dict[str, Optional[Estimate]]] = {}
    for lvl in strata:
        b = branches[lvl].b
        table[lvl] = {name: est.get((lvl, name)) for name in _RFV_DOMAINS}
        table[lvl]["b"] = Estimate(float(b)) if b is not None else None
    return table


def trajectories(fit: FitResult, stratum: str, units: Optional[Sequence[str]] = None,
                 times: Optional[Sequence[float]] = None) -> List[TrajectoryCurve]:
    """RFV, conditional-mean, and per-unit marginal prevalence curves.

    Each unit's hazard is its baseline cumulative hazard in ``stratum``
    (every covariate at 0), and the conditioning hazard is their sum over
    ``units``.
    """
    units = list(units) if units is not None else list(fit.spec.units)
    grid = np.asarray(times if times is not None else np.linspace(0.0, 80.0, 81), dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    kinds = [("rfv", None, "positive"), ("cond_mean", None, "positive")] + [
        ("prevalence", unit, "unit_interval") for unit in units
    ]

    def quantities(spec) -> np.ndarray:
        params = spec.frailty_params(stratum)
        hazards = [spec.baseline_for(stratum, unit).cumulative(grid) for unit in units]
        lam = sum(hazards, np.zeros_like(grid))
        return np.concatenate(
            [rfv(params, lam), conditional_moments(params, lam)[0]]
            + [1.0 - laplace(params, lam_u) for lam_u in hazards]
        )

    values = quantities(fit.spec)
    se = _standard_errors(fit, quantities)
    curves: List[TrajectoryCurve] = []
    for i, (kind, unit, domain) in enumerate(kinds):
        part = slice(i * grid.size, (i + 1) * grid.size)
        lo = hi = None
        if se is not None:
            lo, hi = np.array(
                [_ci(v, s, domain) for v, s in zip(values[part], se[part])]
            ).reshape(-1, 2).T
        curves.append(TrajectoryCurve(kind, stratum, unit, grid, values[part], lo, hi))
    return curves
