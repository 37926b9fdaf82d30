"""Maximum-likelihood fitting and inference.

A :class:`ParameterLayout` flattens a ModelSpec into one optimization
vector (baseline parameters on the log scale, link coefficients
untransformed) with a pin mask; pinned entries never move.  Fitting is
quasi-Newton (BFGS with Wolfe line search) on the negated log-likelihood;
each point's value and exact analytic score come from one
``LikelihoodWorkspace.loglik_and_score`` pass.  Standard errors come from
the Hessian taken as the Richardson-extrapolated central-difference
Jacobian of that score (4p score passes for p free parameters), and
confidence intervals use ln / ln(-ln) transforms as appropriate.  One
central-difference Jacobian serves every derivative taken here: the
score's, a value-mode Hessian's (the Jacobian of a differenced gradient)
and the delta method's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize, stats

from .data import CurrentStatusDataset
from .errors import (
    DomainViolation,
    IdentifiabilityError,
    InvalidBinomial,
    InvalidParameters,
    InvalidRegion,
    NegativeStatistic,
    NonFiniteEvaluation,
    NonPositiveProbability,
    NumericalDomain,
)
from .hazard import ModelSpec
from .likelihood import LikelihoodWorkspace

__all__ = [
    "ParameterLayout",
    "FitResult",
    "fit",
    "pinned_result",
    "hessian",
    "transformed_ci",
    "lrt",
    "aic",
    "delta_method_se",
]

log = logging.getLogger(__name__)

_RATE_FLOOR = 1e-4
# what the likelihood raises outside the feasible region
_INFEASIBLE = (InvalidRegion, InvalidBinomial, NumericalDomain,
               NonPositiveProbability, InvalidParameters, OverflowError)


@dataclass(frozen=True)
class _Entry:
    name: str
    value: float        # optimization scale
    free: bool
    transform: str      # "log" or "identity"


class ParameterLayout:
    """Bijection between a flat vector and the model's parameters."""

    def __init__(self, spec: ModelSpec):
        self.spec0 = spec
        entries: List[_Entry] = []
        self.baseline_slices: Dict[object, slice] = {}
        pos = 0
        for key in spec._baseline_keys():
            baseline = spec.baselines[key]
            logs = baseline.log_params
            label = key if isinstance(key, str) else ":".join(key)
            for pname, value in zip(baseline.param_names, logs):
                entries.append(_Entry(f"baseline[{label}].{pname}", float(value), True, "log"))
            self.baseline_slices[key] = slice(pos, pos + logs.size)
            pos += logs.size
        self.beta_slices: Dict[str, slice] = {}
        for unit in spec.units:
            pred = spec.predictors[unit]
            start = pos
            for name, value in zip(pred.covariate_names, pred.coefficients):
                entries.append(_Entry(f"beta[{unit}].{name}", float(value), True, "identity"))
                pos += 1
            self.beta_slices[unit] = slice(start, pos)
        link = spec.frailty_link
        any_free_regime = any(r.kind == "free" for r in spec.branch_regimes.values())
        self._beta0_slice = slice(pos, pos + len(link.beta0))
        for i, (value, free) in enumerate(zip(link.beta0, link.beta0_free)):
            entries.append(_Entry(f"beta0[{i}]", float(value), bool(free), "identity"))
            pos += 1
        self._zeta_slice = slice(pos, pos + len(link.zeta))
        for i, (value, free) in enumerate(zip(link.zeta, link.zeta_free)):
            entries.append(
                _Entry(f"zeta[{i}]", float(value), bool(free) and any_free_regime, "identity")
            )
            pos += 1
        self._kappa_slice = slice(pos, pos + len(link.kappa))
        for i, (value, free) in enumerate(zip(link.kappa, link.kappa_free)):
            entries.append(_Entry(f"kappa[{i}]", float(value), bool(free), "identity"))
            pos += 1
        self.entries = entries
        self.link_slices = (
            ("beta0", self._beta0_slice), ("zeta", self._zeta_slice), ("kappa", self._kappa_slice),
        )
        self.free_mask = np.array([e.free for e in entries], dtype=bool)
        self.full0 = np.array([e.value for e in entries])

    @classmethod
    def pinned(cls, spec: ModelSpec) -> "ParameterLayout":
        """Layout of ``spec`` with every entry pinned: nothing is free."""
        layout = cls(spec)
        layout.entries = [replace(e, free=False) for e in layout.entries]
        layout.free_mask = np.zeros(len(layout.entries), dtype=bool)
        return layout

    @property
    def names(self) -> List[str]:
        return [e.name for e in self.entries]

    @property
    def free_names(self) -> List[str]:
        return [e.name for e in self.entries if e.free]

    @property
    def free_transforms(self) -> List[str]:
        return [e.transform for e in self.entries if e.free]

    @property
    def n_free(self) -> int:
        return int(self.free_mask.sum())

    def free_vector(self) -> np.ndarray:
        return self.full0[self.free_mask].copy()

    def full_from_free(self, theta_free) -> np.ndarray:
        full = self.full0.copy()
        full[self.free_mask] = np.asarray(theta_free, dtype=float)
        return full

    def build_spec(self, theta_free) -> ModelSpec:
        """Spec with the free entries replaced by ``theta_free``."""
        full = self.full_from_free(theta_free)
        baselines = dict(self.spec0.baselines)
        for key, sl in self.baseline_slices.items():
            baselines[key] = self.spec0.baselines[key].with_log_params(full[sl])
        predictors = {}
        for unit in self.spec0.units:
            pred = self.spec0.predictors[unit]
            sl = self.beta_slices[unit]
            predictors[unit] = pred.with_coefficients(full[sl]) if pred.covariate_names else pred
        link = replace(
            self.spec0.frailty_link,
            beta0=tuple(full[self._beta0_slice]),
            zeta=tuple(full[self._zeta_slice]),
            kappa=tuple(full[self._kappa_slice]),
        )
        return replace(
            self.spec0, baselines=baselines, predictors=predictors, frailty_link=link
        )

    # ------------------------------------------------------------------
    def default_init(self, data: CurrentStatusDataset) -> np.ndarray:
        """Data-driven starting point.

        Baseline log-rates come from a no-frailty complementary-log-log
        moment match per interval; link coefficients start at the ledger
        defaults (zeta intercept -0.1, kappa intercept ln 0.5, betas 0).
        """
        full = self.full0.copy()
        reference = self.spec0.frailty_link.reference
        # each stratum code's level, code -1 last; an empty stratum is the reference
        labels = [s or reference for s in data.stratum_names] + [reference]
        for key, sl in self.baseline_slices.items():
            unit = key if isinstance(key, str) else key[1]
            level = None if isinstance(key, str) else key[0]
            code = data.unit_names.index(unit) if unit in data.unit_names else -1
            sel = data.unit == code
            if level is not None:
                sel &= np.array([lab == level for lab in labels])[data.stratum][data.cluster]
            baseline = self.spec0.baselines[key]
            full[sl] = _baseline_init(baseline, data.time[sel], data.event[sel])
        link = self.spec0.frailty_link
        p = len(link.zeta)
        full[self._beta0_slice] = np.zeros(p)
        full[self._zeta_slice] = np.array([-0.1] + [0.0] * (p - 1))
        full[self._kappa_slice] = np.array([math.log(0.5)] + [0.0] * (p - 1))
        return full[self.free_mask]


def _cloglog_rate(times, events):
    """Crude constant-hazard estimate from pooled current-status data."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    if times.size == 0 or np.all(times <= 0):
        return _RATE_FLOOR
    p_hat = float(np.clip(events.mean(), 1.0 / (2 * events.size + 2),
                          1.0 - 1.0 / (2 * events.size + 2)))
    t_bar = float(times.mean())
    return max(-math.log1p(-p_hat) / max(t_bar, 1e-8), _RATE_FLOOR)


def _baseline_init(baseline, times, events) -> np.ndarray:
    global_rate = _cloglog_rate(times, events)
    n_params = baseline.log_params.size
    if not hasattr(baseline, "cutpoints"):
        if n_params == 1:          # exponential: rate
            return np.log([global_rate])
        if n_params == 2:          # weibull: shape, scale
            return np.log([1.0, 1.0 / global_rate])
        return np.log([1.0, 1.0, 1.0 / global_rate])  # generalized gamma
    # piecewise constant: match -log(1 - p_hat) at interval midpoints
    cuts = list(baseline.cutpoints)
    times_arr = np.asarray(times, dtype=float)
    events_arr = np.asarray(events, dtype=float)
    rates = []
    cum_at_start = 0.0
    prev_rate = global_rate
    for i, lo in enumerate(cuts):
        hi = cuts[i + 1] if i + 1 < len(cuts) else np.inf
        sel = (times_arr >= lo) & (times_arr < hi)
        if not np.any(sel):
            rate = prev_rate
        else:
            p_hat = float(np.clip(events_arr[sel].mean(),
                                  1.0 / (2 * sel.sum() + 2),
                                  1.0 - 1.0 / (2 * sel.sum() + 2)))
            lam_mid = -math.log1p(-p_hat)
            mid = float(times_arr[sel].mean())
            rate = (lam_mid - cum_at_start) / max(mid - lo, 1e-8)
            rate = max(rate, _RATE_FLOOR)
        rates.append(rate)
        if math.isfinite(hi):
            cum_at_start += rate * (hi - lo)
        prev_rate = rate
    return np.log(rates)


@dataclass(frozen=True)
class FitResult:
    """Converged (or best-found) maximum-likelihood estimate."""

    names: Tuple[str, ...]
    theta: np.ndarray
    loglik: float
    covariance: np.ndarray
    se: np.ndarray
    ci: Dict[str, Tuple[float, float, float]]
    aic: float
    converged: bool
    iterations: int
    gradient_norm: float
    layout: ParameterLayout
    spec: ModelSpec

    @property
    def n_free(self) -> int:
        return len(self.names)


def pinned_result(spec: ModelSpec, loglik: float = math.nan) -> FitResult:
    """FitResult wrapper around fully known parameters (nothing estimated).

    Lets the post-fit analyses run on published or simulated-truth values;
    every reported quantity then carries no confidence interval.
    """
    empty = np.zeros((0, 0))
    return FitResult(
        names=(), theta=np.zeros(0), loglik=loglik, covariance=empty,
        se=np.zeros(0), ci={}, aic=math.nan, converged=True, iterations=0,
        gradient_norm=0.0, layout=ParameterLayout.pinned(spec), spec=spec,
    )


def _check_identifiability(spec: ModelSpec) -> None:
    link = spec.frailty_link
    if spec.stratified_baselines and any(link.beta0_free):
        raise IdentifiabilityError(
            "free frailty mean is aliased with stratum-owned baselines; "
            "pin every beta0 coefficient when baselines are stratified"
        )
    if not link.pin_reference_mu:
        ref_row = link.row(link.reference)
        for c, free in enumerate(link.beta0_free):
            if free and ref_row[c] != 0.0:
                raise IdentifiabilityError(
                    "reference stratum mean must be pinned to 1: free beta0 "
                    f"coefficient {c} loads on the reference design row"
                )


def fit(spec: ModelSpec, data: CurrentStatusDataset, init=None,
        max_restarts: int = 3, maxiter: int = 500, seed: int = 0) -> FitResult:
    """Maximize the current-status log-likelihood.

    ``init`` may be a free-parameter vector, the string "spec" to start
    from the values already held by ``spec``, or None for the data-driven
    defaults.  On line-search failure the start point is jittered up to
    ``max_restarts`` times; the best point found is always returned, with
    ``converged`` reporting whether the gradient criterion was met.
    """
    _check_identifiability(spec)
    layout = ParameterLayout(spec)
    ws = LikelihoodWorkspace(spec, data)
    if len(data) == 0:
        raise InvalidParameters("cannot fit an empty dataset")

    def objective(theta_free) -> Tuple[float, np.ndarray]:
        """(-log L, -score) from one pass; off the feasible region or at a
        non-finite value (inf, 0), and (-log L, 0) at a non-finite score."""
        flat = np.zeros(np.size(theta_free))
        try:
            value, grad = ws.loglik_and_score(layout, theta_free)
        except _INFEASIBLE:
            return math.inf, flat
        if not math.isfinite(value):
            return math.inf, flat
        return -value, (-grad if np.all(np.isfinite(grad)) else flat)

    def score(theta_free) -> np.ndarray:
        try:
            value, grad = ws.loglik_and_score(layout, theta_free)
        except _INFEASIBLE as exc:
            raise NonFiniteEvaluation(f"score outside the feasible region: {exc}") from exc
        if not (math.isfinite(value) and np.all(np.isfinite(grad))):
            raise NonFiniteEvaluation("non-finite score")
        return grad

    if init is None:
        theta0 = layout.default_init(data)
    elif isinstance(init, str) and init == "spec":
        theta0 = layout.free_vector()
    else:
        theta0 = np.asarray(init, dtype=float)
        if theta0.size != layout.n_free:
            raise InvalidParameters(
                f"init has {theta0.size} entries, layout has {layout.n_free} free"
            )

    rng = np.random.default_rng(seed)
    best = None
    attempts = 0
    polish_steps = 0
    start = theta0
    while attempts <= max_restarts and polish_steps < 20:
        attempts += 1
        try:
            f_start = objective(start)[0]
            if not math.isfinite(f_start):
                raise NonFiniteEvaluation("objective non-finite at the start point")
            gtol = 1e-6 * max(1.0, abs(f_start))
            res = optimize.minimize(
                objective, start, jac=True, method="BFGS",
                options={"gtol": gtol, "maxiter": maxiter},
            )
        except NonFiniteEvaluation:
            res = None
        if res is not None and math.isfinite(res.fun):
            improved = best is None or res.fun < best.fun - 1e-10
            if best is None or res.fun < best.fun:
                best = res
            gnorm = float(np.max(np.abs(res.jac)))
            if res.success or gnorm < 1e-6 * max(1.0, abs(res.fun)):
                break
            # a line-search stall resets the Hessian approximation: restart
            # from the best point while it keeps improving, else jitter
            if improved and res.nit > 0:
                start = np.asarray(best.x, dtype=float)
                attempts -= 1   # productive restarts are nearly free
                polish_steps += 1
                continue
        start = theta0 + rng.normal(scale=0.05, size=theta0.size)
        log.warning("fit restart %d after line-search failure", attempts)
    if best is None:
        raise NonFiniteEvaluation("optimization failed on every restart")

    theta_hat = np.asarray(best.x, dtype=float)
    ll_hat = -float(best.fun)
    gnorm = float(np.max(np.abs(best.jac)))
    converged = bool(
        gnorm < 1e-6 * max(1.0, abs(ll_hat)) or best.success
    )
    try:
        hess = hessian(score, theta_hat, from_score=True)
        cov = _covariance_from_hessian(hess)
    except NonFiniteEvaluation:
        # solution on the feasibility boundary: curvature is one-sided
        log.warning("Hessian unavailable at the solution; no standard errors")
        cov = np.full((theta_hat.size, theta_hat.size), np.nan)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    ci = _parameter_cis(layout, theta_hat, se)
    fitted_spec = layout.build_spec(theta_hat)
    fitted_layout = ParameterLayout(fitted_spec)
    return FitResult(
        names=tuple(layout.free_names),
        theta=theta_hat,
        loglik=ll_hat,
        covariance=cov,
        se=se,
        ci=ci,
        aic=-2.0 * ll_hat + 2.0 * layout.n_free,
        converged=converged,
        iterations=int(best.nit),
        gradient_norm=gnorm,
        layout=fitted_layout,
        spec=fitted_spec,
    )


def _covariance_from_hessian(hess_loglik: np.ndarray) -> np.ndarray:
    info = -hess_loglik
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    return 0.5 * (cov + cov.T)


def _parameter_cis(layout, theta_hat, se, level=0.95):
    ci = {}
    for name, transform, value, s in zip(
        layout.free_names, layout.free_transforms, theta_hat, se
    ):
        if transform == "log":
            est = math.exp(value)
            lo, hi = transformed_ci(est, est * s, "positive", level)
        else:
            est = value
            lo, hi = transformed_ci(est, s, "unconstrained", level)
        ci[name] = (est, lo, hi)
    return ci


def hessian(f, theta, base_step: float = 1e-4, from_score: bool = False) -> np.ndarray:
    """Richardson-extrapolated central-difference Hessian.

    With ``from_score`` set, ``f`` returns the gradient and the Hessian is
    its central-difference Jacobian (2 d gradient evaluations per step for
    d parameters).  By default ``f`` is the scalar function, and the
    Hessian is the central-difference Jacobian of its central-difference
    gradient at the same steps (4 d^2 evaluations per step).  Either way
    the estimates at steps h and h/2 are combined as (4 H(h/2) - H(h)) / 3
    and symmetrized.
    """
    theta = np.asarray(theta, dtype=float)
    steps = base_step * np.maximum(1.0, np.abs(theta))

    def difference(h):
        if from_score:
            return _central_jacobian(f, theta, h)
        return _central_jacobian(lambda point: _central_jacobian(f, point, h), theta, h)

    h_full = difference(steps)
    h_half = difference(steps / 2.0)
    combined = (4.0 * h_half - h_full) / 3.0
    if not np.all(np.isfinite(combined)):
        raise NonFiniteEvaluation("non-finite Hessian entries")
    return 0.5 * (combined + combined.T)


def _central_jacobian(f, theta, steps) -> np.ndarray:
    """Row i is (f(theta + h_i e_i) - f(theta - h_i e_i)) / (2 h_i)."""
    rows = []
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += steps[i]
        lo[i] -= steps[i]
        rows.append((np.asarray(f(hi), dtype=float) - np.asarray(f(lo), dtype=float))
                    / (2.0 * steps[i]))
    return np.array(rows)


def transformed_ci(estimate: float, se: float, domain: str,
                   level: float = 0.95) -> Tuple[float, float]:
    """Delta-method CI on a transformed scale, mapped back to the original.

    domain "positive" uses the ln transform, "unit_interval" the
    ln(-ln) transform, "unconstrained" the plain normal interval.
    """
    if se < 0:
        raise DomainViolation("standard error must be >= 0")
    z = stats.norm.ppf(0.5 + level / 2.0)
    if domain == "unconstrained":
        return estimate - z * se, estimate + z * se
    if domain == "positive":
        if estimate <= 0:
            raise DomainViolation(f"positive-domain estimate must be > 0, got {estimate}")
        if se == 0:
            return estimate, estimate
        se_ln = se / estimate
        # an extremely wide log-scale interval saturates instead of overflowing
        hi = math.inf if z * se_ln > 700.0 else estimate * math.exp(z * se_ln)
        return estimate * math.exp(-min(z * se_ln, 700.0)), hi
    if domain == "unit_interval":
        if not 0.0 < estimate < 1.0:
            raise DomainViolation(
                f"unit-interval estimate must be inside (0,1), got {estimate}"
            )
        if se == 0:
            return estimate, estimate
        log_neg_log = math.log(-math.log(estimate))
        se_t = se / abs(estimate * math.log(estimate))
        # exp(-exp(t)) saturates to 0 for large t instead of overflowing
        lo = math.exp(-math.exp(min(log_neg_log + z * se_t, 700.0)))
        hi = math.exp(-math.exp(min(log_neg_log - z * se_t, 700.0)))
        return min(lo, hi), max(lo, hi)
    raise DomainViolation(f"unknown CI domain {domain!r}")


def lrt(fit_null: FitResult, fit_alt: FitResult,
        df: Optional[int] = None) -> Tuple[float, float]:
    """Likelihood-ratio test of a pin-nested model pair."""
    if df is None:
        df = fit_alt.n_free - fit_null.n_free
    if df < 1:
        raise InvalidParameters("LRT needs at least one constrained parameter")
    stat = 2.0 * (fit_alt.loglik - fit_null.loglik)
    if stat < -1e-6:
        raise NegativeStatistic(
            f"LRT statistic {stat} < 0: models not nested or fits not converged"
        )
    stat = max(stat, 0.0)
    return stat, float(stats.chi2.sf(stat, df))


def aic(fit_result: FitResult) -> float:
    return -2.0 * fit_result.loglik + 2.0 * fit_result.n_free


def delta_method_se(fn, theta, covariance, abs_step=1e-6, rel_step=1e-5):
    """First-order SE of fn(theta): a float for a scalar fn, an array for a 1-D one.

    One central-difference Jacobian serves every entry; each entry's
    variance is g @ covariance @ g with g its own gradient.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        se = np.zeros(np.shape(fn(theta)))
    else:
        jac = _central_jacobian(fn, theta, np.maximum(abs_step, rel_step * np.abs(theta)))
        grads = np.ascontiguousarray(jac.reshape(theta.size, -1).T)
        se = np.array([math.sqrt(max(float(g @ covariance @ g), 0.0)) for g in grads])
        se = se.reshape(jac.shape[1:])
    return float(se) if se.ndim == 0 else se
