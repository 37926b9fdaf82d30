"""Maximum-likelihood fitting and inference.

A :class:`ParameterLayout` flattens a ModelSpec into one optimization
vector (baseline parameters on the log scale, link coefficients
untransformed) with a pin mask; pinned entries never move.  A link
coefficient is free where its mask is set and its column of
``ModelSpec.frailty_jacobian`` moves some stratum; ``fit`` rejects free
link columns short of full rank over what the data identify.  Fitting
is BFGS (Wolfe line search) on the negated log-likelihood; each point's
value and score come from one ``LikelihoodWorkspace.loglik_and_score``
pass.  Standard errors come from the observed information at the
solution, the exact negated Hessian from one more such pass with
``information=True`` (no differenced score passes), and confidence
intervals use ln / ln(-ln) transforms as appropriate.
``FitResult.aic`` is -2 log L + 2 n_free.

``hazard._central_jacobian`` takes the derivatives that are differenced
here: the value-mode :func:`hessian` (the Jacobian of a differenced
gradient, at the step 1e-4 max(1, |theta_i|)), which checks the
information, and the delta method's, at its own steps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import linalg, optimize, special, stats

from .data import CurrentStatusDataset
from .errors import (
    DomainViolation,
    IdentifiabilityError,
    InvalidParameters,
    InvalidRegion,
    NegativeStatistic,
    NonFiniteEvaluation,
    NonPositiveProbability,
)
from .hazard import ModelSpec, _central_jacobian, _central_steps
from .likelihood import LikelihoodWorkspace

__all__ = [
    "ParameterLayout",
    "FitResult",
    "fit",
    "pinned_result",
    "hessian",
    "transformed_ci",
    "lrt",
    "delta_method_se",
]

log = logging.getLogger(__name__)

_RATE_FLOOR = 1e-4
# the 0.975 normal quantile, as scipy.stats computes it, for 95% intervals
_Z = special.ndtri(0.975)
# BFGS calls per fit: the first, and restarts from the best point
_MAX_BFGS_CALLS = 20
# what the likelihood raises outside the feasible region
_INFEASIBLE = (InvalidRegion, NonPositiveProbability, InvalidParameters, OverflowError)


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
        jacobians = [spec.frailty_jacobian(level) for level in link.levels]
        self.link_slices: Dict[str, slice] = {}
        for name in ("beta0", "zeta", "kappa"):
            values = getattr(link, name)
            # a masked-free coefficient is estimated where its Jacobian column,
            # the regime pins applied, moves some stratum's (alpha, gamma, mu)
            moves = np.any([jac[name] != 0 for jac in jacobians], axis=(0, 1)).tolist()
            for i, (value, free) in enumerate(zip(values, getattr(link, f"{name}_free"))):
                entries.append(_Entry(f"{name}[{i}]", float(value), free and moves[i], "identity"))
            self.link_slices[name] = slice(pos, pos + len(values))
            pos += len(values)
        self.entries = entries
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
        """Spec with the free entries replaced by ``theta_free``.

        The layout fixes the structure (units, levels, coefficient counts),
        so the link and the spec take their new numbers without running
        their checks again.  Each baseline's ``with_log_params`` does check
        its values, which turns an overflowing rate into an infeasible point.
        """
        full = self.full_from_free(theta_free)
        baselines = dict(self.spec0.baselines)
        for key, sl in self.baseline_slices.items():
            baselines[key] = self.spec0.baselines[key].with_log_params(full[sl])
        predictors = {}
        for unit in self.spec0.units:
            pred = self.spec0.predictors[unit]
            sl = self.beta_slices[unit]
            predictors[unit] = pred.with_coefficients(full[sl]) if pred.covariate_names else pred
        link = _with_values(
            self.spec0.frailty_link,
            **{name: tuple(full[sl].tolist()) for name, sl in self.link_slices.items()},
        )
        return _with_values(
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
            full[sl] = _baseline_init(baseline, data.time[sel], data.event[sel].astype(float))
        p = len(self.spec0.frailty_link.zeta)
        for name, intercept in (("beta0", 0.0), ("zeta", -0.1), ("kappa", math.log(0.5))):
            full[self.link_slices[name]] = [intercept] + [0.0] * (p - 1)
        return full[self.free_mask]


def _with_values(obj, **values):
    """A copy of the validated frozen dataclass ``obj`` with ``values`` set,
    without ``__post_init__``: ``dataclasses.replace`` less the checks."""
    new = object.__new__(type(obj))
    new.__dict__.update(vars(obj), **values)
    return new


def _cloglog_rate(times, events):
    """Crude constant-hazard estimate from pooled current-status data."""
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
    rates = []
    cum_at_start = 0.0
    prev_rate = global_rate
    for i, lo in enumerate(cuts):
        hi = cuts[i + 1] if i + 1 < len(cuts) else np.inf
        sel = (times >= lo) & (times < hi)
        if not np.any(sel):
            rate = prev_rate
        else:
            p_hat = float(np.clip(events[sel].mean(),
                                  1.0 / (2 * sel.sum() + 2),
                                  1.0 - 1.0 / (2 * sel.sum() + 2)))
            lam_mid = -math.log1p(-p_hat)
            mid = float(times[sel].mean())
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
    converged: bool
    iterations: int
    gradient_norm: float
    layout: ParameterLayout
    spec: ModelSpec

    @property
    def n_free(self) -> int:
        return len(self.names)

    @property
    def aic(self) -> float:
        return -2.0 * self.loglik + 2.0 * self.n_free


def pinned_result(spec: ModelSpec, loglik: float = math.nan) -> FitResult:
    """FitResult wrapper around fully known parameters (nothing estimated).

    Lets the post-fit analyses run on published or simulated-truth values;
    every reported quantity then carries no confidence interval.
    """
    empty = np.zeros((0, 0))
    return FitResult(
        names=(), theta=np.zeros(0), loglik=loglik, covariance=empty,
        se=np.zeros(0), ci={}, converged=True, iterations=0,
        gradient_norm=0.0, layout=ParameterLayout.pinned(spec), spec=spec,
    )


def _check_identifiability(layout: ParameterLayout) -> None:
    """Raise IdentifiabilityError unless each link block's free columns have
    full column rank over the design rows of what that block identifies."""
    spec, link = layout.spec0, layout.spec0.frailty_link
    rows = {level: link.row(level) for level in link.levels}
    # log mu beyond what the baselines absorb: nothing when they are stratified,
    # else x_l (l != reference) with the reference mean pinned, x_l - x_ref without
    ref = 0.0 if link.pin_reference_mu else rows[link.reference]
    identified = {
        "beta0": [x - ref for level, x in rows.items()
                  if level != link.reference and not spec.stratified_baselines],
        "zeta": [x for level, x in rows.items() if spec.branch_regimes[level].kind == "free"],
        "kappa": list(rows.values()),
    }
    for name, sl in layout.link_slices.items():
        free = layout.free_mask[sl]
        # each null direction is a combination of free coefficients the data do not see
        null = linalg.null_space(np.reshape(identified[name], (-1, free.size))[:, free])
        aliased = np.array(layout.names[sl])[free][np.any(np.abs(null) > 1e-10, axis=1)]
        if aliased.size:
            raise IdentifiabilityError(f"link coefficients {', '.join(aliased)} are aliased; "
                                       f"pin {null.shape[1]} of them")


def fit(spec: ModelSpec, data: CurrentStatusDataset, init=None,
        maxiter: int = 500) -> FitResult:
    """Maximize the current-status log-likelihood.

    ``init`` may be a free-parameter vector, the string "spec" to start
    from the values already held by ``spec``, or None for the data-driven
    defaults; a start point where the log-likelihood is not finite raises
    NonFiniteEvaluation.  ``maxiter`` bounds the iterations of each BFGS
    call.  A call that stops short of a stationary point (a line-search
    stall) after at least one iteration, and improved on the best point by
    more than 1e-10, is followed by a call from the best point, at most
    ``_MAX_BFGS_CALLS`` calls in all.  The best point found is returned,
    with ``converged`` reporting whether it is stationary.
    """
    layout = ParameterLayout(spec)
    _check_identifiability(layout)
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

    start, first = theta0, objective(theta0)
    if not math.isfinite(first[0]):
        raise NonFiniteEvaluation("objective non-finite at the start point")
    best = None
    for _ in range(_MAX_BFGS_CALLS):
        res = optimize.minimize(
            _first_call_from(objective, start, first), start, jac=True, method="BFGS",
            options={"gtol": _gtol(first[0]), "maxiter": maxiter},
        )
        improved = best is None or res.fun < best.fun - 1e-10
        if best is None or res.fun < best.fun:
            best = res
        # a stall resets BFGS's Hessian approximation; restarting from the
        # best point pays while it keeps improving
        if _stationary(res) or not improved or res.nit == 0:
            break
        start, first = np.asarray(best.x, dtype=float), (best.fun, best.jac)

    theta_hat = np.asarray(best.x, dtype=float)
    ll_hat = -float(best.fun)
    # the observed information from one second-order pass at the solution
    information = ws.loglik_and_score(layout, theta_hat, information=True)[2]
    if np.all(np.isfinite(information)):
        cov = _covariance_from_information(information)
    else:
        log.warning("Hessian unavailable at the solution; no standard errors")
        cov = np.full((theta_hat.size, theta_hat.size), np.nan)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    ci = _parameter_cis(layout, theta_hat, se)
    fitted_spec = layout.build_spec(theta_hat)
    return FitResult(
        names=tuple(layout.free_names),
        theta=theta_hat,
        loglik=ll_hat,
        covariance=cov,
        se=se,
        ci=ci,
        converged=_stationary(best),
        iterations=int(best.nit),
        gradient_norm=float(np.max(np.abs(best.jac))),
        layout=ParameterLayout(fitted_spec),
        spec=fitted_spec,
    )


def _gtol(value: float) -> float:
    """The bound on max|gradient| of a stationary point of objective ``value``."""
    return 1e-6 * max(1.0, abs(value))


def _stationary(res) -> bool:
    """BFGS's own verdict, or max|gradient| under ``_gtol``."""
    return bool(res.success or np.max(np.abs(res.jac)) < _gtol(res.fun))


def _first_call_from(objective, start: np.ndarray, result):
    """``objective`` whose first call returns ``result`` when it is at ``start``,
    where ``result`` is already known: from the start-point check, or the
    best point's value and gradient on a restart."""
    pending = [result]

    def wrapped(theta):
        if pending and np.array_equal(theta, start):
            return pending.pop()
        pending.clear()
        return objective(theta)

    return wrapped


def _covariance_from_information(information: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(information)
    return 0.5 * (cov + cov.T)


def _parameter_cis(layout, theta_hat, se):
    ci = {}
    for name, transform, value, s in zip(
        layout.free_names, layout.free_transforms, theta_hat, se
    ):
        if transform == "log":
            est = math.exp(value)
            lo, hi = transformed_ci(est, est * s, "positive")
        else:
            est = value
            lo, hi = transformed_ci(est, s, "unconstrained")
        ci[name] = (est, lo, hi)
    return ci


def hessian(f, theta) -> np.ndarray:
    """Symmetrized central-difference Hessian of the scalar function ``f``:
    the central-difference Jacobian of its central-difference gradient, at
    steps h = 1e-4 max(1, |theta_i|) and h/2, combined as
    (4 H(h/2) - H(h)) / 3 (8 d^2 evaluations for d parameters).
    """
    theta = np.asarray(theta, dtype=float)
    steps = _central_steps(theta)

    def difference(h):
        return _central_jacobian(lambda point: _central_jacobian(f, point, h), theta, h)

    h_full = difference(steps)
    estimate = (4.0 * difference(steps / 2.0) - h_full) / 3.0
    if not np.all(np.isfinite(estimate)):
        raise NonFiniteEvaluation("non-finite Hessian entries")
    return 0.5 * (estimate + estimate.T)


def transformed_ci(estimate: float, se: float, domain: str) -> Tuple[float, float]:
    """Delta-method 95% CI on a transformed scale, mapped back to the original.

    domain "positive" uses the ln transform, "unit_interval" the
    ln(-ln) transform, "unconstrained" the plain normal interval.
    """
    if se < 0:
        raise DomainViolation("standard error must be >= 0")
    if domain == "unconstrained":
        return estimate - _Z * se, estimate + _Z * se
    if domain == "positive":
        if estimate <= 0:
            raise DomainViolation(f"positive-domain estimate must be > 0, got {estimate}")
        if se == 0:
            return estimate, estimate
        se_ln = se / estimate
        # an extremely wide log-scale interval saturates instead of overflowing
        hi = math.inf if _Z * se_ln > 700.0 else estimate * math.exp(_Z * se_ln)
        return estimate * math.exp(-min(_Z * se_ln, 700.0)), hi
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
        lo = math.exp(-math.exp(min(log_neg_log + _Z * se_t, 700.0)))
        hi = math.exp(-math.exp(min(log_neg_log - _Z * se_t, 700.0)))
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


def delta_method_se(fn, theta, covariance):
    """First-order SE of fn(theta): a float for a scalar fn, an array for a 1-D one.

    One central-difference Jacobian, at steps max(1e-6, 1e-5 |theta_i|),
    serves every entry; each entry's variance is g @ covariance @ g with g
    its own gradient.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        se = np.zeros(np.shape(fn(theta)))
    else:
        jac = _central_jacobian(fn, theta, np.maximum(1e-6, 1e-5 * np.abs(theta)))
        grads = np.ascontiguousarray(jac.reshape(theta.size, -1).T)
        se = np.array([math.sqrt(max(float(g @ covariance @ g), 0.0)) for g in grads])
        se = se.reshape(jac.shape[1:])
    return float(se) if se.ndim == 0 else se
