"""Maximum-likelihood fitting and inference.

A :class:`ParameterLayout` flattens a ModelSpec into one optimization
vector (baseline parameters on the log scale, link coefficients
untransformed) with a pin mask; pinned entries never move.  A link
coefficient is free where its mask is set and its column of
``ModelSpec.frailty_jacobian`` moves some stratum; ``fit`` rejects free
link columns short of full rank over what the data identify.  The
default start matches the baselines to the data's event fractions under
a fixed frailty law (:meth:`ParameterLayout.default_init`).  Fitting
is one trust-region minimization of the negated log-likelihood
(``optimize.minimize`` with :func:`_trust_region` as its method), whose
quadratic model takes the BHHH matrix J = G' diag(w) G of the
per-cluster scores G (Berndt, Hall, Hall & Hausman 1974) in place of
the Hessian; each step is solved exactly from one eigendecomposition of
J (Moré & Sorensen 1983; Nocedal & Wright 2006, Alg. 4.3).  The trust
region reads each point from one ``evaluate(x) -> (value, gradient, J)``,
one ``LikelihoodWorkspace.loglik_and_score`` pass, which reads its
numbers from the free vector, not from a rebuilt ModelSpec.  It stops
at a small gradient, at a step that predicts no reduction, or at the
iteration limit, and ``FitResult.stop`` names which.  Standard errors
come from the observed information at the solution, the exact negated
Hessian from one more such pass with ``information=True`` (no
differenced score passes), and confidence intervals use ln / ln(-ln)
transforms as appropriate.
``FitResult.aic`` is -2 log L + 2 n_free.

``hazard._central_jacobian`` takes the derivatives that are differenced
here: the value-mode :func:`hessian` (the Jacobian of a differenced
gradient, at the step 1e-4 max(1, |theta_i|)), which checks the
information, and the delta method's, at its own steps.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Literal, NamedTuple, Optional, Tuple

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
from .family import _log_laplace_inverse
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
# the start's frailty law, through the zeta and kappa intercepts; of
# gamma 0.5, 2 and 8 as start points, 2 had the highest log L on each of
# 339 recovery-design, study and cohort datasets
_START_ZETA = -0.1
_START_GAMMA = 2.0
# the 0.975 normal quantile, as scipy.stats computes it, for 95% intervals
_Z = special.ndtri(0.975)
# what the likelihood raises outside the feasible region
_INFEASIBLE = (InvalidRegion, NonPositiveProbability, InvalidParameters, OverflowError)
# why the trust region stopped (see ``_trust_region``)
Stop = Literal["gradient", "no_reduction", "maxiter"]
# gamma - alpha under this fraction of gamma: a free level at the alpha =
# gamma wall, beyond which its trial points read +inf
_WALL_RTOL = 1e-9


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

        The free link intercepts start at beta0 0, zeta ``_START_ZETA`` and
        kappa ln ``_START_GAMMA``, the other free link coefficients and the
        betas at 0, pinned entries at the spec's values.  Each baseline is
        then matched to the weighted event fraction p of its rows under the
        start's frailty law for the baseline's level (the reference level's,
        for a baseline shared across levels): the cumulative hazard at the
        rows' mean monitoring time is the s with log L(s) = log(1 - p)
        (``_log_laplace_inverse``), per interval for a piecewise-constant
        baseline and over all rows for a rate.  Where pinned link values make
        the start's law infeasible, NonFiniteEvaluation is raised.
        """
        full = self.full0.copy()
        for name, intercept in (("beta0", 0.0), ("zeta", _START_ZETA),
                                ("kappa", math.log(_START_GAMMA))):
            sl = self.link_slices[name]
            values = [intercept] + [0.0] * (sl.stop - sl.start - 1)
            full[sl] = np.where(self.free_mask[sl], values, full[sl])
        link = self.spec0.frailty_link
        start = self.build_spec(full[self.free_mask])
        try:
            laws = {level: start.frailty_params(level) for level in link.levels}
        except _INFEASIBLE as exc:
            raise NonFiniteEvaluation(f"frailty law infeasible at the start point: {exc}") from exc
        # each stratum code's level, code -1 last; an empty stratum is the reference
        labels = [s or link.reference for s in data.stratum_names] + [link.reference]
        row_weight = data.weight[data.cluster]
        for key, sl in self.baseline_slices.items():
            unit = key if isinstance(key, str) else key[1]
            level = None if isinstance(key, str) else key[0]
            code = data.unit_names.index(unit) if unit in data.unit_names else -1
            sel = data.unit == code
            if level is not None:
                sel &= np.array([lab == level for lab in labels])[data.stratum][data.cluster]
            full[sl] = _baseline_init(self.spec0.baselines[key], laws[level or link.reference],
                                      data.time[sel], data.event[sel], row_weight[sel])
        return full[self.free_mask]


def _with_values(obj, **values):
    """A copy of the validated frozen dataclass ``obj`` with ``values`` set,
    without ``__post_init__``: ``dataclasses.replace`` less the checks."""
    new = object.__new__(type(obj))
    new.__dict__.update(vars(obj), **values)
    return new


def _product_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """sum(values * weights), rounded once from the exact sum of the exact
    products (Dekker's two-product, then ``math.fsum`` over the products and
    the error terms that are not 0: all of them are 0 under unit weights)."""
    product = values * weights
    v_hi, v_lo = _split(values)
    w_hi, w_lo = _split(weights)
    error = v_hi * w_hi - product
    error += v_hi * w_lo
    error += v_lo * w_hi
    error += v_lo * w_lo
    return math.fsum(product.tolist() + error[error != 0.0].tolist())


def _split(x: np.ndarray):
    """Veltkamp's split of ``x`` into two halves of 26 bits each."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


class _Fraction(NamedTuple):
    p_hat: float    # weighted event fraction, moved off 0 and 1
    t_bar: float    # weighted mean monitoring time


def _fraction(times: np.ndarray, events: np.ndarray, weights: np.ndarray) -> _Fraction:
    """The rows' event fraction and mean time, each weighted sum rounded once
    from its exact value: the same in any row order, unchanged when every
    weight is scaled by a power of 2, and a row of integer weight k counts
    as k copies of it.  A fraction of 0 or 1 alone is moved 1 / (2n + 2)
    inside, n the row count, whatever the weights."""
    total = math.fsum(weights.tolist())
    p_hat = math.fsum(weights[events == 1].tolist()) / total
    if not 0.0 < p_hat < 1.0:
        margin = 1.0 / (2.0 * times.size + 2.0)
        p_hat = min(max(p_hat, margin), 1.0 - margin)
    return _Fraction(p_hat, _product_sum(times, weights) / total)


def _matched_rate(law, times, events, weights) -> float:
    """The constant hazard that matches the rows' event fraction at their
    mean time under the frailty law ``law``."""
    if not np.any(times > 0):
        return _RATE_FLOOR
    p_hat, t_bar = _fraction(times, events, weights)
    return max(_log_laplace_inverse(law, math.log1p(-p_hat)) / t_bar, _RATE_FLOOR)


def _baseline_init(baseline, law, times, events, weights) -> np.ndarray:
    """The baseline's log-parameters matched to its rows under the frailty law ``law``."""
    n_params = baseline.log_params.size
    if not hasattr(baseline, "cutpoints"):
        rate = _matched_rate(law, times, events, weights)
        if n_params == 1:          # exponential: rate
            return np.log([rate])
        if n_params == 2:          # weibull: shape, scale
            return np.log([1.0, 1.0 / rate])
        return np.log([1.0, 1.0, 1.0 / rate])  # generalized gamma
    # piecewise constant: match the cumulative hazard at each interval's mean
    # time; an interval without rows takes the previous rate, the first the
    # rate matched over all rows
    cuts = list(baseline.cutpoints) + [math.inf]
    rates = []
    cum_at_start = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        sel = (times >= lo) & (times < hi)
        if np.any(sel):
            p_hat, t_bar = _fraction(times[sel], events[sel], weights[sel])
            lam_mid = _log_laplace_inverse(law, math.log1p(-p_hat))
            rate = max((lam_mid - cum_at_start) / max(t_bar - lo, 1e-8), _RATE_FLOOR)
        else:
            rate = rates[-1] if rates else _matched_rate(law, times, events, weights)
        rates.append(rate)
        if math.isfinite(hi):
            cum_at_start += rate * (hi - lo)
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
    stop: Optional[Stop]    # why the trust region stopped; None when nothing is fitted

    @property
    def n_free(self) -> int:
        return len(self.names)

    @property
    def aic(self) -> float:
        return -2.0 * self.loglik + 2.0 * self.n_free

    @property
    def at_wall(self) -> bool:
        """Whether a free level ends at the alpha = gamma wall, with
        |gamma - alpha| under ``_WALL_RTOL`` gamma."""
        for level, regime in self.spec.branch_regimes.items():
            law = self.spec.frailty_params(level)
            if regime.kind == "free" and abs(law.gamma - law.alpha) < _WALL_RTOL * law.gamma:
                return True
        return False


def pinned_result(spec: ModelSpec, loglik: float = math.nan) -> FitResult:
    """FitResult wrapper around fully known parameters (nothing estimated).

    Lets the post-fit analyses run on published or simulated-truth values;
    every reported quantity then carries no confidence interval.
    """
    empty = np.zeros((0, 0))
    return FitResult(
        names=(), theta=np.zeros(0), loglik=loglik, covariance=empty,
        se=np.zeros(0), ci={}, converged=True, iterations=0,
        gradient_norm=0.0, layout=ParameterLayout.pinned(spec), spec=spec, stop=None,
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
        block = np.reshape(identified[name], (-1, free.size))[:, free]
        # the rank at null_space's tolerance; its SVD runs only to name the aliased
        if np.linalg.matrix_rank(block) == block.shape[1]:
            continue
        # each null direction is a combination of free coefficients the data do not see
        null = linalg.null_space(block)
        aliased = np.array(layout.names[sl])[free][np.any(np.abs(null) > 1e-10, axis=1)]
        if aliased.size:
            raise IdentifiabilityError(f"link coefficients {', '.join(aliased)} are aliased; "
                                       f"pin {null.shape[1]} of them")


def fit(spec: ModelSpec, data: CurrentStatusDataset, init=None,
        maxiter: int = 500) -> FitResult:
    """Maximize the current-status log-likelihood.

    ``init`` may be a free-parameter vector, the string "spec" to start
    from the values already held by ``spec``, or None for the data-driven
    start of :meth:`ParameterLayout.default_init`.  The fit is one
    trust-region call (:func:`_trust_region`) on ``evaluate(theta) ->
    (-log L, -score, J)``, all three from one ``loglik_and_score`` pass,
    J = G' diag(w) G the model Hessian.  A point off the feasible region,
    or where the value or J is not finite, reads (inf, 0, I): the trust
    region never moves there, and a start point that reads so raises
    NonFiniteEvaluation.  The iteration stops where the gradient's 2-norm
    falls under 1e-6 max(1, |objective at the start|), where a step
    predicts no reduction, or after ``maxiter`` iterations (0: the start
    is returned); ``FitResult.stop`` says which.  The trust region only
    moves to a point that lowers the objective, and the last point it
    moved to is returned, with ``converged`` reporting whether
    max|gradient| is under that bound there.
    """
    layout = ParameterLayout(spec)
    _check_identifiability(layout)
    ws = LikelihoodWorkspace(spec, data)
    if len(data) == 0:
        raise InvalidParameters("cannot fit an empty dataset")

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

    def evaluate(theta) -> Tuple[float, np.ndarray, np.ndarray]:
        value = math.inf
        with contextlib.suppress(*_INFEASIBLE):
            value, grad, bhhh = ws.loglik_and_score(layout, theta)
        # a finite J has a finite G, and so a finite score
        if math.isfinite(value) and np.all(np.isfinite(bhhh)):
            return -value, -grad, bhhh
        return math.inf, np.zeros(theta.size), np.eye(theta.size)

    res = optimize.minimize(evaluate, theta0, method=_trust_region,
                            options={"maxiter": maxiter})
    theta_hat = np.asarray(res.x, dtype=float)
    # the observed information from one second-order pass at the solution
    information = ws.loglik_and_score(layout, theta_hat, information=True)[3]
    cov = _covariance_from_information(information, layout.free_names)
    variance = np.diag(cov)
    negative = variance < 0.0
    if np.any(negative):
        log.warning("negative variance at the solution (indefinite information); "
                    "no standard error for %s",
                    ", ".join(name for name, bad in zip(layout.free_names, negative) if bad))
    se = np.sqrt(np.where(negative, np.nan, variance))
    ci = _parameter_cis(layout, theta_hat, se)
    # a log-scale interval saturates at z SE > 700 (``transformed_ci``)
    unbounded = [name for name, transform in zip(layout.free_names, layout.free_transforms)
                 if transform == "log" and ci[name][2] == math.inf]
    if unbounded:
        log.warning("95%% interval runs to infinity (log-scale z SE > 700) for %s",
                    ", ".join(unbounded))
    fitted_spec = layout.build_spec(theta_hat)
    gradient_norm = float(np.max(np.abs(res.jac)))
    return FitResult(
        names=tuple(layout.free_names),
        theta=theta_hat,
        loglik=-float(res.fun),
        covariance=cov,
        se=se,
        ci=ci,
        converged=gradient_norm < res.gtol,
        iterations=int(res.nit),
        gradient_norm=gradient_norm,
        stop=res.stop,
        layout=ParameterLayout(fitted_spec),
        spec=fitted_spec,
    )


def _trust_region(fun, x0, maxiter, **_):
    """``optimize.minimize``'s method: scipy's trust-region iteration on
    ``fun(x) -> (value, gradient, model Hessian)``, each step solved
    exactly by :func:`_trust_region_step`.

    The start is read first; a value there that is not finite raises
    NonFiniteEvaluation, and the stationarity bound ``gtol`` is
    1e-6 max(1, |value at the start|).  The radius starts at 1, is
    quartered where the ratio rho of actual to predicted reduction is
    under 1/4 and doubled (to at most 1000) where rho > 3/4 and the step
    reached the boundary; a step with rho > 0.15 is taken.  The iteration
    stops, and ``stop`` says why, when the gradient's 2-norm is under
    ``gtol`` ("gradient"), when a step predicts no reduction
    ("no_reduction"), or after ``maxiter`` trial steps ("maxiter").
    """
    x = np.asarray(x0, dtype=float).flatten()
    value, grad, model = fun(x)
    if not math.isfinite(value):
        raise NonFiniteEvaluation("objective non-finite at the start point")
    gtol = 1e-6 * max(1.0, abs(value))
    radius, nit = 1.0, 0
    while nit < maxiter and np.linalg.norm(grad) >= gtol:
        step, on_boundary = _trust_region_step(model, grad, radius)
        # f - m(s) as scipy forms it: a step whose model change is lost in
        # f's rounding predicts no reduction
        predicted = value - (value + grad @ step + 0.5 * step @ model @ step)
        if predicted <= 0.0:
            stop = "no_reduction"
            break
        trial = (x + step, *fun(x + step))
        rho = (value - trial[1]) / predicted
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, 1000.0)
        if rho > 0.15:
            x, value, grad, model = trial
        nit += 1
    else:
        stop = "gradient" if np.linalg.norm(grad) < gtol else "maxiter"
    return optimize.OptimizeResult(x=x, fun=value, jac=grad, nit=nit, gtol=gtol, stop=stop)


def _trust_region_step(model: np.ndarray, grad: np.ndarray,
                       radius: float) -> Tuple[np.ndarray, bool]:
    """The step s minimizing g's + s'Bs/2 over |s| <= ``radius``, B = ``model``
    positive semidefinite, and whether it lies on the boundary.

    From one eigendecomposition B = Q diag(l) Q': the Newton step
    -Q (c / l), c = Q'g, where it lies inside the radius, else
    s(m) = -Q (c / (l + m)) with the shift m > 0 where |s(m)| = radius,
    found by Newton's iteration on 1/radius - 1/|s(m)| (Nocedal & Wright,
    Alg. 4.3).  That function is concave in m, so from its lower bound
    max_i (|c_i| / radius - l_i) the iterates rise to the root without
    passing it.  An eigenvalue is read as at least p eps max(l), the
    rounding of B's; a B of 0 gives the steepest-descent step to the
    boundary.
    """
    curvature, basis = np.linalg.eigh(model)
    if not curvature[-1] > 0.0:
        return -radius / np.linalg.norm(grad) * grad, True
    curvature = np.maximum(curvature, grad.size * np.finfo(float).eps * curvature[-1])
    coeff = basis.T @ grad
    shifted = coeff / curvature
    if np.linalg.norm(shifted) <= radius:
        return -basis @ shifted, False
    shift = max(np.max(np.abs(coeff) / radius - curvature), 0.0)
    for _ in range(100):
        shifted = coeff / (curvature + shift)
        norm = np.linalg.norm(shifted)
        if norm <= radius * (1.0 + 1e-10):
            break
        rise = norm ** 2 / np.sum(shifted ** 2 / (curvature + shift)) * (norm - radius) / radius
        if not shift + rise > shift:
            break
        shift += rise
    step = -basis @ shifted
    return step * min(1.0, radius / np.linalg.norm(step)), True


def _covariance_from_information(information: np.ndarray, names) -> np.ndarray:
    """The symmetrized inverse of the observed information; all nan, with a
    warning, where the information is not finite or is singular.  A
    singular one's warning names the parameters its null space moves."""
    if not np.all(np.isfinite(information)):
        log.warning("Hessian unavailable at the solution; no standard errors")
        return np.full(information.shape, np.nan)
    try:
        cov = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        _, sv, vt = np.linalg.svd(information)
        null = vt[sv <= max(sv[-1], sv[0] * sv.size * np.finfo(float).eps)]
        moved = np.any(np.abs(null) > 1e-6, axis=0)
        log.warning("singular information at the solution, the data do not inform %s; "
                    "no standard errors", ", ".join(n for n, m in zip(names, moved) if m))
        return np.full(information.shape, np.nan)
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


def lrt(fit_null: FitResult, fit_alt: FitResult) -> Tuple[float, float]:
    """Likelihood-ratio test of a pin-nested model pair, on the difference
    of their free-parameter counts."""
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
    its own gradient, over the entries where g is not 0 when the full
    product is nan: an entry that moves with no parameter whose covariance
    is unknown has a known variance.  A negative variance, from an
    indefinite covariance, gives SE nan, and one warning names the entries.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        se = np.zeros(np.shape(fn(theta)))
    else:
        jac = _central_jacobian(fn, theta, np.maximum(1e-6, 1e-5 * np.abs(theta)))
        grads = np.ascontiguousarray(jac.reshape(theta.size, -1).T)
        variances = [_variance(g, covariance) for g in grads]
        se = np.array([math.sqrt(v) if v >= 0.0 else math.nan for v in variances])
        se = se.reshape(jac.shape[1:])
        negative = [index for index, v in zip(np.ndindex(se.shape), variances) if v < 0.0]
        if negative:
            log.warning("negative delta-method variance (indefinite covariance); "
                        "no standard error for %s",
                        "the value" if se.ndim == 0 else ", ".join(
                            f"entry {index[0] if len(index) == 1 else index}"
                            for index in negative))
    return float(se) if se.ndim == 0 else se


def _variance(grad: np.ndarray, covariance: np.ndarray) -> float:
    variance = float(grad @ covariance @ grad)
    if math.isnan(variance):
        moved = grad != 0.0
        variance = float(grad[moved] @ covariance[np.ix_(moved, moved)] @ grad[moved])
    return variance
