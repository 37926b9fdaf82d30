"""The Addams family of frailty distributions.

The family is parameterized by ``(alpha, gamma, mu)``: ``gamma`` is the
relative frailty variance (RFV) at time zero, ``alpha`` the slope parameter
of the log-RFV, and ``mu = E(Z)`` the frailty mean.  The sign of ``alpha``
selects the member distribution:

=====================  =======================================
``alpha < 0``          shifted, scaled negative binomial (no cure fraction)
``alpha = 0``          gamma distribution (continuous limit)
``0 < alpha < gamma``  scaled negative binomial
``alpha = gamma``      scaled Poisson
``alpha > gamma``      scaled binomial (finite support)
=====================  =======================================

The Laplace transform of the family is

    L(s) = ((1 - gamma/alpha) exp(-alpha mu s) + gamma/alpha)^(1/(alpha-gamma))

for ``alpha != 0, alpha != gamma``, with the gamma and Poisson cases as
limits.  All evaluations here are log-space and guarded so an optimizer may
wander arbitrarily close to the removable singularities at ``alpha = 0``
and ``alpha = gamma`` without loss of accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy import stats

from .errors import (
    ContinuousBranch,
    InvalidBinomial,
    InvalidParameters,
    InvalidRegion,
    NumericalDomain,
    OutOfSupport,
)

__all__ = [
    "AddamsParameters",
    "BranchKind",
    "FrailtyBranch",
    "SupportPoint",
    "classify_branch",
    "laplace",
    "log_laplace",
    "laplace_derivative",
    "conditional_moments",
    "rfv",
    "support_value",
    "support_and_pmf",
    "count_distribution",
]

#: Branch regimes.  Equality of alpha with 0 or gamma is never inferred from
#: floating-point comparison during optimization; the model owner pins one of
#: these instead.  "auto" classifies by exact values and is meant for direct
#: use of published/known parameters.
REGIMES = ("auto", "free", "gamma", "poisson", "binomial")

# guarded-evaluation threshold for the removable singularity at alpha = 0
_ALPHA_ZERO_GUARD = 1e-6
# inside the alpha ~ 0 band, the expansion serves |alpha| mu s up to this;
# its error grows like (alpha mu s)^2 and that of the closed form like
# eps / (|alpha| mu s), and both stay near 1e-12 relative here
_ALPHA_ZERO_SPAN = 1e-5
_BINOMIAL_INT_TOL = 1e-9


class BranchKind(Enum):
    SHIFTED_SCALED_NEG_BINOMIAL = "shifted-scaled-negative-binomial"
    GAMMA_LIMIT = "gamma-limit"
    SCALED_POISSON = "scaled-poisson"
    SCALED_NEG_BINOMIAL = "scaled-negative-binomial"
    SCALED_BINOMIAL = "scaled-binomial"


@dataclass(frozen=True)
class AddamsParameters:
    """One stratum's frailty law.

    ``regime`` pins the Laplace-transform case used for evaluation; see
    :data:`REGIMES`.
    """

    alpha: float
    gamma: float
    mu: float = 1.0
    regime: str = "auto"

    def __post_init__(self):
        if not (math.isfinite(self.alpha)):
            raise InvalidParameters(f"alpha must be finite, got {self.alpha}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InvalidParameters(f"gamma must be > 0, got {self.gamma}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise InvalidParameters(f"mu must be > 0, got {self.mu}")
        if self.regime not in REGIMES:
            raise InvalidParameters(f"unknown regime {self.regime!r}")
        if self.regime == "gamma" and self.alpha != 0.0:
            raise InvalidParameters("gamma-pinned regime requires alpha = 0")
        if self.regime == "poisson" and self.alpha != self.gamma:
            raise InvalidParameters("poisson-pinned regime requires alpha = gamma")
        if self.regime == "binomial" and not self.alpha > self.gamma:
            raise InvalidParameters("binomial-pinned regime requires alpha > gamma")
        if self.regime == "free" and self.alpha >= self.gamma:
            raise InvalidRegion(
                f"free regime requires alpha < gamma (alpha={self.alpha}, gamma={self.gamma})"
            )
        if self.alpha > self.gamma:
            _integer_trials(self.alpha, self.gamma)  # raises InvalidBinomial


@dataclass(frozen=True)
class FrailtyBranch:
    """Classified family member with its derived distribution parameters.

    Fields that do not apply to a branch are ``None`` (e.g. ``b`` outside the
    scaled-binomial case).  ``psi`` is the scale ``mu * |alpha|``.
    """

    kind: BranchKind
    alpha: float
    gamma: float
    mu: float
    psi: Optional[float] = None
    nu: Optional[float] = None
    pi: Optional[float] = None
    b: Optional[int] = None
    lambda_star: Optional[float] = None
    gamma_star: Optional[float] = None

    @property
    def is_discrete(self) -> bool:
        return self.kind is not BranchKind.GAMMA_LIMIT

    @property
    def has_cure_fraction(self) -> bool:
        """P(Z = 0) > 0, i.e. the lowest risk category is non-susceptible."""
        return self.alpha > 0


@dataclass(frozen=True)
class SupportPoint:
    """k-th ordered support point of a discrete frailty law (1-based)."""

    k: int
    z: float
    prob: float
    cum_prob: float


def _integer_trials(alpha: float, gamma: float) -> int:
    b_real = 1.0 / (alpha - gamma)
    b = round(b_real)
    if b < 1 or abs(b_real - b) > _BINOMIAL_INT_TOL * max(1.0, abs(b_real)):
        raise InvalidBinomial(
            f"1/(alpha-gamma) = {b_real} is not a positive integer"
        )
    return int(b)


def classify_branch(p: AddamsParameters) -> FrailtyBranch:
    """Map (alpha, gamma, mu) to the family member it selects."""
    a, g, m = p.alpha, p.gamma, p.mu
    if p.regime == "gamma" or (p.regime == "auto" and a == 0.0) or (
        p.regime == "free" and a == 0.0
    ):
        return FrailtyBranch(
            BranchKind.GAMMA_LIMIT, a, g, m, gamma_star=1.0 / (m * g)
        )
    if p.regime == "poisson" or a == g:
        return FrailtyBranch(
            BranchKind.SCALED_POISSON, a, g, m, psi=m * g, lambda_star=1.0 / g
        )
    if a < 0:
        return FrailtyBranch(
            BranchKind.SHIFTED_SCALED_NEG_BINOMIAL,
            a, g, m,
            psi=m * (-a), nu=1.0 / (g - a), pi=-a / (g - a),
        )
    if a < g:
        return FrailtyBranch(
            BranchKind.SCALED_NEG_BINOMIAL,
            a, g, m,
            psi=m * a, nu=1.0 / (g - a), pi=a / g,
        )
    b = _integer_trials(a, g)
    return FrailtyBranch(
        BranchKind.SCALED_BINOMIAL, a, g, m, psi=m * a, b=b, pi=(a - g) / a
    )


# ---------------------------------------------------------------------------
# Laplace transform
# ---------------------------------------------------------------------------

def _case(p: AddamsParameters) -> str:
    if p.regime == "gamma":
        return "gamma"
    if p.regime == "poisson":
        return "poisson"
    if p.regime == "binomial":
        return "general"
    # auto / free: exact hits use the limiting closed forms; the alpha ~ 0
    # band uses a guarded series expansion, while the closed form stays
    # accurate up to alpha = gamma
    if p.alpha == 0.0:
        return "gamma"
    if p.alpha == p.gamma:
        return "poisson"
    if abs(p.alpha) < _ALPHA_ZERO_GUARD:
        return "near_zero"
    return "general"


def _log_laplace_general(a: float, g: float, m: float, s: np.ndarray) -> np.ndarray:
    # A = 1 + ((a - g)/a) expm1(-x): where that correction is small, log1p
    # keeps the digits that log(A) loses at small x and that the division
    # by (a - g) exposes near a = g
    x = a * m * s
    if a < 0:
        # A = exp(-x) (1 + (g/a) expm1(x)) with x <= 0: exp(-x) may overflow,
        # so take log A = -x + log1p((g/a) expm1(x)), a sum of two terms >= 0
        # that loses nothing at any x
        log_a_term = -x + np.log1p((g / a) * np.expm1(x))
    else:
        # log1p while |correction| < 0.5; beyond, the log of the sum of
        # positive terms loses nothing
        em1 = np.expm1(-x)
        correction = ((a - g) / a) * em1
        bracket = np.exp(-x) - (g / a) * em1
        if np.any(bracket <= 0):
            raise NumericalDomain(
                "non-positive bracket in Laplace transform evaluation"
            )
        log_a_term = np.where(np.abs(correction) < 0.5, np.log1p(correction), np.log(bracket))
    return log_a_term / (a - g)


def _log_laplace_near_zero(a: float, g: float, m: float, s: np.ndarray) -> np.ndarray:
    # first-order expansion of log L in alpha around the gamma limit, where
    # |alpha| mu s is small enough for it; the closed form elsewhere
    small = abs(a) * m * s <= _ALPHA_ZERO_SPAN
    u = m * np.where(small, s, 0.0)
    l0 = np.log1p(g * u)
    corr = -u * (1.0 + g * u / 2.0) / (1.0 + g * u) + l0 / g
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the entries left to the expansion may be out of the closed form's reach
        general = _log_laplace_general(a, g, m, np.where(small, 0.0, s))
    return np.where(small, -(l0 + a * corr) / g, general)


def log_laplace(p: AddamsParameters, s):
    """log L(s) of the family, valid for scalar or array ``s >= 0``."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise InvalidParameters("Laplace transform argument must be >= 0")
    a, g, m = p.alpha, p.gamma, p.mu
    case = _case(p)
    if case == "gamma":
        out = -np.log1p(g * m * s_arr) / g
    elif case == "poisson":
        out = np.expm1(-g * m * s_arr) / g
    elif case == "near_zero":
        out = _log_laplace_near_zero(a, g, m, s_arr)
    else:
        out = _log_laplace_general(a, g, m, s_arr)
    out = np.where(s_arr == 0.0, 0.0, out)  # L(0) = 1 exactly
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def laplace(p: AddamsParameters, s):
    """Laplace transform L(s) = E[exp(-sZ)], in (0, 1] for s >= 0."""
    return np.exp(log_laplace(p, s))


def _h(p: AddamsParameters, s_arr: np.ndarray) -> np.ndarray:
    """exp(-alpha mu s) / A(s), so that d log L / ds = -mu h.

    Written as 1 / (1 + (gamma/alpha) expm1(alpha mu s)), which never
    subtracts nearly equal numbers: on the negative branch both terms of
    the denominator are positive, and on the cure branches expm1 may
    overflow to +inf, which gives the exact limit h = 0.  The alpha = 0
    limit is 1 / (1 + gamma mu s), and alpha = gamma reduces to
    exp(-gamma mu s).
    """
    a, g, m = p.alpha, p.gamma, p.mu
    if _case(p) == "gamma":
        return 1.0 / (1.0 + g * m * s_arr)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + (g / a) * np.expm1(a * m * s_arr))


def _conditional_var(p: AddamsParameters, s_arr: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Var(Z | survival to s) = d^2 log L / ds^2, free of cancellation.

    mu^2 h (alpha - (alpha - gamma) h) cancels on the negative branch,
    where h tends to alpha / (alpha - gamma); there the equal form
    mu^2 h^2 gamma exp(alpha mu s) is used instead.
    """
    a, g, m = p.alpha, p.gamma, p.mu
    if a <= 0.0:
        return m * m * h * h * g * np.exp(a * m * s_arr)
    return m * m * h * (a - (a - g) * h)


def laplace_derivative(p: AddamsParameters, s, order: int = 1):
    """Analytic first or second derivative of the Laplace transform.

    Identities: -L'(0) = mu and L''(0) = mu^2 (1 + gamma).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    s_arr = np.asarray(s, dtype=float)
    l_val = np.exp(np.asarray(log_laplace(p, s_arr), dtype=float))
    h = _h(p, s_arr)
    g1 = -p.mu * h
    if order == 1:
        out = l_val * g1
    else:
        out = l_val * (_conditional_var(p, s_arr, h) + g1 * g1)
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def conditional_moments(p: AddamsParameters, cum_hazard):
    """Mean, variance and RFV of the frailty among survivors.

    ``cum_hazard`` is the total conditioning cumulative hazard.  Returns
    ``(cond_mean, cond_var, rfv)`` with cond_mean = -L'(.)/L(.) and
    rfv = cond_var / cond_mean^2 = gamma exp(alpha mu s), which is +inf
    in the limit on the cure branches.
    """
    s_arr = np.asarray(cum_hazard, dtype=float)
    if np.any(s_arr < 0):
        raise InvalidParameters("cumulative hazard must be >= 0")
    h = _h(p, s_arr)
    cond_mean = p.mu * h
    cond_var = _conditional_var(p, s_arr, h)
    rfv_val = rfv(p, s_arr)
    if np.isscalar(cum_hazard) or np.ndim(cum_hazard) == 0:
        return float(cond_mean), float(cond_var), float(rfv_val)
    return cond_mean, cond_var, rfv_val


def rfv(p: AddamsParameters, cum_hazard):
    """Closed-form relative frailty variance gamma * exp(alpha mu Lambda)."""
    s_arr = np.asarray(cum_hazard, dtype=float)
    with np.errstate(over="ignore"):
        out = p.gamma * np.exp(p.alpha * p.mu * s_arr)
    return float(out) if np.isscalar(cum_hazard) or np.ndim(cum_hazard) == 0 else out


# ---------------------------------------------------------------------------
# Discrete support
# ---------------------------------------------------------------------------

def count_distribution(branch: FrailtyBranch):
    """Frozen scipy distribution of the underlying count variable M.

    The frailty is ``psi * (nu + M)`` on the shifted branch and ``psi * M``
    otherwise.  The negative binomial convention is
    P(M = m) = C(m + nu - 1, m) pi^nu (1 - pi)^m.
    """
    if branch.kind is BranchKind.GAMMA_LIMIT:
        raise ContinuousBranch("gamma limit has no count distribution")
    if branch.kind in (
        BranchKind.SHIFTED_SCALED_NEG_BINOMIAL,
        BranchKind.SCALED_NEG_BINOMIAL,
    ):
        return stats.nbinom(branch.nu, branch.pi)
    if branch.kind is BranchKind.SCALED_POISSON:
        return stats.poisson(branch.lambda_star)
    return stats.binom(branch.b, branch.pi)


def support_value(branch: FrailtyBranch, k: int) -> float:
    """z_(k), the k-th ordered support point (1-based)."""
    if not branch.is_discrete:
        raise ContinuousBranch("gamma limit has continuous support")
    if k < 1:
        raise ValueError("k must be >= 1")
    if branch.kind is BranchKind.SCALED_BINOMIAL and k > branch.b + 1:
        raise OutOfSupport(f"k = {k} beyond binomial support of {branch.b + 1} points")
    if branch.kind is BranchKind.SHIFTED_SCALED_NEG_BINOMIAL:
        return branch.psi * (branch.nu + k - 1)
    return branch.psi * (k - 1)


def support_and_pmf(branch: FrailtyBranch, k_max: int):
    """First ``k_max`` support points with probabilities and cumulatives."""
    if not branch.is_discrete:
        raise ContinuousBranch("gamma limit has continuous support")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if branch.kind is BranchKind.SCALED_BINOMIAL:
        k_max = min(k_max, branch.b + 1)
    dist = count_distribution(branch)
    ms = np.arange(k_max)
    probs = dist.pmf(ms)
    cums = dist.cdf(ms)
    return [
        SupportPoint(
            k=int(m + 1),
            z=support_value(branch, int(m + 1)),
            prob=float(probs[m]),
            cum_prob=float(cums[m]),
        )
        for m in ms
    ]
