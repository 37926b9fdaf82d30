"""The Addams family of frailty distributions.

The family is parameterized by ``(alpha, gamma, mu)``: ``gamma`` is the
relative frailty variance (RFV) at time zero, ``alpha`` the slope parameter
of the log-RFV, and ``mu = E(Z)`` the frailty mean.  The values of alpha
and gamma alone select the member distribution:

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
limits.  The limits are taken at exact values: alpha = gamma is the Poisson
case, and alpha = 0, or an alpha so small that gamma/alpha overflows, the
gamma case.  Every other alpha goes through one log-space closed form that
keeps its digits up to both removable singularities, and
:func:`log_laplace_partials` gives the partials of log L in alpha, gamma,
mu and s in one form that divides by neither alpha nor alpha - gamma, and
:func:`log_laplace_second_partials` the second partials in (mu s, alpha,
gamma) under the same rule.
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
    "log_laplace_partials",
    "log_laplace_second_partials",
    "laplace_derivative",
    "conditional_moments",
    "rfv",
    "support_value",
    "support_and_pmf",
]

_BINOMIAL_INT_TOL = 1e-9


class BranchKind(Enum):
    SHIFTED_SCALED_NEG_BINOMIAL = "shifted-scaled-negative-binomial"
    GAMMA_LIMIT = "gamma-limit"
    SCALED_POISSON = "scaled-poisson"
    SCALED_NEG_BINOMIAL = "scaled-negative-binomial"
    SCALED_BINOMIAL = "scaled-binomial"


@dataclass(frozen=True)
class AddamsParameters:
    """One stratum's frailty law; alpha and gamma select the member."""

    alpha: float
    gamma: float
    mu: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha)):
            raise InvalidParameters(f"alpha must be finite, got {self.alpha}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InvalidParameters(f"gamma must be > 0, got {self.gamma}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise InvalidParameters(f"mu must be > 0, got {self.mu}")
        if self.alpha > self.gamma:
            _integer_trials(self.alpha, self.gamma)  # raises InvalidBinomial


@dataclass(frozen=True)
class FrailtyBranch:
    """Classified family member with its derived distribution parameters.

    Fields that do not apply to a branch are ``None`` (e.g. ``b`` outside the
    scaled-binomial case).  ``psi`` is the scale ``mu * |alpha|``.  The
    support is z_(k) = psi (shift + k - 1) for k = 1..n_support: ``shift``
    is nu on the shifted negative binomial and 0 elsewhere, and
    ``n_support`` is b + 1 on the binomial and unbounded elsewhere.
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
    shift: float = 0.0
    n_support: float = math.inf

    @property
    def is_discrete(self) -> bool:
        return self.kind is not BranchKind.GAMMA_LIMIT

    @property
    def has_cure_fraction(self) -> bool:
        """P(Z = 0) > 0, i.e. the lowest risk category is non-susceptible."""
        return self.is_discrete and self.alpha > 0


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


def _is_gamma_limit(a: float, g: float) -> bool:
    """alpha = 0, or alpha so small that gamma / alpha overflows.

    There the closed form cannot be evaluated, and the gamma limit is
    within |alpha| mu s of log L.
    """
    return a == 0.0 or math.isinf(g / a)


def classify_branch(p: AddamsParameters) -> FrailtyBranch:
    """Map (alpha, gamma, mu) to the family member it selects."""
    a, g, m = p.alpha, p.gamma, p.mu
    if _is_gamma_limit(a, g):
        return FrailtyBranch(
            BranchKind.GAMMA_LIMIT, a, g, m, gamma_star=1.0 / (m * g)
        )
    if a == g:
        return FrailtyBranch(
            BranchKind.SCALED_POISSON, a, g, m, psi=m * g, lambda_star=1.0 / g
        )
    if a < 0:
        nu = 1.0 / (g - a)
        return FrailtyBranch(
            BranchKind.SHIFTED_SCALED_NEG_BINOMIAL,
            a, g, m,
            psi=m * (-a), nu=nu, pi=-a / (g - a), shift=nu,
        )
    if a < g:
        return FrailtyBranch(
            BranchKind.SCALED_NEG_BINOMIAL,
            a, g, m,
            psi=m * a, nu=1.0 / (g - a), pi=a / g,
        )
    b = _integer_trials(a, g)
    return FrailtyBranch(
        BranchKind.SCALED_BINOMIAL, a, g, m, psi=m * a, b=b, pi=(a - g) / a,
        n_support=b + 1,
    )


# ---------------------------------------------------------------------------
# Laplace transform
# ---------------------------------------------------------------------------

def _log_laplace_general(a: float, g: float, m: float, s: np.ndarray) -> np.ndarray:
    # A = 1 + c with c = ((a - g)/a) expm1(-x): where c is small, log1p
    # keeps the digits that log(A) loses at small x and that the division
    # by (a - g) exposes near a = g
    x = a * m * s
    if a < 0:
        # A = exp(-x) (1 + (g/a) expm1(x)) with x <= 0: exp(-x) may overflow,
        # so take log A = -x + log1p((g/a) expm1(x)), a sum of two terms >= 0
        # that loses nothing at any x
        return (-x + np.log1p((g / a) * np.expm1(x))) / (a - g)
    em1 = np.expm1(-x)
    correction = ((a - g) / a) * em1
    bracket = np.exp(-x) - (g / a) * em1
    # log1p while |c| < 0.5, as (log1p(c) - c) / (a - g) + expm1(-x) / a, so no
    # subnormal c (near a = g at tiny s) is divided; beyond, the log of the
    # sum of positive terms loses nothing
    return np.where(np.abs(correction) < 0.5,
                    (np.log1p(correction) - correction) / (a - g) + em1 / a,
                    np.log(bracket) / (a - g))


def log_laplace(p: AddamsParameters, s):
    """log L(s) of the family, valid for scalar or array ``s >= 0``."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise InvalidParameters("Laplace transform argument must be >= 0")
    a, g, m = p.alpha, p.gamma, p.mu
    if _is_gamma_limit(a, g):
        out = -np.log1p(g * m * s_arr) / g
    elif a == g:
        out = np.expm1(-g * m * s_arr) / g
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
    if _is_gamma_limit(a, g):
        return 1.0 / (1.0 + g * m * s_arr)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + (g / a) * np.expm1(a * m * s_arr))


# below these arguments the removable cancellations of (expm1(x) - x) / x^2
# and of (log1p(q) - q / (1 + q)) / q^2 are summed as Taylor series; at the
# spans the closed forms lose about 8 and 5 bits, and the series' first
# omitted terms are below 1e-16 relative
_PHI2_SPAN = 0.01
_PHI2_SERIES = np.array([1.0 / math.factorial(k + 2) for k in range(6)])
_PSI_SPAN = 0.05
_PSI_SERIES = np.array([(-1.0) ** n * (n - 1) / n for n in range(2, 16)])
# E1''(y), E1(y) = expm1(y) / y, whose closed form loses 6 / y^2 ulps, is
# summed where |y| < 0.5, and k''(q), k(q) = log1p(q) / q, over psi's span
_E1PP_SPAN = 0.5
_E1PP_SERIES = np.array([(k + 2) * (k + 1) / math.factorial(k + 3) for k in range(17)])
_KPP_SERIES = np.array([(-1.0) ** n * n * (n - 1) / (n + 1) for n in range(2, 16)])
# d log L / d alpha is O((mu s)^3) while the two terms of its closed form are
# O((mu s)^2) and cancel to a relative eps / (gamma mu s); while gamma mu s
# and |alpha| mu s are below these spans it is summed as a power series in
# mu s instead, whose terms fall geometrically in gamma mu s and
# factorially in alpha mu s
_ALPHA_SERIES_SPAN = 1e-2
_ALPHA_SERIES_X_SPAN = 0.1
_ALPHA_SERIES_TERMS = 10


def _alpha_series(a: float, g: float, second: bool = False):
    """c with d log L / d alpha = u^3 sum_n c_n u^n, u = mu s, and with
    ``second`` set also c2 with d^2 log L / d alpha^2 = u^4 sum_n c2_n u^n.

    log L = -int_0^u h(v) dv with h = 1 / (1 + g e(v)) and e(v) =
    expm1(a v) / a = sum_k a^(k-1) v^k / k!; the coefficients of h and of
    its alpha derivatives follow from the reciprocal series.
    """
    n_max = _ALPHA_SERIES_TERMS + 2
    e = [0.0] + [a ** (k - 1) / math.factorial(k) for k in range(1, n_max + 1)]
    e_a = [0.0, 0.0] + [(k - 1) * a ** (k - 2) / math.factorial(k) for k in range(2, n_max + 1)]
    h, h_a = [1.0], [0.0]
    for n in range(1, n_max + 1):
        h.append(-g * sum(e[k] * h[n - k] for k in range(1, n + 1)))
        h_a.append(-g * sum(e_a[k] * h[n - k] + e[k] * h_a[n - k] for k in range(1, n + 1)))
    c = np.array([-h_a[n] / (n + 1) for n in range(2, n_max + 1)])
    if not second:
        return c
    e_aa = [0.0] * 3 + [(k - 1) * (k - 2) * a ** (k - 3) / math.factorial(k)
                        for k in range(3, n_max + 1)]
    h_aa = [0.0]
    for n in range(1, n_max + 1):
        h_aa.append(-g * sum(e_aa[k] * h[n - k] + 2.0 * e_a[k] * h_a[n - k] + e[k] * h_aa[n - k]
                             for k in range(1, n + 1)))
    return c, np.array([-h_aa[n] / (n + 1) for n in range(3, n_max + 1)])


def _psi_limit(a: float, g: float) -> float:
    """u below which |q| < _PSI_SPAN; |q| grows with u = mu s on every branch."""
    d = a - g
    if _is_gamma_limit(a, g):
        return _PSI_SPAN / g
    if a < 0.0:
        return math.log1p(_PSI_SPAN * a / d) / -a
    # |q| = |D / alpha| (1 - exp(-alpha u)) < |D / alpha|
    c = _PSI_SPAN * a / abs(d) if d else math.inf
    return -math.log1p(-c) / a if c < 1.0 else math.inf


def log_laplace_partials(p: AddamsParameters, s, log_l, alpha: bool = True):
    """Partials of log L(s) in alpha and gamma, and h, which gives those in mu and s.

    Returns ``(d_alpha, d_gamma, h)`` shaped like ``s``, at
    ``log_l = log_laplace(p, s)``: d log L / d mu = -s h and
    d log L / ds = -mu h, with h as in :func:`_h`, which a caller folds into
    its sums.  With u = mu s, x = alpha u, D = alpha - gamma,
    r = expm1(-x) / alpha = -u expm1(-x) / (-x) and q = D r, the transform
    is L = (1 + q)^(1/D), h = exp(-x) / (1 + q), and

        d_gamma = (log L - q / ((1 + q) D)) / D = r^2 psi(q),
                  psi(q) = (log1p(q) - q / (1 + q)) / q^2,
        d_alpha = h (expm1(x) - x) / alpha^2 - d_gamma
                = h u^2 phi2(x) - d_gamma,   phi2(x) = (expm1(x) - x) / x^2.

    The r^2 psi(q) and u^2 phi2(x) forms divide by neither D nor alpha, so
    one evaluation serves every member: the gamma limit (alpha = 0, or
    gamma / alpha overflows) is r = -u, the Poisson limit q = 0, and alpha
    near 0 needs no expansion.  Each sign of alpha takes the exponentials
    that cannot overflow: q / (1 + q) = (-D / alpha) h expm1(x) for alpha < 0,
    and h = exp(-x) / (exp(-x) - (gamma / alpha) expm1(-x)) for alpha > 0.
    The quotient forms, cheaper, serve where they keep their digits; the
    series serve where an entry needs them, each over an interval of u
    from 0: psi where |q| < 0.05, phi2 where |x| < 0.01, and d_alpha, which
    is O(u^3) while its two terms are O(u^2), as the power series of
    :func:`_alpha_series` where gamma u <= 1e-2 and |alpha| u <= 0.1.
    Without ``alpha`` (a caller whose alpha does not move), d_alpha is None
    and is not computed.
    """
    shape = np.shape(s)
    s_arr = np.asarray(s, dtype=float).reshape(-1)
    s_min = _positive_min(s_arr)
    h, t, lead, d_gamma = _first_order(p, s_arr, np.asarray(log_l, dtype=float).reshape(-1),
                                       s_min, alpha)
    d_alpha = _alpha_partial(p, s_arr, s_min, lead, d_gamma, out=lead) if alpha else None
    return tuple(None if v is None else v.reshape(shape) for v in (d_alpha, d_gamma, h))


def _positive_min(s_arr: np.ndarray) -> float:
    """The least positive entry: the series regions are s below a bound, and
    at s = 0 the closed forms give the exact zeros."""
    s_min = float(s_arr.min()) if s_arr.size else math.inf
    if s_min == 0.0:
        s_min = float(np.min(s_arr, where=s_arr > 0.0, initial=math.inf))
    return s_min


def _first_order(p: AddamsParameters, s_arr: np.ndarray, log_l: np.ndarray, s_min: float,
                 alpha: bool):
    """(h, t, lead, d_gamma) of :func:`log_laplace_partials`, flat, with
    t = -q / ((1 + q) D) = h expm1(x) / alpha and lead = h (expm1(x) - x) /
    alpha^2, or None without ``alpha``."""
    a, g, m = p.alpha, p.gamma, p.mu
    d = a - g
    gamma_limit = _is_gamma_limit(a, g)
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
                h = (g / a) * e
                h += 1.0
                h = np.reciprocal(h, out=h)
                t = e * h
                t /= a
                if alpha:
                    lead = e - x
                    lead *= h
            else:
                em = np.expm1(-x)
                ex = np.exp(-x)
                one_plus_q = ex - (g / a) * em     # a sum of two terms >= 0
                h = ex / one_plus_q
                t = em / one_plus_q
                t /= -a
                if alpha:
                    # h (expm1(x) - x) = -(expm1(-x) + x exp(-x)) / (1 + q)
                    lead = x * ex
                    lead += em
                    lead /= one_plus_q
                    lead *= -1.0
            if alpha:
                lead /= a       # twice: a * a underflows to 0 for |alpha| < 1.5e-154
                lead /= a
                limit = _PHI2_SPAN / abs(a) / m
                if s_min < limit:
                    small = s_arr < limit
                    v = m * s_arr[small]
                    lead[small] = v * v * h[small] * np.polynomial.polynomial.polyval(
                        a * v, _PHI2_SERIES)
        if d:
            d_gamma = log_l + t
            d_gamma *= 1.0 / d
        else:
            d_gamma = np.empty_like(s_arr)
        limit = _psi_limit(a, g) / m
        if s_min < limit:
            small = s_arr < limit
            v = m * s_arr[small]
            r = -v if gamma_limit else np.expm1(-a * v) / a
            d_gamma[small] = r * r * np.polynomial.polynomial.polyval(d * r, _PSI_SERIES)
    return h, t, lead, d_gamma


def _alpha_series_limit(p: AddamsParameters) -> float:
    """s up to which :func:`_alpha_series` serves: gamma u <= 1e-2, |alpha| u <= 0.1."""
    a, g = p.alpha, p.gamma
    return min(_ALPHA_SERIES_SPAN / g, _ALPHA_SERIES_X_SPAN / abs(a) if a else math.inf) / p.mu


def _alpha_partial(p: AddamsParameters, s_arr: np.ndarray, s_min: float, lead: np.ndarray,
                   d_gamma: np.ndarray, out=None) -> np.ndarray:
    """d_alpha = lead - d_gamma, and the power series where those cancel."""
    d_alpha = np.subtract(lead, d_gamma, out=out)
    limit = _alpha_series_limit(p)
    if s_min <= limit:
        series = s_arr <= limit
        v = p.mu * s_arr[series]
        d_alpha[series] = v ** 3 * np.polynomial.polynomial.polyval(
            v, _alpha_series(p.alpha, p.gamma))
    return d_alpha


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


def log_laplace_second_partials(p: AddamsParameters, s, log_l, alpha: bool = True):
    """First and second partials of log L in (u = mu s, alpha, gamma).

    Returns ``(first, second)`` at ``log_l = log_laplace(p, s)``:
    ``first`` is :func:`log_laplace_partials`' ``(d_alpha, d_gamma, h)``
    (d log L / du = -h) and ``second`` is ``(uu, ua, ug, aa, ag, gg)``, each
    shaped like ``s``; without ``alpha`` the entries in alpha are None.
    With t = h expm1(x) / alpha, lead = h (expm1(x) - x) / alpha^2 and
    r, q, D as in :func:`log_laplace_partials`:

        uu = Var(Z | survival) / mu^2 = h (alpha - D h) = gamma h^2 exp(x),
        ua = uu u^2 phi2(-x),                ug = h t,
        gg = (2 d_gamma - t^2) / D = r^3 k''(q),   k(q) = log1p(q) / q,
        ag = -t lead - gg,
        aa = M - D lead^2 + 2 t lead + gg,   M = (d^2 r / d alpha^2) / (1 + q).

    uu is :func:`_conditional_var` over mu^2.  As in the first partials,
    nothing divides by D or by alpha where they vanish: gg takes the
    series of k'' where |q| < 0.05 (D = 0 included), ua the series of phi2
    where |x| < 0.01, M that of E1''(y), E1(y) = expm1(y) / y, where
    |x| < 0.5, and aa, which is O(gamma u^4) while its terms are O(u^3),
    the power series of :func:`_alpha_series` where gamma u <= 1e-2 and
    |alpha| u <= 0.1.  For alpha < 0, M and D lead^2 both grow as u^2
    while their difference stays bounded, so beyond the series M - D lead^2
    is taken as (h / alpha^2)^2 B, B = alpha (2 x e^x - expm1(2x)) +
    gamma (x e^x x - expm1(x)^2), which is D at x = -inf.
    """
    shape = np.shape(s)
    s_arr = np.asarray(s, dtype=float).reshape(-1)
    a, g, m = p.alpha, p.gamma, p.mu
    d = a - g
    gamma_limit = _is_gamma_limit(a, g)
    s_min = _positive_min(s_arr)
    h, t, lead, d_gamma = _first_order(p, s_arr, np.asarray(log_l, dtype=float).reshape(-1),
                                       s_min, alpha)
    d_alpha = _alpha_partial(p, s_arr, s_min, lead, d_gamma) if alpha else None
    ug = h * t
    ua = aa = ag = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if d:
            gg = 2.0 * d_gamma
            gg -= t * t
            gg /= d
        else:
            gg = np.empty_like(s_arr)
        limit = _psi_limit(a, g) / m
        if s_min < limit:
            small = s_arr < limit
            v = m * s_arr[small]
            r = -v if gamma_limit else np.expm1(-a * v) / a
            gg[small] = r * r * r * np.polynomial.polynomial.polyval(d * r, _KPP_SERIES)
        if gamma_limit:
            uu = g * h * h
            if alpha:
                # M = -u^2 t / 3 and lead = u t / 2
                u = m * s_arr
                ua = 0.5 * g * t * t
                aa = u * u
                aa *= t
                aa *= -(1.0 / 3.0 + 0.25 * d * t)
        else:
            x = a * m * s_arr
            if a < 0.0:
                ex = np.exp(x)
                g_hh = h * h
                g_hh *= g
                uu = g_hh * ex
                if alpha:
                    e = np.expm1(x)
                    xe = x * ex
                    ua = xe - e
                    ua *= g_hh
                    aa = 2.0 * xe
                    aa -= np.expm1(2.0 * x)
                    aa *= a
                    xe *= x
                    xe -= e * e
                    xe *= g
                    aa += xe
                    hc = h / a
                    hc /= a
                    aa *= hc
                    aa *= hc
            else:
                uu = h * (a - d * h)
                if alpha:
                    em = np.expm1(-x)
                    ex = np.exp(-x)
                    ua = x + em
                    ua *= uu
                    aa = x * ex
                    aa *= x + 2.0
                    aa += 2.0 * em
                    aa /= ex - (g / a) * em
                    aa /= a     # thrice: alpha^3 underflows for |alpha| < 1e-103
                    aa /= a
                    aa /= a
                    aa -= d * lead * lead
            if alpha:
                ua /= a
                ua /= a
                limit = _PHI2_SPAN / abs(a) / m
                if s_min < limit:
                    small = s_arr < limit
                    v = m * s_arr[small]
                    ua[small] = uu[small] * v * v * np.polynomial.polynomial.polyval(
                        -a * v, _PHI2_SERIES)
                limit = _E1PP_SPAN / abs(a) / m
                if s_min < limit:
                    small = s_arr < limit
                    v = m * s_arr[small]
                    lead_small = lead[small]
                    aa[small] = -(v * v * v) * h[small] * np.exp(a * v) * \
                        np.polynomial.polynomial.polyval(-a * v, _E1PP_SERIES) \
                        - d * lead_small * lead_small
        if alpha:
            ag = t * lead
            aa += 2.0 * ag
            aa += gg
            ag += gg
            ag *= -1.0
            limit = _alpha_series_limit(p)
            if s_min <= limit:
                series = s_arr <= limit
                v = m * s_arr[series]
                aa[series] = v ** 4 * np.polynomial.polynomial.polyval(
                    v, _alpha_series(a, g, second=True)[1])
    first = (d_alpha, d_gamma, h)
    second = (uu, ua, ug, aa, ag, gg)
    return tuple(tuple(None if v is None else v.reshape(shape) for v in group)
                 for group in (first, second))


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

def _count_law(branch: FrailtyBranch):
    """(scipy generator, shape arguments) of the underlying count variable
    M: ``dist.cdf(k, *args)`` is the frozen ``dist(*args).cdf(k)`` bit for
    bit, without the freeze, which rebuilds the generator's class.

    The frailty is ``psi * (shift + M)``.  The negative binomial convention is
    P(M = m) = C(m + nu - 1, m) pi^nu (1 - pi)^m.
    """
    if branch.kind is BranchKind.GAMMA_LIMIT:
        raise ContinuousBranch("gamma limit has no count distribution")
    if branch.kind in (BranchKind.SHIFTED_SCALED_NEG_BINOMIAL, BranchKind.SCALED_NEG_BINOMIAL):
        return stats.nbinom, (branch.nu, branch.pi)
    if branch.kind is BranchKind.SCALED_POISSON:
        return stats.poisson, (branch.lambda_star,)
    return stats.binom, (branch.b, branch.pi)


def support_value(branch: FrailtyBranch, k: int) -> float:
    """z_(k), the k-th ordered support point (1-based)."""
    if not branch.is_discrete:
        raise ContinuousBranch("gamma limit has continuous support")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > branch.n_support:
        raise OutOfSupport(f"k = {k} beyond the support of {branch.n_support} points")
    return branch.psi * (branch.shift + k - 1)


def support_and_pmf(branch: FrailtyBranch, k_max: int):
    """First ``k_max`` support points, at most ``n_support``, with
    probabilities and cumulatives."""
    if not branch.is_discrete:
        raise ContinuousBranch("gamma limit has continuous support")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k_max = min(k_max, branch.n_support)
    dist, args = _count_law(branch)
    ms = np.arange(k_max)
    probs = dist.pmf(ms, *args)
    cums = dist.cdf(ms, *args)
    return [
        SupportPoint(
            k=int(m + 1),
            z=support_value(branch, int(m + 1)),
            prob=float(probs[m]),
            cum_prob=float(cums[m]),
        )
        for m in ms
    ]
