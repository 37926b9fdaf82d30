"""Baseline hazards, covariate effects and the frailty-parameter links.

Time is in years.  Baselines expose ``cumulative(t)`` and its inverse
``invert(target)`` (the simulator's inverse transform), both vectorized,
and a log-scale parameter vector used by the flat optimization layout.
Baselines that are linear in their rates (piecewise constant, exponential)
also expose ``exposure(t)``, the time spent in each rate interval, so that
``cumulative(t) == exposure(t) @ rate_vector`` with the log-parameters
being ``log(rate_vector)``.

:func:`_central_jacobian` is the package's one finite-difference engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from scipy import special

from .errors import (
    InvalidParameters,
    InvalidRegion,
    NegativeTime,
    UnknownStratum,
)
from .family import AddamsParameters

__all__ = [
    "PiecewiseConstantBaseline",
    "ExponentialBaseline",
    "WeibullBaseline",
    "GeneralizedGammaBaseline",
    "LinearPredictor",
    "FrailtyLink",
    "BranchRegime",
    "ModelSpec",
    "PIENTER2_CUTPOINTS",
]

#: Named preset for the age-band grid used in the serological application.
PIENTER2_CUTPOINTS = (0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 65.0)


def _check_times(t):
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise NegativeTime("evaluation time must be >= 0")
    return t_arr


def _check_targets(target):
    x = np.asarray(target, dtype=float)
    if np.any(x < 0):
        raise InvalidParameters("cumulative hazard target must be >= 0")
    return x


def _as_output(t, values):
    return float(values) if np.ndim(t) == 0 else values


def _central_steps(theta) -> np.ndarray:
    """The score's and the Hessian's difference steps, 1e-4 max(1, |theta_i|)."""
    return 1e-4 * np.maximum(1.0, np.abs(theta))


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


@dataclass(frozen=True)
class PiecewiseConstantBaseline:
    """Piecewise-constant hazard; the last interval extends to +inf.

    Ties at cutpoints are right-closed: the cumulative hazard at a cutpoint
    includes the full preceding interval only.
    """

    cutpoints: Tuple[float, ...]
    rates: Tuple[float, ...]

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cutpoints)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "cutpoints", cuts)
        object.__setattr__(self, "rates", rates)
        if len(cuts) != len(rates):
            raise InvalidParameters("need one rate per interval")
        if not cuts or cuts[0] != 0.0:
            raise InvalidParameters("cutpoints must start at 0")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise InvalidParameters("cutpoints must be strictly increasing")
        if any(r <= 0 or not math.isfinite(r) for r in rates):
            raise InvalidParameters("all rates must be > 0")

    @cached_property
    def _knots(self) -> np.ndarray:
        """Cumulative hazard at each cutpoint, computed once per baseline."""
        cuts = np.asarray(self.cutpoints)
        rates = np.asarray(self.rates)
        widths = np.diff(cuts)
        return np.concatenate([[0.0], np.cumsum(rates[:-1] * widths)])

    def cumulative(self, t):
        t_arr = _check_times(t)
        cuts = np.asarray(self.cutpoints)
        rates = np.asarray(self.rates)
        idx = np.clip(np.searchsorted(cuts, t_arr, side="right") - 1, 0, len(rates) - 1)
        return _as_output(t, self._knots[idx] + rates[idx] * (t_arr - cuts[idx]))

    def exposure(self, t) -> np.ndarray:
        """[n, intervals] time spent in each interval up to each of ``t``."""
        t_arr = _check_times(np.atleast_1d(t))
        cuts = np.asarray(self.cutpoints)
        widths = np.append(np.diff(cuts), np.inf)
        # built interval-major, so each elementwise loop runs over the times
        return np.clip(t_arr[None, :] - cuts[:, None], 0.0, widths[:, None]).T

    @property
    def rate_vector(self) -> np.ndarray:
        return np.asarray(self.rates)

    def invert(self, target):
        x = _check_targets(target)
        knots, cuts, rates = self._knots, np.asarray(self.cutpoints), np.asarray(self.rates)
        idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(rates) - 1)
        return _as_output(target, cuts[idx] + (x - knots[idx]) / rates[idx])

    # flat-layout interface -------------------------------------------------
    @property
    def log_params(self) -> np.ndarray:
        return np.log(self.rates)

    def with_log_params(self, values: np.ndarray) -> "PiecewiseConstantBaseline":
        return replace(self, rates=tuple(np.exp(values)))

    @property
    def param_names(self):
        return [f"rate[{c:g}+]" for c in self.cutpoints]


@dataclass(frozen=True)
class ExponentialBaseline:
    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise InvalidParameters("rate must be > 0")

    def cumulative(self, t):
        t_arr = _check_times(t)
        return _as_output(t, self.rate * t_arr)

    def exposure(self, t) -> np.ndarray:
        return _check_times(np.atleast_1d(t))[:, None]

    @property
    def rate_vector(self) -> np.ndarray:
        return np.array([self.rate])

    def invert(self, target):
        return _as_output(target, _check_targets(target) / self.rate)

    @property
    def log_params(self) -> np.ndarray:
        return np.array([math.log(self.rate)])

    def with_log_params(self, values: np.ndarray) -> "ExponentialBaseline":
        return replace(self, rate=float(np.exp(values[0])))

    @property
    def param_names(self):
        return ["rate"]


@dataclass(frozen=True)
class WeibullBaseline:
    shape: float
    scale: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.shape, self.scale)):
            raise InvalidParameters("shape and scale must be finite and > 0")

    def cumulative(self, t):
        t_arr = _check_times(t)
        return _as_output(t, (t_arr / self.scale) ** self.shape)

    def invert(self, target):
        return _as_output(target, self.scale * _check_targets(target) ** (1.0 / self.shape))

    @property
    def log_params(self) -> np.ndarray:
        return np.log([self.shape, self.scale])

    def with_log_params(self, values: np.ndarray) -> "WeibullBaseline":
        vals = np.exp(values)
        return replace(self, shape=float(vals[0]), scale=float(vals[1]))

    @property
    def param_names(self):
        return ["shape", "scale"]


@dataclass(frozen=True)
class GeneralizedGammaBaseline:
    """Stacy's generalized gamma as a baseline event-time law.

    Parameterization: survival S(t) = Q(k, (t/scale)^power) with Q the
    regularized upper incomplete gamma function.  ``power = q`` and
    ``k`` are the two shapes; k = 1 recovers the Weibull and power = 1
    the gamma hazard.
    """

    power: float
    k: float
    scale: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.power, self.k, self.scale)):
            raise InvalidParameters("all generalized-gamma parameters must be finite and > 0")

    def cumulative(self, t):
        # -log Q(k, y) is -log1p(-P) while P = 1 - Q <= 1/2: the log of Q
        # itself loses every digit as Q nears 1, at small hazards
        y = (_check_times(t) / self.scale) ** self.power
        p = special.gammainc(self.k, y)
        lower = -np.log1p(-np.minimum(p, 0.5))
        return _as_output(t, np.where(p <= 0.5, lower, -np.log(special.gammaincc(self.k, y))))

    def invert(self, target):
        h = _check_targets(target)
        p = -np.expm1(-h)
        y = np.where(p <= 0.5, special.gammaincinv(self.k, np.minimum(p, 0.5)),
                     special.gammainccinv(self.k, np.exp(-h)))
        return _as_output(target, self.scale * np.power(y, 1.0 / self.power))

    @property
    def log_params(self) -> np.ndarray:
        return np.log([self.power, self.k, self.scale])

    def with_log_params(self, values: np.ndarray) -> "GeneralizedGammaBaseline":
        vals = np.exp(values)
        return replace(self, power=float(vals[0]), k=float(vals[1]), scale=float(vals[2]))

    @property
    def param_names(self):
        return ["power", "k", "scale"]


@dataclass(frozen=True)
class LinearPredictor:
    """Proportional-hazards linear predictor x' beta for one unit."""

    covariate_names: Tuple[str, ...] = ()
    coefficients: Tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.covariate_names) != len(self.coefficients):
            raise InvalidParameters("covariate names and coefficients must align")
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    def with_coefficients(self, values) -> "LinearPredictor":
        return replace(self, coefficients=tuple(float(v) for v in values))


@dataclass(frozen=True)
class BranchRegime:
    """Per-stratum pin on the branch of the family.

    kind "free" leaves alpha unconstrained below gamma; "gamma" pins
    alpha = 0; "poisson" pins alpha = gamma; "binomial" pins
    alpha = gamma + 1/b for a user-fixed integer b (never estimated).
    """

    kind: str = "free"
    b: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("free", "gamma", "poisson", "binomial"):
            raise InvalidParameters(f"unknown regime kind {self.kind!r}")
        if self.kind == "binomial":
            if self.b is None or int(self.b) < 1:
                raise InvalidParameters("binomial regime needs an integer b >= 1")
            object.__setattr__(self, "b", int(self.b))
        elif self.b is not None:
            raise InvalidParameters("b only applies to the binomial regime")

    @property
    def moves_alpha(self) -> bool:
        """Whether alpha moves with the link coefficients: under every pin
        but the gamma limit's."""
        return self.kind != "gamma"

    def law(self, alpha: float, gamma: float, mu: float) -> AddamsParameters:
        """The stratum's frailty law at the raw link values, the pin applied.

        A free stratum raises :class:`InvalidRegion` at alpha >= gamma,
        which only the pins reach.
        """
        if self.kind == "gamma":
            alpha = 0.0
        elif self.kind == "poisson":
            alpha = gamma
        elif self.kind == "binomial":
            alpha = gamma + 1.0 / self.b
        elif alpha >= gamma:
            raise InvalidRegion(
                f"free regime requires alpha < gamma (alpha={alpha}, gamma={gamma})"
            )
        return AddamsParameters(alpha, gamma, mu)

    def jacobian(self, x: np.ndarray, gamma: float, mu: float,
                 mu_pinned: bool) -> Dict[str, np.ndarray]:
        """d(alpha, gamma, mu) / d(beta0, zeta, kappa) of :meth:`law` at the
        stratum's design row ``x``.

        One 3 x p block per coefficient vector, rows (alpha, gamma, mu).  A
        gamma pin holds alpha at 0, the Poisson and binomial pins move alpha
        with gamma, and a pinned mu moves with nothing.
        """
        beta0, zeta, kappa = np.zeros((3, 3, x.size))
        if not mu_pinned:
            beta0[2] = mu * x
        if self.kind == "free":
            zeta[0] = x
        kappa[1] = gamma * x
        if self.kind in ("poisson", "binomial"):
            kappa[0] = kappa[1]
        return {"beta0": beta0, "zeta": zeta, "kappa": kappa}


def _link_values(x: np.ndarray, zeta: np.ndarray, kappa: np.ndarray, beta0: np.ndarray,
                 mu_pinned: bool) -> Tuple[float, float, float]:
    """(alpha, gamma, mu) = (x' zeta, exp(x' kappa), exp(x' beta0)) at the
    design row ``x``, with mu = 1 where it is pinned."""
    alpha = float(x @ zeta)
    gamma = float(np.exp(x @ kappa))
    mu = 1.0 if mu_pinned else float(np.exp(x @ beta0))
    return alpha, gamma, mu


@dataclass(frozen=True)
class FrailtyLink:
    """Covariate links for the frailty parameters per stratum.

    alpha = x' zeta (identity link), gamma = exp(x' kappa), mu = exp(x' beta0),
    where x is the stratum's design row.  Boolean masks mark which
    coefficients are free during optimization.  When ``pin_reference_mu`` is
    set the reference stratum's mu is forced to one.
    """

    design: Mapping[str, Tuple[float, ...]]
    zeta: Tuple[float, ...]
    kappa: Tuple[float, ...]
    beta0: Tuple[float, ...]
    reference: str
    zeta_free: Tuple[bool, ...] = ()
    kappa_free: Tuple[bool, ...] = ()
    beta0_free: Tuple[bool, ...] = ()
    pin_reference_mu: bool = True

    def __post_init__(self):
        design = {lvl: tuple(float(v) for v in row) for lvl, row in self.design.items()}
        object.__setattr__(self, "design", design)
        if self.reference not in design:
            raise InvalidParameters(f"reference level {self.reference!r} not in design")
        ncol = {len(row) for row in design.values()}
        if len(ncol) != 1:
            raise InvalidParameters("all design rows must share one column count")
        p = ncol.pop()
        for name in ("zeta", "kappa", "beta0"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) != p:
                raise InvalidParameters(f"{name} must have {p} coefficients")
            object.__setattr__(self, name, vec)
        for name, default_free in (
            ("zeta_free", True), ("kappa_free", True), ("beta0_free", True),
        ):
            mask = getattr(self, name)
            if not mask:
                mask = (default_free,) * p
            mask = tuple(bool(v) for v in mask)
            if len(mask) != p:
                raise InvalidParameters(f"{name} mask must have {p} entries")
            object.__setattr__(self, name, mask)

    @property
    def levels(self) -> Tuple[str, ...]:
        return tuple(self.design)

    @classmethod
    def for_factor(cls, levels, reference=None, pin_reference_mu=True,
                   zeta0=-0.1, kappa0=math.log(0.5)) -> "FrailtyLink":
        """Treatment-coded link for a single stratification factor.

        Column 0 is the intercept; columns 1.. are indicators of the
        non-reference levels.  The mu-link intercept is pinned at 0, so
        mu(reference) = 1 structurally.
        """
        levels = list(levels)
        reference = levels[0] if reference is None else reference
        if reference not in levels:
            raise InvalidParameters(f"reference {reference!r} not among levels")
        others = [lvl for lvl in levels if lvl != reference]
        p = 1 + len(others)
        design = {}
        for lvl in levels:
            row = [0.0] * p
            row[0] = 1.0
            if lvl != reference:
                row[1 + others.index(lvl)] = 1.0
            design[lvl] = tuple(row)
        # reference mu is carried by the pinned intercept; the remaining
        # beta0 coefficients stay free unless the caller pins them later
        return cls(
            design=design,
            zeta=(zeta0,) + (0.0,) * len(others),
            kappa=(kappa0,) + (0.0,) * len(others),
            beta0=(0.0,) * p,
            reference=reference,
            beta0_free=tuple([not pin_reference_mu] + [True] * len(others)),
            pin_reference_mu=pin_reference_mu,
        )

    def row(self, level: str) -> np.ndarray:
        if level not in self.design:
            raise UnknownStratum(f"stratum level {level!r} not in design")
        return np.asarray(self.design[level])

    def raw_params(self, level: str) -> Tuple[float, float, float]:
        """(alpha, gamma, mu) at a stratum level, before any regime pin.

        Plain floats: whether they form a valid law depends on the pin.
        """
        return _link_values(self.row(level), np.asarray(self.zeta), np.asarray(self.kappa),
                            np.asarray(self.beta0), self.mu_pinned(level))

    def mu_pinned(self, level: str) -> bool:
        """Whether mu is held at one in ``level``: the reference, when pinned."""
        return self.pin_reference_mu and level == self.reference


@dataclass(frozen=True)
class ModelSpec:
    """Full model: baselines, covariate effects, frailty links and pins.

    ``baselines`` maps a unit name (or ``(stratum, unit)`` pair when
    ``stratified_baselines`` is set) to a baseline hazard object.
    """

    units: Tuple[str, ...]
    baselines: Mapping
    frailty_link: FrailtyLink
    predictors: Mapping[str, LinearPredictor] = field(default_factory=dict)
    branch_regimes: Mapping[str, BranchRegime] = field(default_factory=dict)
    stratified_baselines: bool = False

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        if len(set(self.units)) < len(self.units):
            repeated = next(u for i, u in enumerate(self.units) if u in self.units[:i])
            raise InvalidParameters(f"unit {repeated!r} is repeated")
        object.__setattr__(self, "baselines", dict(self.baselines))
        preds = {u: self.predictors.get(u, LinearPredictor()) for u in self.units}
        object.__setattr__(self, "predictors", preds)
        regimes = {
            lvl: self.branch_regimes.get(lvl, BranchRegime("free"))
            for lvl in self.frailty_link.levels
        }
        object.__setattr__(self, "branch_regimes", regimes)
        for key in self._baseline_keys():
            if key not in self.baselines:
                raise InvalidParameters(f"missing baseline for {key!r}")

    def _baseline_keys(self):
        if self.stratified_baselines:
            return [(lvl, u) for lvl in self.frailty_link.levels for u in self.units]
        return list(self.units)

    def baseline_for(self, level: str, unit: str):
        key = (level, unit) if self.stratified_baselines else unit
        return self.baselines[key]

    def frailty_params(self, level: str) -> AddamsParameters:
        """Stratum frailty parameters with the branch regime applied
        (:meth:`BranchRegime.law`)."""
        return self.branch_regimes[level].law(*self.frailty_link.raw_params(level))

    def frailty_jacobian(self, level: str) -> Dict[str, np.ndarray]:
        """d(alpha, gamma, mu) / d(beta0, zeta, kappa) of :meth:`frailty_params`,
        the regime pins applied (:meth:`BranchRegime.jacobian`)."""
        link = self.frailty_link
        _, gamma, mu = link.raw_params(level)
        return self.branch_regimes[level].jacobian(link.row(level), gamma, mu,
                                                   link.mu_pinned(level))
