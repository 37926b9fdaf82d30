"""Seeded generator of synthetic clustered current-status datasets.

Each cluster draws from its own RNG substream keyed by (seed, cluster
index), so inserting or removing a cluster never shifts the draws of the
others and generation order is irrelevant.  Substreams use numpy's
PCG64 via SeedSequence spawning; reproducibility across implementations
of this format is expected at the distributional (KS) level, not bit
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .data import CurrentStatusDataset
from .errors import InvalidParameters
from .family import BranchKind, FrailtyBranch, classify_branch
from .hazard import ModelSpec

__all__ = ["MonitoringLaw", "SimConfig", "sample_frailty", "sample_event_time", "generate"]


@dataclass(frozen=True)
class MonitoringLaw:
    """Law of the per-unit monitoring times.

    kind "uniform" draws from [a, b); "grid" and "empirical" draw
    uniformly from a fixed list of times.
    """

    kind: str = "uniform"
    a: float = 1.0
    b: float = 80.0
    times: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "grid", "empirical"):
            raise InvalidParameters(f"unknown monitoring law {self.kind!r}")
        if self.kind == "uniform":
            if not (0 <= self.a < self.b and math.isfinite(self.b)):
                raise InvalidParameters("uniform law needs 0 <= a < b < inf")
        else:
            times = tuple(float(t) for t in self.times)
            if not times or any(t < 0 or not math.isfinite(t) for t in times):
                raise InvalidParameters("grid/empirical law needs non-negative times")
            object.__setattr__(self, "times", times)

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "uniform":
            return float(rng.uniform(self.a, self.b))
        return float(self.times[rng.integers(len(self.times))])


@dataclass(frozen=True)
class SimConfig:
    spec: ModelSpec
    n_clusters: int
    seed: int = 0
    monitoring: MonitoringLaw = field(default_factory=MonitoringLaw)
    stratum_probs: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.n_clusters < 1:
            raise InvalidParameters("n_clusters must be >= 1")
        if self.stratum_probs is not None:
            probs = dict(self.stratum_probs)
            levels = set(self.spec.frailty_link.levels)
            if set(probs) != levels:
                raise InvalidParameters("stratum_probs must cover exactly the design levels")
            total = sum(probs.values())
            if not math.isclose(total, 1.0, rel_tol=1e-9):
                raise InvalidParameters("stratum probabilities must sum to 1")
            object.__setattr__(self, "stratum_probs", probs)


def sample_frailty(branch: FrailtyBranch, rng: np.random.Generator) -> float:
    """One draw from the exact branch law.

    Negative binomial counts with fractional nu are drawn via the
    gamma-Poisson mixture.
    """
    kind = branch.kind
    if kind is BranchKind.GAMMA_LIMIT:
        return float(rng.gamma(1.0 / branch.gamma, 1.0 / branch.gamma_star))
    if kind is BranchKind.SCALED_POISSON:
        return branch.psi * float(rng.poisson(branch.lambda_star))
    if kind is BranchKind.SCALED_BINOMIAL:
        return branch.psi * float(rng.binomial(branch.b, branch.pi))
    lam = rng.gamma(branch.nu, (1.0 - branch.pi) / branch.pi)
    m = float(rng.poisson(lam))
    if kind is BranchKind.SHIFTED_SCALED_NEG_BINOMIAL:
        return branch.psi * (branch.nu + m)
    return branch.psi * m


def sample_event_time(z: float, baseline, covariate_factor: float,
                      rng: np.random.Generator) -> float:
    """Inverse-transform draw of T solving z * factor * Lambda0(T) = -ln U."""
    if z < 0:
        raise InvalidParameters("frailty draw must be >= 0")
    if z == 0.0:
        return math.inf
    u = 1.0 - rng.random()                # in (0, 1]
    target = -math.log(u) / (z * covariate_factor)
    return baseline.invert(target)


def _cluster_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def generate(config: SimConfig) -> CurrentStatusDataset:
    """Simulate a dataset from the model; identical for identical configs."""
    spec = config.spec
    levels = list(spec.frailty_link.levels)
    if config.stratum_probs is not None:
        probs = np.array([config.stratum_probs[lvl] for lvl in levels])
    else:
        probs = np.full(len(levels), 1.0 / len(levels))
    branches = {lvl: classify_branch(spec.frailty_params(lvl)) for lvl in levels}
    names = list(dict.fromkeys(
        nm for u in spec.units for nm in spec.predictors[u].covariate_names))
    column = {nm: j for j, nm in enumerate(names)}
    strata, times, events, cells = [], [], [], []
    for i in range(config.n_clusters):
        rng = _cluster_rng(config.seed, i)
        level = levels[rng.choice(len(levels), p=probs)] if len(levels) > 1 else levels[0]
        z = sample_frailty(branches[level], rng)
        strata.append(level if len(levels) > 1 else None)
        for unit in spec.units:
            pred = spec.predictors[unit]
            covs = {name: float(rng.standard_normal()) for name in pred.covariate_names}
            factor = math.exp(pred.value(covs)) if pred.covariate_names else 1.0
            event_time = sample_event_time(z, spec.baseline_for(level, unit), factor, rng)
            monitor = config.monitoring.draw(rng)
            if covs:
                cells.extend((len(times), column[nm], v) for nm, v in covs.items())
            times.append(monitor)
            events.append(event_time <= monitor)
    n_units = len(spec.units)
    return CurrentStatusDataset.from_rows(
        [f"c{i + 1}" for i in range(config.n_clusters)], strata,
        np.ones(config.n_clusters), np.repeat(np.arange(config.n_clusters), n_units),
        spec.units, np.tile(np.arange(n_units), config.n_clusters), times, events,
        names, cells,
    )
