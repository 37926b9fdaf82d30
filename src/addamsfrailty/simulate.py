"""Seeded generator of synthetic clustered current-status datasets.

Clusters are drawn in blocks of ``_BLOCK``.  Block b draws a full block
from its own PCG64 stream, SeedSequence([seed, b]), in a fixed order:
stratum codes, each level's frailties, covariates, event-time uniforms,
monitoring times.  The last block is cut to the cluster count, so cluster
i depends only on (seed, i), never on how many clusters are generated.
Reproducibility across implementations is expected at the distributional
(KS) level, not bit level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .data import CurrentStatusDataset
from .errors import InvalidParameters
from .family import FrailtyBranch, _count_law, classify_branch
from .hazard import ModelSpec

__all__ = ["MonitoringLaw", "SimConfig", "sample_frailty", "sample_event_time", "generate"]

_BLOCK = 1024


@dataclass(frozen=True)
class MonitoringLaw:
    """Law of the per-unit monitoring times: kind "uniform" draws from [a, b);
    "grid" draws uniformly from a fixed list of times."""

    kind: str = "uniform"
    a: float = 1.0
    b: float = 80.0
    times: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "grid"):
            raise InvalidParameters(f"unknown monitoring law {self.kind!r}")
        if self.kind == "uniform":
            if not (0 <= self.a < self.b and math.isfinite(self.b)):
                raise InvalidParameters("uniform law needs 0 <= a < b < inf")
        else:
            times = tuple(float(t) for t in self.times)
            if not times or any(t < 0 or not math.isfinite(t) for t in times):
                raise InvalidParameters("grid law needs non-negative times")
            object.__setattr__(self, "times", times)

    def draw(self, rng: np.random.Generator, size=None):
        """One time (``size=None``) or an array of ``size`` times."""
        if self.kind == "uniform":
            t = rng.uniform(self.a, self.b, size)
        else:
            t = np.asarray(self.times)[rng.integers(len(self.times), size=size)]
        return float(t) if size is None else t


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
            if not (all(p >= 0 and math.isfinite(p) for p in probs.values())
                    and math.isclose(sum(probs.values()), 1.0, rel_tol=1e-9)):
                raise InvalidParameters("stratum probabilities must be finite, >= 0 and sum to 1")
            object.__setattr__(self, "stratum_probs", probs)


def sample_frailty(branch: FrailtyBranch, rng: np.random.Generator, size=None):
    """One draw (``size=None``) or ``size`` draws from the exact branch law: a discrete
    member is psi (shift + M), M from numpy's sampler through the count law's ``rvs``."""
    if not branch.is_discrete:
        z = rng.gamma(1.0 / branch.gamma, 1.0 / branch.gamma_star, size)
    else:
        dist, args = _count_law(branch)
        z = branch.psi * (branch.shift + dist.rvs(*args, size=size, random_state=rng))
    return float(z) if size is None else z


def sample_event_time(z, baseline, covariate_factor, rng: np.random.Generator):
    """Inverse-transform draws of T solving z * factor * Lambda0(T) = -ln U, for
    scalars or arrays that broadcast together; T is inf where z = 0."""
    if np.any(np.asarray(z) < 0):
        raise InvalidParameters("frailty draw must be >= 0")
    rate = z * covariate_factor
    u = 1.0 - rng.random(np.shape(rate) or None)      # in (0, 1]
    t = np.where(rate > 0, baseline.invert(-np.log(u) / np.where(rate > 0, rate, 1.0)), math.inf)
    return float(t) if t.ndim == 0 else t


def generate(config: SimConfig) -> CurrentStatusDataset:
    """Simulate a dataset from the model; identical for identical configs."""
    spec, n, n_units = config.spec, config.n_clusters, len(config.spec.units)
    levels = list(spec.frailty_link.levels)
    probs = [config.stratum_probs[lvl] for lvl in levels] if config.stratum_probs else None
    branches = [classify_branch(spec.frailty_params(lvl)) for lvl in levels]
    preds = [spec.predictors[u] for u in spec.units]
    names = list(dict.fromkeys(nm for pred in preds for nm in pred.covariate_names))
    # [units, covariates] coefficients, 0 where a unit lacks the covariate
    coef = np.array([[dict(zip(pred.covariate_names, pred.coefficients)).get(nm, 0.0)
                      for nm in names] for pred in preds])
    uses = np.array([[nm in pred.covariate_names for nm in names] for pred in preds], dtype=bool)
    blocks = []
    for b in range(-(-n // _BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, b]))
        code = rng.choice(len(levels), size=_BLOCK, p=probs)
        z = np.empty(_BLOCK)
        for k, branch in enumerate(branches):
            z[code == k] = sample_frailty(branch, rng, int(np.count_nonzero(code == k)))
        x = rng.standard_normal((_BLOCK, n_units, len(names)))
        factor = np.exp(np.einsum("bup,up->bu", x, coef))
        rows = ([code == k for k in range(len(levels))] if spec.stratified_baselines
                else [slice(None)])
        event_time = np.empty((_BLOCK, n_units))
        for u, unit in enumerate(spec.units):
            for k, r in enumerate(rows):
                event_time[r, u] = sample_event_time(
                    z[r], spec.baseline_for(levels[k], unit), factor[r, u], rng)
        monitor = config.monitoring.draw(rng, (_BLOCK, n_units))
        blocks.append((code, x, monitor, event_time <= monitor))
    code, x, times, events = (np.concatenate(part)[:n] for part in zip(*blocks))
    strata = [levels[c] for c in code.tolist()] if len(levels) > 1 else [None] * n
    return CurrentStatusDataset.from_rows(
        [f"c{i + 1}" for i in range(n)], strata, np.ones(n),
        np.repeat(np.arange(n), n_units), spec.units, np.tile(np.arange(n_units), n),
        times.ravel(), events.ravel(), names,
        np.where(uses, x, 0.0).reshape(n * n_units, len(names)),
        np.broadcast_to(uses, x.shape).reshape(n * n_units, len(names)),
    )
