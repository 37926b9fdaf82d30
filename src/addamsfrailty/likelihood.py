"""Marginal log-likelihood for clustered current-status data.

For a cluster with event set d and per-unit cumulative hazards
Lambda^(j), the cluster contribution is

    log sum_{A subset of d} (-1)^|A| L(Lambda^(A) + Lambda^(-d))

with L the frailty Laplace transform.  The alternating sum is
mathematically a probability in (0, 1]; tiny negatives from round-off are
clamped (counted in ``diagnostics``).

:class:`LikelihoodWorkspace` is the one evaluator.  It compiles a dataset
for vectorized numpy kernels, grouping clusters that share a stratum, a
unit set and an event count, so the kernel runs once per event count
whichever units had the events.  Each row of a group reaches its own
event and non-event units through flat index arrays into the group's
hazard matrix.  :func:`cluster_loglik` and :func:`total_loglik` are
one-call wrappers around it.

The workspace also returns the exact score of the log-likelihood with
respect to the free vector of an ``estimation.ParameterLayout``
(:meth:`LikelihoodWorkspace.loglik_and_score`), in one pass that reuses
the value's s-values and Laplace terms.  With T_A = L(s_A) and
sign_A = (-1)^|A|, the derivative of P with respect to the cumulative
hazard of an event unit j is sum_A sign_A L'(s_A) [j in A], and that of a
non-event unit is sum_A sign_A L'(s_A); the chain rule then runs through
the baselines (exactly for rate-linear baselines, by differencing
``cumulative`` in the log-parameters otherwise) and the covariate
effects.  The frailty-link coefficients take the closed-form partials of
log L(s) in (alpha, gamma, mu) from ``family.log_laplace_partials`` at the
same s-values, chained through each stratum's
``ModelSpec.frailty_jacobian``, which applies the regime pins; a score
pass makes one ``log_laplace`` call per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .data import Cluster, CurrentStatusDataset
from .errors import InvalidParameters, MissingCovariate, NonPositiveProbability
from .family import AddamsParameters, log_laplace, log_laplace_partials
from .hazard import ModelSpec

__all__ = [
    "cluster_loglik",
    "total_loglik",
    "LikelihoodWorkspace",
    "diagnostics",
]

_CLAMP_TOL = 1e-12
_CLAMP_VALUE = 1e-300
# relative step for differencing a parametric (Weibull, generalized gamma)
# baseline's cumulative hazard in its log-parameters; every other score
# entry is exact
_SCORE_STEP = 1e-4


class _Diagnostics:
    """Counts round-off clamps of the inclusion-exclusion sum."""

    def __init__(self):
        self.clamped_probabilities = 0


diagnostics = _Diagnostics()


@dataclass
class _Group:
    level: str
    units: Tuple[str, ...]
    times: np.ndarray           # [n, m]
    designs: List[Optional[np.ndarray]]  # per unit slot, [n, p] or None
    weights: np.ndarray         # [n]
    cluster_idx: np.ndarray     # positions in the original cluster order
    cluster_ids: List[str]
    # flat indices into the group's [n, m] hazard matrix, in unit order:
    # each row's event slots and its non-event slots
    event_cells: np.ndarray     # [n, k]
    rest_cells: np.ndarray      # [n, m - k]
    subset_matrix: np.ndarray   # [2^k, k] binary
    even_cols: np.ndarray
    odd_cols: np.ndarray
    signs: np.ndarray           # [2^k] (-1)^|A|
    # per unit slot: (grid key, [n, intervals] exposure) for rate-linear
    # baselines, so their cumulative hazard is one matrix-vector product
    exposures: List[Optional[Tuple[tuple, np.ndarray]]]


def _grid_key(baseline) -> Optional[tuple]:
    """Identifies a rate-linear baseline's exposure matrix; None otherwise."""
    if not hasattr(baseline, "exposure"):
        return None
    return (type(baseline).__name__, getattr(baseline, "cutpoints", ()))


def _slots_and_levels(spec: ModelSpec, data: CurrentStatusDataset):
    """Each row's slot in ``spec.units``, the stratum levels, and each
    cluster's level code; a cluster without a stratum is in the reference
    level.  A unit the spec does not have raises KeyError, at its first row."""
    unit_order = {u: i for i, u in enumerate(spec.units)}
    slot_of = np.array([unit_order.get(u, -1) for u in data.unit_names], dtype=np.int64)
    slot = slot_of[data.unit]
    if np.any(slot < 0):
        raise KeyError(data.unit_names[data.unit[np.argmax(slot < 0)]])
    names = (spec.frailty_link.reference,) + data.stratum_names   # code -1 first
    levels = list(dict.fromkeys(names))
    level = np.array([levels.index(nm) for nm in names])[data.stratum + 1]
    return slot, levels, level


def _designs(spec: ModelSpec, data: CurrentStatusDataset, units, rows: np.ndarray,
             ids: List[str]) -> List[Optional[np.ndarray]]:
    """Per unit slot, the [n, p] covariate design of dataset rows ``rows``
    [n, m], or None for a unit without covariates.

    A missing covariate raises MissingCovariate for the first one in
    (row, slot, covariate) order.
    """
    column = {nm: j for j, nm in enumerate(data.covariate_names)}
    designs: List[Optional[np.ndarray]] = []
    missing = []
    for j, unit in enumerate(units):
        names = spec.predictors[unit].covariate_names
        if not names:
            designs.append(None)
            continue
        cols = [column.get(nm) for nm in names]
        at = rows[:, j]
        have = np.column_stack([
            np.zeros(len(at), dtype=bool) if c is None else data.present[at, c] for c in cols
        ])
        if have.all():
            designs.append(data.covariates[np.ix_(at, cols)])
        else:
            row = int(np.argmin(have.all(axis=1)))
            missing.append((row, j, names[int(np.argmin(have[row]))]))
    if missing:
        row, j, name = min(missing)
        raise MissingCovariate(
            f"cluster {ids[row]!r}, unit {units[j]!r}: covariate {name!r} missing"
        )
    return designs


class LikelihoodWorkspace:
    """Dataset compiled for repeated likelihood evaluation.

    The grouping depends only on the data and the model structure (unit
    list, covariate names, stratum levels), never on parameter values, so
    one workspace serves every optimizer iteration.  The exposure matrices
    of rate-linear baselines depend on their cutpoints only; a spec with
    other cutpoints falls back to the baseline's own ``cumulative``.
    """

    def __init__(self, spec: ModelSpec, data: CurrentStatusDataset):
        self.n_clusters = len(data)
        self.weights = data.weight
        self.groups: List[_Group] = []
        self.levels: Tuple[str, ...] = ()
        if self.n_clusters == 0:
            return
        slot, level_names, level = _slots_and_levels(spec, data)
        starts = data.starts
        # per cluster: its stratum level, event count and unit-set bitmask,
        # packed into one key; groups keep the keys' order of first appearance
        n_units = len(spec.units)
        count_bits = n_units.bit_length()
        if (len(level_names) - 1).bit_length() + count_bits + n_units > 63:
            raise InvalidParameters(
                f"{n_units} units over {len(level_names)} strata exceed the "
                "workspace's 63-bit group key"
            )
        mask = np.bitwise_or.reduceat(np.left_shift(1, slot), starts[:-1])
        count = np.add.reduceat(data.event.astype(np.int64), starts[:-1])
        key = (level << count_bits | count) << n_units | mask
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        group_of = rank[inverse.ravel()]
        members = np.argsort(group_of, kind="stable")
        bounds = np.cumsum(np.bincount(group_of))
        # rows in (cluster, spec unit) order: a cluster's rows start at the
        # same offset as in the dataset and run in unit-slot order
        by_slot = np.argsort(data.cluster * n_units + slot, kind="stable")
        times_by_slot = data.time[by_slot]
        events_by_slot = data.event[by_slot] == 1
        for idx in np.split(members, bounds[:-1]):
            head = by_slot[starts[idx[0]]:starts[idx[0] + 1]]
            units = tuple(spec.units[j] for j in slot[head])
            n, m = idx.size, head.size
            rows = starts[idx][:, None] + np.arange(m)[None, :]
            times = times_by_slot[rows]
            events = events_by_slot[rows]
            k = int(count[idx[0]])
            lvl = level_names[level[idx[0]]]
            ids = [data.cluster_ids[i] for i in idx.tolist()]
            designs = _designs(spec, data, units, by_slot[rows], ids)
            exposures: List[Optional[Tuple[tuple, np.ndarray]]] = []
            for j, u in enumerate(units):
                baseline = spec.baseline_for(lvl, u)
                grid = _grid_key(baseline)
                exposures.append(None if grid is None else (grid, baseline.exposure(times[:, j])))
            cells = np.arange(n * m).reshape(n, m)
            subsets = np.arange(1 << k)[:, None] >> np.arange(k)[None, :] & 1
            sizes = subsets.sum(axis=1)
            self.groups.append(
                _Group(
                    level=lvl,
                    units=units,
                    times=times,
                    designs=designs,
                    weights=data.weight[idx],
                    cluster_idx=idx,
                    cluster_ids=ids,
                    event_cells=cells[events].reshape(n, k),
                    rest_cells=cells[~events].reshape(n, m - k),
                    subset_matrix=subsets.astype(float),
                    even_cols=np.where(sizes % 2 == 0)[0],
                    odd_cols=np.where(sizes % 2 == 1)[0],
                    signs=np.where(sizes % 2 == 0, 1.0, -1.0),
                    exposures=exposures,
                )
            )
        self.levels = tuple(dict.fromkeys(grp.level for grp in self.groups))

    @staticmethod
    def _exposure(grp: _Group, j: int, baseline) -> Optional[np.ndarray]:
        cached = grp.exposures[j]
        if cached is None or cached[0] != _grid_key(baseline):
            return None
        return cached[1]

    def _hazards(self, grp: _Group, spec: ModelSpec):
        """[n, m] cumulative hazards and the per-slot covariate multipliers."""
        lam = np.empty_like(grp.times)
        mults: List[Optional[np.ndarray]] = []
        for j, unit in enumerate(grp.units):
            baseline = spec.baseline_for(grp.level, unit)
            exposure = self._exposure(grp, j, baseline)
            if exposure is not None:
                base = exposure @ baseline.rate_vector
            else:
                base = baseline.cumulative(grp.times[:, j])
            mult = None
            if grp.designs[j] is not None:
                coefs = np.asarray(spec.predictors[unit].coefficients)
                mult = np.exp(grp.designs[j] @ coefs)
                base = base * mult
            lam[:, j] = base
            mults.append(mult)
        return lam, mults

    @staticmethod
    def _probabilities(grp: _Group, params: AddamsParameters, lam: np.ndarray):
        """s-values, log L(s), L(s) and the clamped cluster probabilities.

        The last entry marks the clamped clusters, or is None when none is.
        """
        flat = lam.ravel()
        rest = flat[grp.rest_cells].sum(axis=1)
        svals = rest[:, None] + flat[grp.event_cells] @ grp.subset_matrix.T
        log_l = log_laplace(params, svals)
        terms = np.exp(log_l)
        prob = terms[:, grp.even_cols].sum(axis=1) - terms[:, grp.odd_cols].sum(axis=1)
        bad = prob <= 0.0
        if not np.any(bad):
            return svals, log_l, terms, prob, None
        if np.any(prob <= -_CLAMP_TOL):
            worst = int(np.argmin(prob))
            raise NonPositiveProbability(
                f"cluster {grp.cluster_ids[worst]!r}: "
                f"inclusion-exclusion sum {prob[worst]}"
            )
        diagnostics.clamped_probabilities += int(bad.sum())
        return svals, log_l, terms, np.where(bad, _CLAMP_VALUE, prob), bad

    def cluster_logliks(self, spec: ModelSpec) -> np.ndarray:
        out = np.empty(self.n_clusters)
        for grp in self.groups:
            lam, _ = self._hazards(grp, spec)
            prob = self._probabilities(grp, spec.frailty_params(grp.level), lam)[3]
            out[grp.cluster_idx] = np.log(prob)
        return out

    def total_loglik(self, spec: ModelSpec) -> float:
        if self.n_clusters == 0:
            return 0.0
        return float(np.sum(self.weights * self.cluster_logliks(spec)))

    def loglik_and_score(self, layout, theta_free) -> Tuple[float, np.ndarray]:
        """Weighted log-likelihood at ``layout.build_spec(theta_free)`` and its
        gradient with respect to ``theta_free``.

        The value equals :meth:`total_loglik` at the same spec.  Clusters
        whose probability was clamped contribute nothing to the score.
        """
        theta_free = np.asarray(theta_free, dtype=float)
        spec = layout.build_spec(theta_free)
        grad = np.zeros(layout.free_mask.size)
        out = np.empty(self.n_clusters)
        jacobians = {level: spec.frailty_jacobian(level) for level in self.levels}
        for grp in self.groups:
            params = spec.frailty_params(grp.level)
            lam, mults = self._hazards(grp, spec)
            svals, log_l, terms, prob, bad = self._probabilities(grp, params, lam)
            out[grp.cluster_idx] = np.log(prob)
            d_alpha, d_gamma, h = log_laplace_partials(params, svals, log_l)
            # d log P = dP / P; dividing after the sums keeps a tiny P finite
            weights = grp.weights if bad is None else np.where(bad, 0.0, grp.weights)
            signed = terms * grp.signs
            # d log L / ds = -mu h and d log L / d mu = -s h
            signed_h = signed * h
            dl_dlam = np.empty_like(lam)
            flat = dl_dlam.ravel()
            mu_weights = -params.mu * weights
            flat[grp.event_cells] = (signed_h @ grp.subset_matrix) / prob[:, None] * mu_weights[:, None]
            flat[grp.rest_cells] = (signed_h.sum(axis=1) / prob * mu_weights)[:, None]
            for j, unit in enumerate(grp.units):
                dl_dbase = dl_dlam[:, j] if mults[j] is None else dl_dlam[:, j] * mults[j]
                self._baseline_score(grp, j, spec, layout, dl_dbase, grad)
                if grp.designs[j] is not None:
                    grad[layout.beta_slices[unit]] += grp.designs[j].T @ (dl_dlam[:, j] * lam[:, j])
            # d log P / d(alpha, gamma, mu), chained to the link coefficients
            d_frailty = np.array([
                weights @ (np.einsum("ij,ij->i", signed, d_alpha) / prob),
                weights @ (np.einsum("ij,ij->i", signed, d_gamma) / prob),
                -(weights @ (np.einsum("ij,ij->i", signed_h, svals) / prob)),
            ])
            for name, sl in layout.link_slices.items():
                grad[sl] += d_frailty @ jacobians[grp.level][name]
        return float(np.sum(self.weights * out)), grad[layout.free_mask]

    def _baseline_score(self, grp: _Group, j: int, spec: ModelSpec, layout,
                        dl_dbase: np.ndarray, grad: np.ndarray) -> None:
        """Adds d loglik / d log-parameters of slot j's baseline to ``grad``."""
        unit = grp.units[j]
        key = (grp.level, unit) if spec.stratified_baselines else unit
        start = layout.baseline_slices[key].start
        baseline = spec.baseline_for(grp.level, unit)
        exposure = self._exposure(grp, j, baseline)
        if exposure is not None:
            rates = baseline.rate_vector
            grad[start:start + rates.size] += rates * (dl_dbase @ exposure)
            return
        t = grp.times[:, j]
        log_params = baseline.log_params
        for k, value in enumerate(log_params):
            h = _SCORE_STEP * max(1.0, abs(value))
            hi = log_params.copy()
            lo = log_params.copy()
            hi[k] += h
            lo[k] -= h
            diff = baseline.with_log_params(hi).cumulative(t) - baseline.with_log_params(lo).cumulative(t)
            grad[start + k] += dl_dbase @ diff / (2.0 * h)


def cluster_loglik(spec: ModelSpec, cluster: Cluster) -> float:
    """Log-probability of one cluster's current-status outcome."""
    data = CurrentStatusDataset((cluster,))
    return float(LikelihoodWorkspace(spec, data).cluster_logliks(spec)[0])


def total_loglik(spec: ModelSpec, data: CurrentStatusDataset) -> float:
    """Weighted total log-likelihood."""
    return LikelihoodWorkspace(spec, data).total_loglik(spec)
