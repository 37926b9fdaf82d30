"""Marginal log-likelihood for clustered current-status data.

For a cluster with event set d and per-unit cumulative hazards
Lambda^(j), the cluster contribution is

    log sum_{A subset of d} (-1)^|A| L(Lambda^(A) + Lambda^(-d))

with L the frailty Laplace transform.  The alternating sum is
mathematically a probability in (0, 1]; tiny negatives from round-off are
clamped (counted in ``diagnostics``).

:class:`LikelihoodWorkspace` is the one evaluator.  It compiles a dataset
into one flat term layout per stratum level: the level's cells (one per
dataset row, unit by unit) and a vector of all its inclusion-exclusion
terms, each with its cluster and sign, tied to the cells by a sparse
term-by-cell incidence.  A pass takes every s-value from one incidence
product and makes one ``log_laplace`` call per level, whatever the unit
sets and event counts; one signed ``bincount`` gives the cluster
probabilities.  :meth:`LikelihoodWorkspace.total_loglik` gives the whole
dataset's log-likelihood, and :func:`cluster_loglik` one cluster's.

:meth:`LikelihoodWorkspace.loglik_and_score` also returns the score
with respect to the free vector of an ``estimation.ParameterLayout``, from
the same s-values and Laplace terms.  With sign_A = (-1)^|A|, dP/dLambda
of a cell sums sign_A L'(s_A) over the terms that hold it, one product
with the transposed incidence; the chain rule then runs through the
baselines (exactly for rate-linear ones; a Weibull or generalized gamma
baseline's ``cumulative`` is differenced in its log-parameters by
``hazard._central_jacobian``) and the covariate effects.  The
frailty-link coefficients take the closed-form partials of log L(s) in
(alpha, gamma, mu) from one ``family.log_laplace_partials`` call per
level, chained through ``ModelSpec.frailty_jacobian``, which applies the
regime pins; a level whose alpha is pinned computes no alpha partial.

With ``information=True`` the same pass also returns the observed
information, the exact negated Hessian that ``estimation.fit`` takes its
standard errors from (no differenced score passes):

    -H = sum_i w_i g_i g_i' - sum_A (w_i T_A / P_i) (d2 l_A + d l_A d l_A'),

with T_A = sign_A L(s_A), l_A = log L(s_A) and g_i the cluster's score.
One ``family.log_laplace_second_partials`` call per level gives the
second partials of l_A in (mu s, alpha, gamma); they are chained through
the incidence (d s_A sums the d Lambda of A's cells), the baselines
(a rate-linear one's d2 Lambda / d theta_k^2 is d Lambda / d theta_k, a
Weibull or generalized gamma one's second differences come from
``hazard._central_jacobian``), the covariate effects, ``frailty_jacobian``
and the link's own second derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np
from scipy import sparse

from .data import Cluster, CurrentStatusDataset
from .errors import MissingCovariate, NonPositiveProbability
from .family import log_laplace, log_laplace_partials, log_laplace_second_partials
from .hazard import ModelSpec, _central_jacobian, _central_steps

__all__ = [
    "cluster_loglik",
    "LikelihoodWorkspace",
    "diagnostics",
]

_CLAMP_TOL = 1e-12
_CLAMP_VALUE = 1e-300


class _Diagnostics:
    """Counts round-off clamps of the inclusion-exclusion sum."""

    def __init__(self):
        self.clamped_probabilities = 0


diagnostics = _Diagnostics()


@dataclass
class _Block:
    """One unit's cells of a level: a contiguous run, clusters ascending."""
    unit: str
    cells: slice
    times: np.ndarray
    design: Optional[np.ndarray]    # [cells, p], or None without covariates
    grid: Optional[tuple]           # the baseline's, for a rate-linear one
    exposure: Optional[np.ndarray]  # [cells, intervals] on that grid

    def exposure_for(self, baseline) -> Optional[np.ndarray]:
        """The exposure matrix under a rate-linear ``baseline`` (afresh on
        another grid), or None for a parametric one."""
        grid = _grid_key(baseline)
        if grid is None:
            return None
        return self.exposure if grid == self.grid else baseline.exposure(self.times)


@dataclass
class _Level:
    """The inclusion-exclusion terms of one stratum level's clusters."""
    name: str
    clusters: np.ndarray        # positions in the dataset's cluster order
    blocks: List[_Block]
    incidence: sparse.csr_matrix    # [terms, cells] 0/1
    incidence_t: sparse.csc_matrix  # its transpose, on the same arrays
    term_cluster: np.ndarray    # [terms] index into ``clusters``
    cluster_terms: np.ndarray   # [clusters + 1] each cluster's first term, then the count
    term_weights: np.ndarray    # [terms] their clusters' weights
    signs: np.ndarray           # [terms] (-1)^|A|


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


def _design(spec: ModelSpec, data: CurrentStatusDataset, unit: str, rows: np.ndarray):
    """The [n, p] covariate design of one unit's dataset ``rows``, or None
    for a unit without covariates, and the first missing covariate as
    (cluster position, covariate name), or None."""
    names = spec.predictors[unit].covariate_names
    if not names:
        return None, None
    column = {nm: j for j, nm in enumerate(data.covariate_names)}
    cols = [column.get(nm) for nm in names]
    have = np.column_stack([np.zeros(rows.size, dtype=bool) if c is None else data.present[rows, c]
                            for c in cols])
    if have.all():
        return data.covariates[np.ix_(rows, cols)], None
    row = int(np.argmin(have.all(axis=1)))
    return None, (int(data.cluster[rows[row]]), names[int(np.argmin(have[row]))])


@lru_cache(maxsize=None)
def _template(m: int, k: int):
    """Term i of a cluster of m cells, non-events first and then k events,
    holds the non-events and the events whose bits spell i.  Returns every
    term's members as positions among the cells, one term after the other,
    the terms' ends in that list and their signs (-1)^|A|."""
    members = np.hstack([np.ones((1 << k, m - k), dtype=bool),
                         (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)])
    lengths = members.sum(axis=1)
    template = np.nonzero(members)[1], np.cumsum(lengths), np.where((lengths - m + k) % 2, -1.0, 1.0)
    for array in template:
        array.flags.writeable = False   # every workspace shares them
    return template


def _terms(counts: np.ndarray, sizes: np.ndarray, firsts: np.ndarray, slotted: np.ndarray):
    """Each term's cluster and sign, each cluster's first term (and the term
    count last), and the CSR (indptr, indices) of each term's member cells,
    over clusters of ``counts`` events on ``sizes`` rows whose cells
    ``slotted`` holds from their first rows ``firsts`` on, non-events
    first.  The terms run in cluster order; clusters of one size and event
    count share a ``_template``."""
    n_terms = np.left_shift(1, counts)
    # each non-event is in every term of its cluster, each event in half
    n_members = n_terms * (sizes - counts) + counts * n_terms // 2
    term_start, member_start = np.cumsum(n_terms) - n_terms, np.cumsum(n_members) - n_members
    signs = np.empty(int(n_terms.sum()))
    indptr = np.zeros(signs.size + 1, dtype=np.int32)
    indices = np.empty(int(n_members.sum()), dtype=np.int32)
    span = int(counts.max()) + 1
    for key in np.flatnonzero(np.bincount(sizes * span + counts)).tolist():
        idx = np.flatnonzero(sizes * span + counts == key)
        cols, ends, template_signs = _template(*divmod(key, span))
        terms = term_start[idx][:, None] + np.arange(ends.size)
        signs[terms] = template_signs
        indptr[terms + 1] = member_start[idx][:, None] + ends
        indices[member_start[idx][:, None] + np.arange(cols.size)] = slotted[firsts[idx][:, None] + cols]
    return (np.repeat(np.arange(counts.size, dtype=np.int32), n_terms),
            np.append(term_start, signs.size), signs, indptr, indices)


class LikelihoodWorkspace:
    """Dataset compiled for repeated likelihood evaluation.

    The term layout depends on the data and the model structure (units,
    covariate names, stratum levels), never on parameter values, so one
    workspace serves every optimizer iteration.  A spec whose rate-linear
    baseline has another grid gets its exposure computed afresh, and a
    parametric baseline uses its own ``cumulative``.
    """

    def __init__(self, spec: ModelSpec, data: CurrentStatusDataset):
        self.n_clusters = len(data)
        self.weights = data.weight
        self.cluster_ids = data.cluster_ids
        self.levels: List[_Level] = []
        if self.n_clusters == 0:
            return
        slot, level_names, level = _slots_and_levels(spec, data)
        n_units = len(spec.units)
        starts = data.starts
        firsts, sizes = starts[:-1], np.diff(starts)
        # events per cluster, and before each row within its cluster
        event = data.event == 1
        before = np.zeros(event.size + 1, dtype=np.int32)
        np.cumsum(event, out=before[1:])
        counts = np.diff(before[starts])
        before = before[:-1] - before[firsts][data.cluster]
        # each row's place among its cluster's rows reordered: the
        # non-events, then the events, each in row order
        place = np.where(event, (starts[1:] - counts)[data.cluster] + before,
                         np.arange(event.size) - before)
        # rows ordered by (level, unit slot), clusters ascending within: each
        # level's cells, unit block by unit block
        key = level[data.cluster] * n_units + slot
        order = np.argsort(key, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=len(level_names) * n_units))])
        # the rows' level cells, in each cluster's reordered rows
        slotted = np.empty(order.size, dtype=np.int32)
        missing = []
        for code, name in enumerate(level_names):
            clusters = np.flatnonzero(level == code)
            if clusters.size == 0:
                continue
            # the level's unit blocks, as ranges of ``order``
            edges = bounds[code * n_units:(code + 1) * n_units + 1]
            first, n_cells = edges[0], int(edges[-1] - edges[0])
            slotted[place[order[first:edges[-1]]]] = np.arange(n_cells, dtype=np.int32)
            blocks = []
            for j, unit in enumerate(spec.units):
                rows = order[edges[j]:edges[j + 1]]
                if rows.size == 0:
                    continue
                times = data.time[rows]
                design, absent = _design(spec, data, unit, rows)
                if absent is not None:
                    missing.append((absent[0], j, absent[1], unit))
                baseline = spec.baseline_for(name, unit)
                grid = _grid_key(baseline)
                blocks.append(_Block(unit, slice(edges[j] - first, edges[j + 1] - first), times,
                                     design, grid, baseline.exposure(times) if grid else None))
            term_cluster, cluster_terms, signs, indptr, indices = _terms(
                counts[clusters], sizes[clusters], firsts[clusters], slotted)
            incidence = sparse.csr_matrix(
                (np.ones(indices.size), indices, indptr), shape=(term_cluster.size, n_cells))
            self.levels.append(_Level(
                name, clusters, blocks, incidence, incidence.T, term_cluster, cluster_terms,
                data.weight[clusters][term_cluster], signs))
        if missing:
            pos, _, covariate, unit = min(missing)
            raise MissingCovariate(f"cluster {data.cluster_ids[pos]!r}, unit {unit!r}: "
                                   f"covariate {covariate!r} missing")

    def _pass(self, level: _Level, spec: ModelSpec):
        """One level at ``spec``: its frailty parameters, cell hazards, per
        block (baseline, exposure matrix or None, covariate multipliers or
        None), the terms' s-values, log L(s) and sign_A L(s_A), the clamped
        cluster probabilities, and the clamped clusters' mask or None."""
        params = spec.frailty_params(level.name)
        lam = np.empty(level.incidence.shape[1])
        parts = []
        for block in level.blocks:
            baseline = spec.baseline_for(level.name, block.unit)
            exposure = block.exposure_for(baseline)
            if exposure is not None:
                base = exposure @ baseline.rate_vector
            else:
                base = baseline.cumulative(block.times)
            mult = None
            if block.design is not None:
                mult = np.exp(block.design @ np.asarray(spec.predictors[block.unit].coefficients))
                base = base * mult
            lam[block.cells] = base
            parts.append((baseline, exposure, mult))
        svals = level.incidence @ lam
        log_l = log_laplace(params, svals)
        signed = np.exp(log_l) * level.signs
        prob = np.bincount(level.term_cluster, weights=signed, minlength=level.clusters.size)
        bad = prob <= 0.0
        if not np.any(bad):
            return params, lam, parts, svals, log_l, signed, prob, None
        if np.any(prob <= -_CLAMP_TOL):
            worst = int(np.argmin(prob))
            raise NonPositiveProbability(
                f"cluster {self.cluster_ids[level.clusters[worst]]!r}: "
                f"inclusion-exclusion sum {prob[worst]}"
            )
        diagnostics.clamped_probabilities += int(bad.sum())
        return params, lam, parts, svals, log_l, signed, np.where(bad, _CLAMP_VALUE, prob), bad

    def cluster_logliks(self, spec: ModelSpec) -> np.ndarray:
        out = np.empty(self.n_clusters)
        for level in self.levels:
            out[level.clusters] = np.log(self._pass(level, spec)[6])
        return out

    def total_loglik(self, spec: ModelSpec) -> float:
        return float(np.sum(self.weights * self.cluster_logliks(spec)))

    def loglik_and_score(self, layout, theta_free, information: bool = False):
        """Weighted log-likelihood at ``layout.build_spec(theta_free)`` and its
        gradient with respect to ``theta_free``; with ``information`` set, also
        the observed information -H, the negated Hessian, from the same pass.

        The value equals :meth:`total_loglik` at the same spec.  Clusters
        whose probability was clamped contribute nothing to the score or
        the information.
        """
        theta_free = np.asarray(theta_free, dtype=float)
        spec = layout.build_spec(theta_free)
        grad = np.zeros(layout.free_mask.size)
        out = np.empty(self.n_clusters)
        if information:
            info = np.zeros((grad.size, grad.size))
        for level in self.levels:
            params, lam, parts, svals, log_l, signed, prob, bad = self._pass(level, spec)
            out[level.clusters] = np.log(prob)
            jacobian = spec.frailty_jacobian(level.name)
            # a pinned alpha (zero rows) skips the alpha partials
            alpha = any(np.any(block[0] != 0.0) for block in jacobian.values())
            if information:
                (d_alpha, d_gamma, h), second = log_laplace_second_partials(
                    params, svals, log_l, alpha)
            else:
                d_alpha, d_gamma, h = log_laplace_partials(params, svals, log_l, alpha)
            # d log P = dP / P: each term divided by its cluster's P, then
            # weighted (T_A / P stays finite where a tiny P makes w / P overflow)
            weights = level.term_weights
            if bad is not None:
                weights = np.where(bad[level.term_cluster], 0.0, weights)
            ratio = signed / prob[level.term_cluster]
            signed = ratio * weights
            # d log L / ds = -mu h and d log L / d mu = -s h
            signed_h = signed * h
            dl_dlam = level.incidence_t @ signed_h * -params.mu
            for block, (baseline, exposure, mult) in zip(level.blocks, parts):
                dl = dl_dlam[block.cells]
                key = (level.name, block.unit) if spec.stratified_baselines else block.unit
                self._baseline_score(baseline, exposure, block.times, layout.baseline_slices[key].start,
                                     dl if mult is None else dl * mult, grad)
                if block.design is not None:
                    grad[layout.beta_slices[block.unit]] += block.design.T @ (dl * lam[block.cells])
            # d log P / d(alpha, gamma, mu), chained to the link coefficients
            d_frailty = np.array([0.0 if d_alpha is None else signed @ d_alpha,
                                  signed @ d_gamma, -(signed_h @ svals)])
            for name, sl in layout.link_slices.items():
                grad[sl] += d_frailty @ jacobian[name]
            if information:
                if bad is not None:
                    ratio = np.where(bad[level.term_cluster], 0.0, ratio)
                info += self._level_information(
                    layout, spec, level, params, jacobian, lam, parts, svals, ratio, signed,
                    dl_dlam, d_frailty, (-h, d_alpha, d_gamma), second)
        value = float(np.sum(self.weights * out))
        free = layout.free_mask
        if not information:
            return value, grad[free]
        return value, grad[free], info[np.ix_(free, free)]

    def _level_information(self, layout, spec, level, params, jacobian, lam, parts, svals,
                           ratio, signed, dl_dlam, d_frailty, first, second) -> np.ndarray:
        """One level's part of the observed information over the full
        parameter vector,

            -H = sum_i w_i g_i g_i' - sum_A c_A (d2 l_A + d l_A d l_A'),

        with g_i the cluster's score sum_A (T_A / P_i) d l_A (``ratio``),
        c_A = w_i T_A / P_i (``signed``) and l_A = log L(u_A; alpha, gamma),
        u_A = mu s_A.  Each term's gradient is f_u du_A + f_alpha d alpha +
        f_gamma d gamma in the natural coordinates z = (u, alpha, gamma), so
        its curvature is sum_ab (f_ab + f_a f_b) dz_a dz_b' + sum_a f_a d2 z_a.

        Both are taken in a basis of k + 3 directions, the k parameters of
        the level's cell hazards and then d mu, d alpha and d gamma, where
        du_A = (mu d s_A, s_A, 0, 0).  Every product runs over one basis
        direction at a time, on vectors of the terms or the clusters: no
        [terms, p] matrix, and never a [terms, p, p] array.
        """
        n_full = layout.free_mask.size
        mu = params.mu
        keys = [(level.name, block.unit) if spec.stratified_baselines else block.unit
                for block in level.blocks]
        slices = [layout.baseline_slices[key] for key in keys] + [
            layout.beta_slices[block.unit] for block in level.blocks if block.design is not None]
        cols = sorted({i for sl in slices for i in range(sl.start, sl.stop)})
        k = len(cols)
        where = {c: i for i, c in enumerate(cols)}
        basis = np.zeros((k + 3, n_full))
        basis[np.arange(k), cols] = 1.0
        for name, sl in layout.link_slices.items():
            basis[k:, sl] = jacobian[name][[2, 0, 1]]
        # each cell's d Lambda, one basis direction at a time, and
        # sum_j dl_j d2 Lambda_j with dl = dl_dlam; ``curv`` is filled on and
        # above its diagonal
        d_lam = [np.zeros(lam.size) for _ in range(k)]
        curv = np.zeros((k + 3, k + 3))
        for block, key, (baseline, exposure, mult) in zip(level.blocks, keys, parts):
            bs = where[layout.baseline_slices[key].start]
            dl = dl_dlam[block.cells]
            if exposure is not None:
                d_base = exposure * baseline.rate_vector
                second_base = None      # d2 Lambda / d theta_k^2 = d Lambda / d theta_k
            else:
                log_params = baseline.log_params
                steps = _central_steps(log_params)

                def cumulative(values, baseline=baseline, times=block.times):
                    return baseline.with_log_params(values).cumulative(times)

                d_base = _central_jacobian(cumulative, log_params, steps).T
                second_base = _central_jacobian(
                    lambda values: _central_jacobian(cumulative, values, steps), log_params, steps)
            if mult is not None:
                d_base = d_base * mult[:, None]
            p = d_base.shape[1]
            for i in range(p):
                d_lam[bs + i][block.cells] = d_base[:, i]
            if second_base is None:
                curv[range(bs, bs + p), range(bs, bs + p)] += dl @ d_base
            else:
                curv[bs:bs + p, bs:bs + p] += second_base @ (dl if mult is None else dl * mult)
            if block.design is not None:
                bb = where[layout.beta_slices[block.unit].start]
                design, cells_lam = block.design, lam[block.cells]
                q = design.shape[1]
                for i in range(q):
                    d_lam[bb + i][block.cells] = design[:, i] * cells_lam
                curv[bb:bb + q, bb:bb + q] += design.T @ (design * (dl * cells_lam)[:, None])
                curv[bs:bs + p, bb:bb + q] += (dl[:, None] * d_base).T @ design
        # sum_a f_a d2 z_a: d2 u_A = mu d2 s_A + d mu d s_A' + d s_A d mu' + s_A d2 mu,
        # with sum_A c_A f_u d s_A = d Lambda' dl / mu
        curv[:k, k] += [dl_dlam @ row / mu for row in d_lam]
        # du_A by direction; s_A = incidence @ Lambda is ``svals``
        d_u = [level.incidence @ (mu * row) for row in d_lam] + [svals]
        f_u, f_alpha, f_gamma = first
        uu, ua, ug, aa, ag, gg = second
        # sum_A c_A (f_ab + f_a f_b) dz_a dz_b'; the alpha entries stay 0
        # when alpha does not move
        weight = f_u * f_u
        weight += uu
        weight *= signed
        for j, column in enumerate(d_u):
            weighted = column * weight
            curv[:j + 1, j] += [row @ weighted for row in d_u[:j + 1]]
        weight = f_u * f_gamma
        weight += ug
        weight *= signed
        curv[:k + 1, k + 2] += [row @ weight for row in d_u]
        curv[k + 2, k + 2] += signed @ (gg + f_gamma * f_gamma)
        if f_alpha is not None:
            weight = f_u * f_alpha
            weight += ua
            weight *= signed
            curv[:k + 1, k + 1] += [row @ weight for row in d_u]
            curv[k + 1, k + 1] += signed @ (aa + f_alpha * f_alpha)
            curv[k + 1, k + 2] += signed @ (ag + f_alpha * f_gamma)
        # per-cluster scores g_i in the basis: the terms run in cluster
        # order, so each direction's cluster sums are one CSR product
        n_terms, n_clusters = svals.size, level.clusters.size
        by_cluster = sparse.csr_matrix((ratio * f_u, np.arange(n_terms), level.cluster_terms),
                                       shape=(n_clusters, n_terms))
        scores = [by_cluster @ column for column in d_u]
        scores.append(np.zeros(n_clusters) if f_alpha is None else
                      np.bincount(level.term_cluster, ratio * f_alpha, n_clusters))
        scores.append(np.bincount(level.term_cluster, ratio * f_gamma, n_clusters))
        weights = self.weights[level.clusters]
        outer = np.zeros((k + 3, k + 3))
        for j, column in enumerate(scores):
            weighted = column * weights
            outer[:j + 1, j] = [row @ weighted for row in scores[:j + 1]]
        outer -= curv
        upper = np.triu_indices(k + 3, 1)
        outer[upper[::-1]] = outer[upper]
        info = basis.T @ outer @ basis
        # the coordinates' own second derivatives: gamma = exp(x' kappa) and
        # mu = exp(x' beta0), and a pinned alpha moves with gamma, so each
        # coordinate's Hessian in an exp-link block is its Jacobian row times x'
        x = spec.frailty_link.row(level.name)
        for name in ("kappa", "beta0"):
            sl = layout.link_slices[name]
            info[sl, sl] -= np.outer(d_frailty @ jacobian[name], x)
        return info

    @staticmethod
    def _baseline_score(baseline, exposure: Optional[np.ndarray], times: np.ndarray, start: int,
                        dl_dbase: np.ndarray, grad: np.ndarray) -> None:
        """Adds d loglik / d log-parameters of a block's baseline, whose
        entries in ``grad`` begin at ``start``."""
        if exposure is not None:
            rates = baseline.rate_vector
            grad[start:start + rates.size] += rates * (dl_dbase @ exposure)
            return
        log_params = baseline.log_params
        jac = _central_jacobian(lambda values: baseline.with_log_params(values).cumulative(times),
                                log_params, _central_steps(log_params))
        grad[start:start + log_params.size] += jac @ dl_dbase


def cluster_loglik(spec: ModelSpec, cluster: Cluster) -> float:
    """Log-probability of one cluster's current-status outcome."""
    data = CurrentStatusDataset((cluster,))
    return float(LikelihoodWorkspace(spec, data).cluster_logliks(spec)[0])
