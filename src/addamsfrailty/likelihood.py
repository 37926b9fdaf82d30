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
term-by-cell incidence.  A cluster whose records are all events has the
term of the empty A, with s = 0, whose L(0) = 1 holds at every
parameter point: it is left out of the layout, and the level's
``constant`` (1 for such a cluster, 0 elsewhere) stands in for it.  A
value pass takes every s-value from one incidence product and makes one
``log_laplace`` call per level, whatever the unit sets and event counts;
the signed terms added to the ``constant``, in term order, give the
cluster probabilities.
:meth:`LikelihoodWorkspace.total_loglik` gives the whole dataset's
log-likelihood, and :func:`cluster_loglik` one cluster's.

:meth:`LikelihoodWorkspace.loglik_and_score` also forms G, the
[clusters, free] matrix of each cluster's unweighted score g_i with
respect to the free vector of an ``estimation.ParameterLayout``, from the
same s-values and Laplace terms, and returns the score sum_i w_i g_i and
the BHHH matrix J = G' diag(w) G from it, with which ``estimation.fit``
steers its trust region.  It builds no ModelSpec: at every pass, each
level's law and link Jacobian, each rate-linear block's rates and each
unit's beta are read from the layout's free vector and its ``spec0``,
block by block through the ``_sources`` that serves a value pass with a
spec's own numbers.  With sign_A = (-1)^|A|, d log P_i / d Lambda of a
cell sums sign_A L'(s_A) / P_i
over the terms that hold it, one product with the transposed incidence;
the chain rule then runs through the baselines (exactly for rate-linear
ones; a Weibull or generalized gamma baseline's ``cumulative`` is
differenced in its log-parameters by ``hazard._central_jacobian``) and
the covariate effects, and as a unit block holds at most one cell per
cluster (the workspace refuses a dataset whose cluster repeats a unit,
with DuplicateUnit), each baseline or beta column adds into G's rows directly.  One ``family.log_laplace_partials`` call
per level gives log L(s) together with its closed-form partials in
(alpha, gamma, mu), from the same exponentials; the frailty columns chain
three per-cluster sums of the terms' partials through the link Jacobian
blocks (``BranchRegime.jacobian``, which applies the regime pins), and a
level pinned to the gamma limit computes no alpha partial.

With ``information=True`` the same pass also returns the observed
information, the exact negated Hessian that ``estimation.fit`` takes its
standard errors from (no differenced score passes):

    -H = sum_i w_i g_i g_i' - sum_A (w_i T_A / P_i) (d2 l_A + d l_A d l_A'),

with T_A = sign_A L(s_A), l_A = log L(s_A) and g_i the cluster's score,
the first sum the pass's J.  One ``family.log_laplace_second_partials`` call
per level gives log L and the first and second partials of l_A in
(mu s, alpha, gamma); they are
chained through the incidence (d s_A sums the d Lambda of A's cells), the
baselines (a rate-linear one's d2 Lambda / d theta_k^2 is
d Lambda / d theta_k, a Weibull or generalized gamma one's second
differences come from ``hazard._central_jacobian``), the covariate
effects, the link Jacobian blocks and the link's own second derivatives.

Each level owns the arrays its passes write, by name (``_Level.buffer``):
the cells' hazards and d log P / d Lambda, each rate-linear block's
d Lambda / d theta, the terms' s-values, the cluster probabilities and
d log P / d(alpha, gamma, mu), and work arrays of the cells and the terms.
The terms' work arrays ("terms", 0), ("terms", 1), ... come one per
``next`` from ``_Level.arrays()``, the ``out`` of the pass's ``family``
kernel, which writes log L and its partials into them; the signed terms
and T_A / P_i take log L's place, and an information pass draws its k
du_A directions and two weight arrays from the same iterator after the
kernel returns, so none of them holds a kernel result.  The workspace
owns G and its weighted copy.  Each array is made by np.empty on the
first pass that needs it, so a value-only workspace never holds a score
array.  A pass still makes some arrays of the data's size anew: a Weibull
or generalized gamma baseline's differenced hazards, and the entries of
the kernels' series regions, gathered (the psi region is every term at
alpha = gamma); bool masks are an eighth of the size.  The incidence products add into the level's arrays through
scipy's own kernels of ``incidence @ x`` and ``incidence.T @ x``, so they
add in the same order as the products.  A pass returns new arrays only
for what its caller keeps: the gradient, J and -H.  G stays readable as
the read-only :attr:`LikelihoodWorkspace.scores` until the next pass
overwrites it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .data import Cluster, CurrentStatusDataset
from .errors import (DuplicateUnit, InvalidParameters, MissingCovariate, NonPositiveProbability,
                     UnknownUnit)
from .family import log_laplace, log_laplace_partials, log_laplace_second_partials
from .hazard import ModelSpec, _central_jacobian, _central_steps, _link_values

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
    rows: object                    # the cells' clusters (``_rows``)
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
    """The inclusion-exclusion terms of one stratum level's clusters, and
    the work arrays of its passes."""
    name: str
    clusters: np.ndarray        # positions in the dataset's cluster order
    rows: object                # the same (``_rows``)
    blocks: List[_Block]
    incidence: sparse.csr_matrix    # [terms, cells] 0/1
    # the two index arrays are np.intp, which np.add.at and np.take take uncast
    term_cluster: np.ndarray    # [terms] index into ``clusters``
    cell_cluster: np.ndarray    # [cells] each cell's cluster, a position in the dataset
    signs: np.ndarray           # [terms] (-1)^|A|
    constant: np.ndarray        # [clusters] 1.0 where the empty term is left out, else 0.0
    buffers: dict = field(default_factory=dict, repr=False)     # the pass's arrays by name

    def buffer(self, name, shape, order: str = "C") -> np.ndarray:
        return _buffer(self.buffers, name, shape, order)

    def arrays(self):
        """The level's term work arrays ("terms", 0), ("terms", 1), ...,
        one per ``next``: the ``out`` of a ``family`` kernel, from which an
        information pass goes on drawing its own."""
        shape = self.incidence.shape[:1]
        return (self.buffer(("terms", i), shape) for i in itertools.count())

    def term_sums(self, cell_values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``incidence @ cell_values``, each term's sum over its cells, into
        ``out``: scipy's own kernel of that product, which adds into the
        array it is given, in member order."""
        return self._product(_sparsetools.csr_matvec, self.incidence.shape, cell_values, out)

    def cell_sums(self, term_values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``incidence.T @ term_values``, each cell's sum over the terms
        that hold it, into ``out``, by the kernel of that product."""
        return self._product(_sparsetools.csc_matvec, self.incidence.shape[::-1], term_values,
                             out)

    def _product(self, kernel, shape, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the kernel trusts its sizes, so they are checked here
        if values.shape != shape[1:] or out.shape != shape[:1]:
            raise ValueError(f"incidence product of shape {shape}: values {values.shape}, "
                             f"out {out.shape}")
        out.fill(0.0)
        inc = self.incidence
        kernel(*shape, inc.indptr, inc.indices, inc.data, values, out)
        return out


def _buffer(buffers: dict, name, shape, order: str = "C") -> np.ndarray:
    """The work array ``name`` of ``buffers``, of ``shape`` and memory
    ``order``, made by np.empty on its first use; every pass after that
    writes into the same array."""
    array = buffers.get(name)
    if array is None or array.shape != shape:
        array = buffers[name] = np.empty(shape, order=order)
    return array


def _add_rows(scores: np.ndarray, rows, col: int, values: np.ndarray):
    """Adds ``values`` into G's column ``col`` at the clusters ``rows``
    (``_rows``: a slice, or distinct positions, where ``np.add.at`` takes
    half the time of ``scores[rows, col] += values``, with the same bits)."""
    if isinstance(rows, slice):
        scores[rows, col] += values
    else:
        np.add.at(scores[:, col], rows, values)


def _grid_key(baseline) -> Optional[tuple]:
    """Identifies a rate-linear baseline's exposure matrix; None otherwise."""
    if not hasattr(baseline, "exposure"):
        return None
    return (type(baseline).__name__, getattr(baseline, "cutpoints", ()))


def _rows(positions: np.ndarray):
    """Ascending cluster ``positions`` as a slice where they are consecutive,
    which G's columns take without a gather, else as they are."""
    if positions.size and positions[-1] - positions[0] == positions.size - 1:
        return slice(int(positions[0]), int(positions[-1]) + 1)
    return positions


def _sources(level: _Level, spec: ModelSpec, values: dict, betas: dict) -> list:
    """Per unit block of ``level``: (baseline key, exposure matrix under the
    key's baseline in ``spec`` or None, ``values[key]``, ``betas.get(unit)``).
    ``values`` holds each key's rates, for a rate-linear baseline, or else
    its baseline object; ``betas`` each unit's beta where it has covariates."""
    sources = []
    for block in level.blocks:
        key = (level.name, block.unit) if spec.stratified_baselines else block.unit
        sources.append((key, block.exposure_for(spec.baselines[key]), values[key],
                        betas.get(block.unit)))
    return sources


def _slots_and_levels(spec: ModelSpec, data: CurrentStatusDataset):
    """Each row's slot in ``spec.units``, the stratum levels, and each
    cluster's level code; a cluster without a stratum is in the reference
    level.  A unit the spec does not have raises UnknownUnit, at its first row."""
    unit_order = {u: i for i, u in enumerate(spec.units)}
    slot_of = np.array([unit_order.get(u, -1) for u in data.unit_names], dtype=np.int64)
    slot = slot_of[data.unit]
    if np.any(slot < 0):
        row = int(np.argmax(slot < 0))
        raise UnknownUnit(f"cluster {data.cluster_ids[data.cluster[row]]!r}: unit "
                          f"{data.unit_names[data.unit[row]]!r} is not one of the model's "
                          f"units {', '.join(spec.units)}")
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
    holds the non-events and the events whose bits spell i.  A cluster of
    events only (m == k) leaves out term 0, the empty set, whose L(0) = 1
    is its level's ``constant``.  Returns every term's members as positions
    among the cells, one term after the other, the terms' ends in that list
    and their signs (-1)^|A|."""
    members = np.hstack([np.ones((1 << k, m - k), dtype=bool),
                         (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)])
    members = members[int(m == k):]
    lengths = members.sum(axis=1)
    template = np.nonzero(members)[1], np.cumsum(lengths), np.where((lengths - m + k) % 2, -1.0, 1.0)
    for array in template:
        array.flags.writeable = False   # every workspace shares them
    return template


def _terms(counts: np.ndarray, sizes: np.ndarray, firsts: np.ndarray, slotted: np.ndarray):
    """Each term's cluster and sign, and the CSR (indptr, indices) of each
    term's member cells,
    over clusters of ``counts`` events on ``sizes`` rows whose cells
    ``slotted`` holds from their first rows ``firsts`` on, non-events
    first.  The terms run in cluster order, 2^k - [k = m] of them for a
    cluster of k events on m rows (a cluster of events only has no empty
    term); clusters of one size and event count share a ``_template``."""
    subsets = np.left_shift(1, counts)
    n_terms = subsets - (counts == sizes)
    # each non-event is in every term of its cluster, each event in half
    # the subsets, and a left-out empty term holds neither
    n_members = n_terms * (sizes - counts) + counts * subsets // 2
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
    return np.repeat(np.arange(counts.size, dtype=np.intp), n_terms), signs, indptr, indices


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
        self._buffers = {}      # the pass's workspace-wide arrays, by name (``_buffer``)
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
        missing, repeated = [], []
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
                positions = data.cluster[rows]
                # a unit block holds one cell per cluster, its clusters ascending
                repeat = positions[1:] == positions[:-1]
                if repeat.any():
                    repeated.append((int(positions[1:][repeat][0]), j, unit))
                times = data.time[rows]
                design, absent = _design(spec, data, unit, rows)
                if absent is not None:
                    missing.append((absent[0], j, absent[1], unit))
                baseline = spec.baseline_for(name, unit)
                grid = _grid_key(baseline)
                blocks.append(_Block(unit, slice(edges[j] - first, edges[j + 1] - first),
                                     _rows(positions), times, design, grid,
                                     baseline.exposure(times) if grid else None))
            term_cluster, signs, indptr, indices = _terms(
                counts[clusters], sizes[clusters], firsts[clusters], slotted)
            incidence = sparse.csr_matrix(
                (np.ones(indices.size), indices, indptr), shape=(term_cluster.size, n_cells))
            self.levels.append(_Level(
                name, clusters, _rows(clusters), blocks, incidence, term_cluster,
                data.cluster[order[first:edges[-1]]], signs,
                (counts[clusters] == sizes[clusters]).astype(float)))
        if repeated:
            pos, _, unit = min(repeated)
            raise DuplicateUnit(data.cluster_ids[pos], unit)
        if missing:
            pos, _, covariate, unit = min(missing)
            raise MissingCovariate(f"cluster {data.cluster_ids[pos]!r}, unit {unit!r}: "
                                   f"covariate {covariate!r} missing")

    def _hazards(self, level: _Level, sources):
        """One level's cell hazards, per block (baseline key, rates or
        baseline, exposure or None, covariate multipliers or None), and the
        terms' s-values, from the level's ``_sources``, in its arrays."""
        n_terms, n_cells = level.incidence.shape
        lam = level.buffer("lam", (n_cells,))
        parts = []
        for block, (key, exposure, value, beta) in zip(level.blocks, sources):
            cells = lam[block.cells]
            # np.dot, not @: matmul loops per element over an exponential
            # baseline's [n, 1] exposure, a view with a zero stride
            if exposure is None:
                cells[:] = value.cumulative(block.times)
            else:
                np.dot(exposure, value, out=cells)
            mult = None
            if beta is not None:
                mult = level.buffer("mult", (n_cells,))[block.cells]
                np.exp(np.matmul(block.design, beta, out=mult), out=mult)
                cells *= mult
            parts.append((key, value, exposure, mult))
        return lam, parts, level.term_sums(lam, level.buffer("svals", (n_terms,)))

    def _probabilities(self, level: _Level, log_l: np.ndarray):
        """sign_A L(s_A) of the terms at their ``log_l``, in place of
        ``log_l``, the clamped cluster probabilities, in the level's array,
        and the clamped clusters' mask or None."""
        signed = np.exp(log_l, out=log_l)
        signed *= level.signs
        # the constant, then each term in order: bit for bit the sum of a
        # layout that kept the empty terms
        prob = level.buffer("prob", level.constant.shape)
        np.copyto(prob, level.constant)
        np.add.at(prob, level.term_cluster, signed)
        bad = prob <= 0.0
        if not np.any(bad):
            return signed, prob, None
        if np.any(prob <= -_CLAMP_TOL):
            worst = int(np.argmin(prob))
            raise NonPositiveProbability(
                f"cluster {self.cluster_ids[level.clusters[worst]]!r}: "
                f"inclusion-exclusion sum {prob[worst]}"
            )
        diagnostics.clamped_probabilities += int(bad.sum())
        prob[bad] = _CLAMP_VALUE
        return signed, prob, bad

    def cluster_logliks(self, spec: ModelSpec) -> np.ndarray:
        values = {key: baseline if _grid_key(baseline) is None else baseline.rate_vector
                  for key, baseline in spec.baselines.items()}
        betas = {unit: np.asarray(pred.coefficients)
                 for unit, pred in spec.predictors.items() if pred.covariate_names}
        out = np.empty(self.n_clusters)
        for level in self.levels:
            params = spec.frailty_params(level.name)
            svals = self._hazards(level, _sources(level, spec, values, betas))[2]
            prob = self._probabilities(level, log_laplace(params, svals, out=level.arrays()))[1]
            out[level.clusters] = np.log(prob, out=prob)
        return out

    def total_loglik(self, spec: ModelSpec) -> float:
        return float(np.sum(self.weights * self.cluster_logliks(spec)))

    @property
    def scores(self) -> np.ndarray:
        """G of the last score pass, [n_clusters, n_free], as a read-only
        view of the workspace's array, which the next pass overwrites."""
        if "scores" not in self._buffers:
            raise AttributeError("no score pass has run on this workspace")
        view = self._buffers["scores"].view()
        view.flags.writeable = False
        return view

    def _point(self, layout, theta_free) -> list:
        """What a pass reads at the free vector ``theta_free`` of ``layout``,
        per level: (regime, design row, law with the regime pin applied, its
        3 x p link-Jacobian blocks, ``_sources``), with no spec built.

        Its checks are :meth:`ParameterLayout.build_spec`'s: a rate that is
        not finite or is 0 raises InvalidParameters, a Weibull or
        generalized gamma baseline is its ``with_log_params`` object, and
        the law's own checks run (``BranchRegime.law``).
        """
        spec, link = layout.spec0, layout.spec0.frailty_link
        full = layout.full_from_free(theta_free)
        values = {}
        for key, sl in layout.baseline_slices.items():
            if _grid_key(spec.baselines[key]) is None:
                values[key] = spec.baselines[key].with_log_params(full[sl])
                continue
            values[key] = np.exp(full[sl])
            if not all(0.0 < rate < math.inf for rate in values[key].tolist()):
                raise InvalidParameters(f"baseline {key!r}: rates must be finite and > 0")
        betas = {unit: full[sl] for unit, sl in layout.beta_slices.items() if sl.stop > sl.start}
        zeta, kappa, beta0 = (full[layout.link_slices[name]] for name in ("zeta", "kappa", "beta0"))
        points = []
        for level in self.levels:
            regime, x, pinned = (spec.branch_regimes[level.name], link.row(level.name),
                                 link.mu_pinned(level.name))
            alpha, gamma, mu = _link_values(x, zeta, kappa, beta0, pinned)
            points.append((regime, x, regime.law(alpha, gamma, mu),
                           regime.jacobian(x, gamma, mu, pinned),
                           _sources(level, spec, values, betas)))
        return points

    def loglik_and_score(self, layout, theta_free, information: bool = False):
        """Weighted log-likelihood at ``layout.build_spec(theta_free)``, its
        gradient with respect to ``theta_free`` and the BHHH matrix
        J = G' diag(w) G of G, the [n_clusters, n_free] unweighted
        per-cluster scores, of which the gradient is ``weights @ G``; with
        ``information`` set, also the observed information -H, the negated
        Hessian, from the same pass.

        The numbers are read from ``theta_free`` by :meth:`_point`; no spec
        is built.  The value equals :meth:`total_loglik` at the same spec.
        Clusters whose probability was clamped contribute nothing to the
        score or the information, and their rows of G are 0.

        The pass writes into arrays that the workspace and its levels own,
        made on the first pass of each kind, and returns new arrays only for
        what its caller keeps: the gradient, J and -H.  G is one of the
        owned arrays: :attr:`scores` reads it until the next pass.
        """
        free = layout.free_mask
        # each entry's column of G; a pinned entry has none
        column = np.where(free, np.cumsum(free) - 1, -1)
        shape = (self.n_clusters, layout.n_free)
        per_cluster = _buffer(self._buffers, "scores", shape, "F")
        per_cluster.fill(0.0)
        out = _buffer(self._buffers, "logliks", (self.n_clusters,))
        if information:
            info = np.zeros((free.size, free.size))
        for level, (regime, x, params, jacobian, sources) in zip(
                self.levels, self._point(layout, theta_free)):
            lam, parts, svals = self._hazards(level, sources)
            alpha = regime.moves_alpha     # a pinned alpha skips its partials
            arrays = level.arrays()
            if information:
                (log_l, d_alpha, d_gamma, h), second = log_laplace_second_partials(
                    params, svals, alpha, out=arrays)
            else:
                log_l, d_alpha, d_gamma, h = log_laplace_partials(params, svals, alpha, out=arrays)
            signed, prob, bad = self._probabilities(level, log_l)
            # d log P = dP / P: each term's T_A / P_i, 0 on a clamped cluster,
            # in place of T_A
            term_work = level.buffer("term_work", signed.shape)
            ratio = np.divide(signed, np.take(prob, level.term_cluster, out=term_work), out=signed)
            if bad is not None:
                ratio[bad[level.term_cluster]] = 0.0
            out[level.clusters] = np.log(prob, out=prob)
            dl_cells, d_frailty, d_bases = self._level_scores(
                layout, level, jacobian, lam, parts, svals, ratio, params.mu,
                (h, d_alpha, d_gamma), column, per_cluster)
            if information:
                # w_i dl_j and w_i T_A / P_i, in place of dl_j and T_A / P_i
                weights = self.weights[level.rows]
                dl_cells *= np.take(self.weights, level.cell_cluster,
                                    out=level.buffer("cell_work", dl_cells.shape))
                ratio *= np.take(weights, level.term_cluster, out=term_work)
                info += self._level_curvature(
                    layout, level, x, params, jacobian, lam, parts, d_bases, svals, ratio,
                    dl_cells, weights @ d_frailty, (np.negative(h, out=h), d_alpha, d_gamma),
                    second, arrays)
        value = float(np.sum(np.multiply(self.weights, out, out=out)))
        grad = self.weights @ per_cluster
        # J = G' diag(w) G, its product taken as G.T @ (G * w[:, None])
        weighted = np.multiply(per_cluster, self.weights[:, None],
                               out=_buffer(self._buffers, "weighted_scores", shape, "F"))
        bhhh = per_cluster.T @ weighted
        if not information:
            return value, grad, bhhh
        # sum_i w_i g_i g_i' from G, and the whole made exactly symmetric
        info = bhhh + info[np.ix_(free, free)]
        return value, grad, bhhh, 0.5 * (info + info.T)

    def _level_scores(self, layout, level, jacobian, lam, parts, svals, ratio, mu,
                      first, column, per_cluster):
        """Adds one level's rows of G, its clusters' unweighted scores, into
        the ``column``s of ``per_cluster`` (-1 for a pinned entry), and
        returns each cell's d log P_i / d Lambda_j and the [clusters, 3]
        d log P_i / d(alpha, gamma, mu), in the level's arrays, and per unit
        block its cells' [cells, params] d Lambda / d theta of the
        baseline's log-parameters.  ``ratio`` is T_A / P_i, 0 on a clamped
        cluster, and ``first`` the terms' (h, d alpha, d gamma) partials of
        log L.  A unit block holds at most one cell per cluster, so each of
        its columns adds into distinct rows."""
        h, d_alpha, d_gamma = first
        n_cells = lam.size
        terms = np.multiply(ratio, h, out=level.buffer("term_work", ratio.shape))
        # d log L / ds = -mu h, and d s_A / d Lambda_j = 1 for each cell j of A
        dl_cells = level.cell_sums(terms, level.buffer("dl_cells", (n_cells,)))
        dl_cells *= -mu
        factors, products = (level.buffer(name, (n_cells,)) for name in ("cell_work", "products"))
        d_bases = []
        for j, (block, (key, value, exposure, mult)) in enumerate(zip(level.blocks, parts)):
            dl, product = dl_cells[block.cells], products[block.cells]
            dl_base = dl if mult is None else np.multiply(dl, mult, out=factors[block.cells])
            # d Lambda / d theta: the exposure times the rates, a column at
            # a time, for a rate-linear baseline, in the exposure's own layout
            if exposure is None:
                d_base = _parametric_jacobian(value, block.times).T
            else:
                d_base = level.buffer(("d_base", j), exposure.shape,
                                      "F" if np.isfortran(exposure) else "C")
            d_bases.append(d_base)
            start = layout.baseline_slices[key].start
            for i, col in enumerate(column[start:start + d_base.shape[1]].tolist()):
                if exposure is not None:
                    np.multiply(exposure[:, i], value[i], out=d_base[:, i])
                if col >= 0:
                    _add_rows(per_cluster, block.rows, col,
                              np.multiply(dl_base, d_base[:, i], out=product))
            if block.design is not None:
                dl_beta = np.multiply(dl, lam[block.cells], out=factors[block.cells])
                start = layout.beta_slices[block.unit].start
                for i, col in enumerate(column[start:start + block.design.shape[1]].tolist()):
                    if col >= 0:
                        _add_rows(per_cluster, block.rows, col,
                                  np.multiply(dl_beta, block.design[:, i], out=product))
        # the clusters' d log P / d(alpha, gamma, mu), with d log L / d mu = -s h;
        # each column adds its terms in order, as np.bincount would
        d_frailty = level.buffer("d_frailty", (level.clusters.size, 3))
        d_frailty.fill(0.0)
        for j, partial in enumerate((d_alpha, d_gamma)):
            if partial is not None:
                np.add.at(d_frailty[:, j], level.term_cluster,
                          np.multiply(ratio, partial, out=terms))
        d_mu = np.negative(svals, out=terms)
        d_mu *= h
        np.add.at(d_frailty[:, 2], level.term_cluster, np.multiply(ratio, d_mu, out=d_mu))
        chained = level.buffer("chained", (level.clusters.size,))
        for name, sl in layout.link_slices.items():
            for col, chain in zip(column[sl].tolist(), jacobian[name].T):
                if col >= 0:
                    _add_rows(per_cluster, level.rows, col,
                              np.matmul(d_frailty, chain, out=chained))
        return dl_cells, d_frailty, d_bases

    def _level_curvature(self, layout, level, x, params, jacobian, lam, parts, d_bases, svals,
                         signed, dl_dlam, d_frailty, first, second, arrays) -> np.ndarray:
        """One level's part of the observed information over the full
        parameter vector but the sum_i w_i g_i g_i' term, that is

            -sum_A c_A (d2 l_A + d l_A d l_A'),

        with c_A = w_i T_A / P_i (``signed``) and l_A = log L(u_A; alpha, gamma),
        u_A = mu s_A.  Each term's gradient is f_u du_A + f_alpha d alpha +
        f_gamma d gamma in the natural coordinates z = (u, alpha, gamma), so
        its curvature is sum_ab (f_ab + f_a f_b) dz_a dz_b' + sum_a f_a d2 z_a.

        It is taken in a basis of k + 3 directions, the k parameters of
        the level's cell hazards and then d mu, d alpha and d gamma, where
        du_A = (mu d s_A, s_A, 0, 0).  Every product runs over one basis
        direction at a time, on vectors of the terms, in the level's
        arrays: no [terms, p] matrix, and never a [terms, p, p] array.  The
        terms' work arrays are the next of ``arrays``, the iterator whose
        earlier arrays hold the kernel's results; ``d_bases`` are
        :meth:`_level_scores`' d Lambda / d theta, which this pass scales in
        place.
        """
        n_full = layout.free_mask.size
        mu = params.mu
        slices = [layout.baseline_slices[part[0]] for part in parts] + [
            layout.beta_slices[block.unit] for block in level.blocks if block.design is not None]
        cols = sorted({i for sl in slices for i in range(sl.start, sl.stop)})
        k = len(cols)
        where = {c: i for i, c in enumerate(cols)}
        basis = np.zeros((k + 3, n_full))
        basis[np.arange(k), cols] = 1.0
        for name, sl in layout.link_slices.items():
            basis[k:, sl] = jacobian[name][[2, 0, 1]]
        # the terms' work arrays: du_A by direction, then two for the weights
        d_u = [next(arrays) for _ in range(k)] + [svals]    # s_A = incidence @ Lambda
        weight, weighted = next(arrays), next(arrays)
        # the cells' d Lambda along one basis direction at a time, 0 off
        # the direction's block
        d_lam = level.buffer("cell_work", lam.shape)

        def direction(r):
            # d2 u_A holds d mu d s_A' (below), with sum_A c_A f_u d s_A =
            # d Lambda' dl / mu; and du_A = mu d s_A
            curv[r, k] += dl_dlam @ d_lam / mu
            level.term_sums(np.multiply(d_lam, mu, out=d_lam), d_u[r])

        # sum_j dl_j d2 Lambda_j with dl = dl_dlam; ``curv`` is filled on and
        # above its diagonal
        curv = np.zeros((k + 3, k + 3))
        for j, (block, (key, baseline, exposure, mult), d_base) in enumerate(
                zip(level.blocks, parts, d_bases)):
            bs = where[layout.baseline_slices[key].start]
            dl = dl_dlam[block.cells]
            if exposure is not None:
                second_base = None      # d2 Lambda / d theta_k^2 = d Lambda / d theta_k
            else:
                steps = _central_steps(baseline.log_params)
                second_base = _central_jacobian(
                    lambda values, baseline=baseline, times=block.times: _parametric_jacobian(
                        baseline, times, values, steps), baseline.log_params, steps)
            if mult is not None:
                d_base *= mult[:, None]
            p = d_base.shape[1]
            for i in range(p):
                d_lam.fill(0.0)
                d_lam[block.cells] = d_base[:, i]
                direction(bs + i)
            if second_base is None:
                curv[range(bs, bs + p), range(bs, bs + p)] += dl @ d_base
            else:
                curv[bs:bs + p, bs:bs + p] += second_base @ (dl if mult is None else dl * mult)
            if block.design is not None:
                bb = where[layout.beta_slices[block.unit].start]
                design, cells_lam = block.design, lam[block.cells]
                q = design.shape[1]
                for i in range(q):
                    d_lam.fill(0.0)
                    np.multiply(design[:, i], cells_lam, out=d_lam[block.cells])
                    direction(bb + i)
                dl_lam = np.multiply(dl, cells_lam, out=d_lam[block.cells])
                curv[bb:bb + q, bb:bb + q] += design.T @ np.multiply(
                    design, dl_lam[:, None], out=level.buffer(("design", j), design.shape))
                dl_base = np.multiply(dl[:, None], d_base, out=d_base)
                curv[bs:bs + p, bb:bb + q] += dl_base.T @ design
        # sum_a f_a d2 z_a, d2 u_A = mu d2 s_A + d mu d s_A' + d s_A d mu' + s_A d2 mu,
        # holds the first term (the loop) and the second (``direction``)
        f_u, f_alpha, f_gamma = first
        uu, ua, ug, aa, ag, gg = second
        # sum_A c_A (f_ab + f_a f_b) dz_a dz_b'; the alpha entries stay 0
        # when alpha does not move
        np.multiply(f_u, f_u, out=weight)
        weight += uu
        weight *= signed
        for j, column in enumerate(d_u):
            np.multiply(column, weight, out=weighted)
            curv[:j + 1, j] += [row @ weighted for row in d_u[:j + 1]]
        np.multiply(f_u, f_gamma, out=weight)
        weight += ug
        weight *= signed
        curv[:k + 1, k + 2] += [row @ weight for row in d_u]
        np.multiply(f_gamma, f_gamma, out=weighted)
        curv[k + 2, k + 2] += signed @ np.add(gg, weighted, out=weighted)
        if f_alpha is not None:
            np.multiply(f_u, f_alpha, out=weight)
            weight += ua
            weight *= signed
            curv[:k + 1, k + 1] += [row @ weight for row in d_u]
            np.multiply(f_alpha, f_alpha, out=weighted)
            curv[k + 1, k + 1] += signed @ np.add(aa, weighted, out=weighted)
            np.multiply(f_alpha, f_gamma, out=weighted)
            curv[k + 1, k + 2] += signed @ np.add(ag, weighted, out=weighted)
        upper = np.triu_indices(k + 3, 1)
        curv[upper[::-1]] = curv[upper]
        info = -(basis.T @ curv @ basis)
        # the coordinates' own second derivatives: gamma = exp(x' kappa) and
        # mu = exp(x' beta0), and a pinned alpha moves with gamma, so each
        # coordinate's Hessian in an exp-link block is its Jacobian row times x'
        for name in ("kappa", "beta0"):
            sl = layout.link_slices[name]
            info[sl, sl] -= np.outer(d_frailty @ jacobian[name], x)
        return info


def _parametric_jacobian(baseline, times: np.ndarray, log_params=None, steps=None) -> np.ndarray:
    """The [params, times] central differences of a Weibull or generalized
    gamma ``baseline``'s cumulative hazard at ``times`` in its
    log-parameters, at ``log_params`` (its own by default) and ``steps``
    (``_central_steps`` of them by default)."""
    at = baseline.log_params if log_params is None else log_params
    return _central_jacobian(lambda values: baseline.with_log_params(values).cumulative(times),
                             at, _central_steps(at) if steps is None else steps)


def cluster_loglik(spec: ModelSpec, cluster: Cluster) -> float:
    """Log-probability of one cluster's current-status outcome."""
    data = CurrentStatusDataset((cluster,))
    return float(LikelihoodWorkspace(spec, data).cluster_logliks(spec)[0])
