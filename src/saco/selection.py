"""Exemplar selection by greedy maximization of a set objective.

The objective over a selected set A combines five terms:

* feature coverage: sum_j max_{i in A} S_ij  (facility location on the
  feature affinity graph),
* spatial coverage: the same on the location affinity graph, weighted
  by ``lambda_s``,
* cluster purity: (1/M) sum_{i in A} max_c N_c^i - |A|, where N_c^i
  counts class-c patches whose most similar exemplar is i,
* class balance: sum_c log(|A_c| + 1) over per-class selection counts,
* assignment entropy: -sum_{i in A} p_i log p_i - |A| with p_i the
  fraction of patches assigned to exemplar i.

The empty set scores 0.  Every patch is assigned to the exemplar with
the highest feature affinity; ties (including the all-zero case on a
sparse graph) go to the lowest exemplar id.  ``objective_terms``
evaluates the five terms from scratch, from the ids alone, by that same
tie rule; it shares no state with the greedy engine it checks, and
``evaluate_ids`` is their weighted sum.

``naive_greedy`` re-scores every candidate each round and stops early
when the best marginal gain is negative; tests and ``saco bench-greedy``
check against it.  ``lazy_greedy`` keeps a max-heap of upper bounds,
re-scores only candidates that surface, and returns naive greedy's
selection, ties included, with bit-identical gains, at any weights.  A
stale entry's key holds at every later step, rounding included: the
coverage, spatial and balance gains as last scored (these terms are
submodular), plus ``lambda_d * (max_c |moved ∩ c| / M - 1)`` and
``lambda_c * (H_b(min(q, 1/2)) - 1)``, where moved, the patches that
would join the candidate's cluster, only shrinks as the selection
grows, q = |moved| / M and H_b is the binary entropy.

``SelectionState.gains`` is the one scorer, in every weight regime.  It
scores a batch of candidates in vectorized passes over the CSR rows of
the two graphs, in the blocks of ``data.blocks``; a candidate's gain
never depends on the rest of its batch or on the block size.  Naive
greedy scores the whole pool each round, as does lazy greedy's first
call; later lazy calls re-score up to ``_RESCORE_BATCH`` stale heap
entries (the exact half of "lazier than lazy" greedy).  Evaluation
counts include every candidate scored, so a lazy run counts slightly
more than one re-scoring entries one at a time.  ``K`` is checked by
``data.check_count`` and labels by ``data.whole_numbers``.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import (PatchSet, blocks, check_count, check_scalar, read_csv_rows,
                   whole_numbers, write_lines)
from .errors import InvalidInputError

SELECTION_CSV_HEADER = "step,patch_id,gain,evaluations"
# stale heap entries ``lazy_greedy`` re-scores per call: at 32 the evaluation
# ratio of acceptance criterion 3 exceeds its 0.20 bound, and at 24 the
# M=10000 selection benchmark runs slower
_RESCORE_BATCH = 28



@dataclass(frozen=True)
class ObjectiveWeights:
    """Non-negative weights for the secondary objective terms."""

    lambda_s: float = 1.0
    lambda_d: float = 1.0
    lambda_b: float = 1.0
    lambda_c: float = 1.0

    def __post_init__(self):
        for name in ("lambda_s", "lambda_d", "lambda_b", "lambda_c"):
            check_scalar(name, getattr(self, name))


def _xlogx(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


def _row_entries(graph, rows: np.ndarray):
    """Stored entries of ``rows``, row by row: (row lengths, column indices, values)."""
    csr = graph.csr
    starts = csr.indptr[rows].astype(np.int64)
    lengths = csr.indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths  # row starts in the gathered arrays
    pos = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    return lengths, csr.indices[pos], csr.data[pos]


def _weighted_sum(weights, cover, spatial, purity, balance, entropy):
    """cover + lambda_s*spatial + lambda_d*purity + lambda_b*balance + lambda_c*entropy, in
    that order; a term of weight 0 is skipped (the same bits as adding it times 0)."""
    total = cover
    for lam, term in ((weights.lambda_s, spatial), (weights.lambda_d, purity),
                      (weights.lambda_b, balance), (weights.lambda_c, entropy)):
        if lam:
            total = total + lam * term
    return total


def _entropy_gain_bounds(xlogx):
    """Per count k = 0..M of moved patches, a float >= every entropy gain
    ``SelectionState._cluster_gains`` computes, now or later, for a
    candidate that moves k patches now; ``xlogx[k]`` is (k/M) log(k/M).

    Moving the share q = k / M into a new cluster raises the entropy by at
    most H_b(q) <= H_b(min(q, 1/2)), and k only shrinks.  Slack, u = 2^-53:
    ``xlogx[k]`` is within 3u of exact (``math.log`` within one ulp), so
    each of the <= k + 2 summed terms carries <= 7u; their exact sizes add
    up to < 2 log M + 1, so summation adds <= (k + 1)(2 log M + 1)u; H_b
    and the final sum add <= 9u.
    """
    m = len(xlogx) - 1
    k = np.arange(m + 1)
    h = np.where(2 * k < m, -(xlogx + xlogx[::-1]), math.log(2.0))
    return h + (k + 2) * (10.0 + 2.0 * math.log(m)) * (np.finfo(np.float64).eps / 2) - 1.0


def _coverage_gains(entries, best: np.ndarray) -> np.ndarray:
    """Facility-location gain sum_j max(A_ij - best_j, 0) of each row i of ``entries``,
    as ``_row_entries`` gathers them.

    Each row sums only its own entries, so a candidate's value does not
    depend on the rest of the batch.
    """
    lengths, idx, val = entries
    gap = val - best[idx]
    np.maximum(gap, 0.0, out=gap)
    out = np.zeros(len(lengths))
    # reduceat returns the element at a repeated offset, not 0: skip empty rows
    filled = lengths > 0
    if filled.any():
        out[filled] = np.add.reduceat(gap, (np.cumsum(lengths) - lengths)[filled])
    return out


class SelectionState:
    """Incremental bookkeeping for one greedy run.

    Tracks, per patch, the best feature/spatial affinity to the current
    selection and the owning exemplar; per exemplar, the class counts of
    its assigned patches (row ``e`` of a dense ``(m, n_classes)`` array);
    and per class, how many exemplars were picked.
    Patches with zero affinity to every exemplar sit in the cluster of
    the lowest selected id (the tie rule), and their per-class counts
    are kept separately so gains stay cheap to evaluate.  ``labels``, one
    class id >= 0 per patch, are checked by the greedy drivers.
    """

    def __init__(self, labels):
        self.labels = labels = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(labels.max()) + 1
        self.m = len(labels)
        self.selected: list[int] = []
        self.is_selected = np.zeros(self.m, dtype=bool)
        self.best_feature_sim = np.zeros(self.m)
        self.best_spatial_sim = np.zeros(self.m)
        self.cluster_of = np.full(self.m, -1, dtype=np.int64)
        self.cluster_counts = np.zeros((self.m, self.n_classes), dtype=np.int64)
        self.per_class_selected = np.zeros(self.n_classes, dtype=np.int64)
        # class counts of patches with best_feature_sim == 0
        self.uncovered_counts = np.bincount(labels, minlength=self.n_classes)
        self.min_selected: int | None = None
        # x log x of every cluster share k / m, k = 0..m, by math.log: numpy's
        # vectorized log can differ from it in the last bit
        self._xlogx = np.array([_xlogx(k / self.m) for k in range(self.m + 1)])
        self._entropy_bound = _entropy_gain_bounds(self._xlogx)

    # -- incremental engine -------------------------------------------------

    def gains(self, B, S, L, weights: ObjectiveWeights) -> np.ndarray:
        """Marginal gains of the unselected candidates ``B`` (1-D ids), in order.

        The batch is scored in blocks of vectorized passes over the CSR
        rows of the two graphs.  A candidate's gain depends only on its
        own rows, never on the rest of the batch or on the blocks.
        """
        return self._scored(B, S, L, weights)[0]

    def _scored(self, B, S, L, weights: ObjectiveWeights):
        """(gains, bounds) of the unselected candidates ``B``: ``bounds[i]`` is
        >= every gain of ``B[i]`` at this or a later state, rounding included.

        Coverage, spatial and balance gains only shrink, in floats too; the
        bounds replace the purity and entropy gains by ``_cluster_gains``'s
        bounds and sum in the same order, and rounding is monotone.

        ``B`` is scored in ``data.blocks`` of consecutive candidates, each
        as wide as the most stored entries one candidate has in the graphs
        it reads.
        """
        B = np.asarray(B, dtype=np.int64)
        graphs = (S, L) if weights.lambda_s else (S,)
        width = sum(g.csr.indptr[B + 1] - g.csr.indptr[B] for g in graphs)
        gain_b = None
        if weights.lambda_b:
            # math.log per class: numpy's log can differ in the last bit
            n_sel = self.per_class_selected.tolist()
            gain_b = np.array([math.log(n + 2.0) - math.log(n + 1.0) for n in n_sel])
        gains, bounds = np.empty(len(B)), np.empty(len(B))
        for block in blocks(len(B), max(1, int(width.max(initial=0)))):
            gains[block], bounds[block] = self._scored_block(B[block], S, L, weights, gain_b)
        return gains, bounds

    def _scored_block(self, B, S, L, weights: ObjectiveWeights, gain_b):
        """``_scored`` of one block, from one gather of its feature-graph rows."""
        entries = _row_entries(S, B)
        cover = _coverage_gains(entries, self.best_feature_sim)
        spatial = (_coverage_gains(_row_entries(L, B), self.best_spatial_sim)
                   if weights.lambda_s else None)
        balance = None if gain_b is None else gain_b[self.labels[B]]
        if not (weights.lambda_d or weights.lambda_c):
            total = _weighted_sum(weights, cover, spatial, None, balance, None)
            return total, total
        gain_d, gain_c, bound_d, bound_c = self._cluster_gains(B, entries)
        return (_weighted_sum(weights, cover, spatial, gain_d, balance, gain_c),
                _weighted_sum(weights, cover, spatial, bound_d, balance, bound_c))

    def _cluster_gains(self, B, entries):
        """Purity and entropy gains of the candidates ``B``, and bounds on both;
        ``entries`` are their feature-graph rows as ``_row_entries`` gathers them.

        A candidate takes over the patches it improves or ties at a lower
        id than their owner, plus the zero-affinity mass if it would be
        the new lowest id.  Grouping those patches by (candidate, old
        owner) gives each owner's class counts before and after.

        The moved patches form the candidate's cluster, and old clusters
        only lose patches, so max_c |moved ∩ c| / M - 1, by the same float
        operations, bounds the purity gain now and later.
        """
        n, m, C = len(B), self.m, self.n_classes
        if not self.selected:
            # one cluster of every patch: the pool's purity, zero entropy
            purity = np.full(n, self.uncovered_counts.max() / m - 1.0)
            return purity, np.full(n, -1.0), purity, np.full(n, self._entropy_bound[m])
        lengths, idx, val = entries
        old = self.best_feature_sim[idx]
        seg = np.repeat(np.arange(n), lengths)
        owner = self.cluster_of[idx]
        cls = self.labels[idx]
        improve = val > old
        # a patch at affinity 0 sits in the zero-affinity mass, not in a tie
        moved = improve | ((val == old) & (old > 0.0) & (B[seg] < owner))
        covered = improve & (old == 0.0)
        lowest = B < self.min_selected
        zero = self.uncovered_counts - np.bincount(
            seg[covered] * C + cls[covered], minlength=n * C).reshape(n, C)
        zero[~lowest] = 0
        mseg, mcls = seg[moved], cls[moved]
        new = np.bincount(mseg * C + mcls, minlength=n * C).reshape(n, C) + zero
        top, n_new = new.max(axis=1), new.sum(axis=1)

        keys = np.concatenate([mseg * m + owner[moved],
                               np.flatnonzero(lowest) * m + self.min_selected])
        groups, inv = np.unique(keys, return_inverse=True)
        leave = np.bincount(inv[:mseg.size] * C + mcls, minlength=groups.size * C).reshape(-1, C)
        leave[inv[mseg.size:]] += zero[lowest]
        gseg, gown = np.divmod(groups, m)
        before = self.cluster_counts[gown]
        after = before - leave
        purity = top + np.bincount(
            gseg, weights=after.max(axis=1) - before.max(axis=1), minlength=n)

        # per candidate: the new cluster's -x log x, then each old owner's
        # change in ascending owner id, summed as one run
        xl = self._xlogx
        heads = np.arange(n) + np.searchsorted(gseg, np.arange(n))
        parts = np.empty(n + groups.size)
        parts[heads] = -xl[n_new]
        parts[np.arange(groups.size) + gseg + 1] = xl[before.sum(axis=1)] - xl[after.sum(axis=1)]
        return (purity / m - 1.0, np.add.reduceat(parts, heads) - 1.0,
                top / m - 1.0, self._entropy_bound[n_new])

    def add(self, e: int, S, L) -> None:
        """Commit the unselected candidate ``e`` into the selection."""
        labels = self.labels
        idx_f, val_f = S.row(e)
        idx_s, val_s = L.row(e)
        old_f = self.best_feature_sim[idx_f]
        moved = idx_f[(val_f > old_f) | ((val_f == old_f) & (e < self.cluster_of[idx_f]))]
        self.best_feature_sim[idx_f] = np.maximum(old_f, val_f)
        self.best_spatial_sim[idx_s] = np.maximum(self.best_spatial_sim[idx_s], val_s)
        np.subtract.at(self.uncovered_counts, labels[idx_f[(old_f == 0.0) & (val_f > 0.0)]], 1)
        if self.min_selected is None or e < self.min_selected:
            # the zero-affinity mass re-ties to the new lowest id
            moved = np.union1d(moved, np.flatnonzero(self.best_feature_sim == 0.0))
            self.min_selected = e
        if self.selected:
            np.subtract.at(self.cluster_counts, (self.cluster_of[moved], labels[moved]), 1)
        self.cluster_counts[e] = np.bincount(labels[moved], minlength=self.n_classes)
        self.cluster_of[moved] = e
        self.per_class_selected[labels[e]] += 1
        self.selected.append(e)
        self.is_selected[e] = True


# -- from-scratch evaluation ------------------------------------------------


def _best_rows(G, ids):
    """Per patch, its best affinity to ``ids`` and the first sorted-id position attaining it.

    Equal to the max and argmax over the columns of the dense rows of
    ``sorted(ids)``: a patch no row stores gets affinity 0 and position 0.
    Only the stored entries of the selected rows are read.
    """
    rows = G.csr[sorted(ids)]
    pos = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
    best = np.zeros(rows.shape[1])
    np.maximum.at(best, rows.indices, rows.data)
    owner = np.full(rows.shape[1], rows.shape[0])
    hit = rows.data == best[rows.indices]
    np.minimum.at(owner, rows.indices[hit], pos[hit])
    owner[best == 0.0] = 0
    return best, owner


def _checked_labels(labels, S, L) -> np.ndarray:
    """``labels`` as a 1-D int64 array of class ids >= 0, one per node of each graph.

    A label must be a whole number >= 0; errors name the position of the
    first one that is not.
    """
    raw = np.asarray(labels)
    if raw.shape != (S.n,) or L.n != S.n or not S.n:
        raise InvalidInputError(f"labels need one entry per node of non-empty graphs: feature "
                                f"graph has {S.n} nodes and spatial graph {L.n} for labels "
                                f"of shape {raw.shape}")
    labels, bad = whole_numbers(raw)
    if bad.any():
        pos = int(bad.argmax())
        raise InvalidInputError(f"label {raw[pos].item()!r} at position {pos} is not an "
                                "integer >= 0")
    return labels


def objective_terms(ids, S, L, labels) -> dict[str, float]:
    """The five terms of the objective at the selection ``ids``, from scratch.

    Keyed representative (feature coverage), spatial, discriminative
    (cluster purity), balance and compact (assignment entropy), each as
    the module docstring defines it.  ``ids`` are distinct integer patch
    positions, and each graph has one node per entry of ``labels``;
    errors name the bad id.  Every term of the empty set is 0.
    """
    labels = _checked_labels(labels, S, L)
    m = len(labels)
    selected: list[int] = []
    for i in ids:
        try:
            pid = operator.index(i)
        except TypeError:
            raise InvalidInputError(f"patch id {i} is not an integer") from None
        if not 0 <= pid < m:
            raise InvalidInputError(f"patch id {pid} outside [0, {m})")
        if pid in selected:
            raise InvalidInputError(f"patch id {pid} repeats")
        selected.append(pid)
    if not selected:
        return dict.fromkeys(("representative", "spatial", "discriminative", "balance",
                              "compact"), 0.0)
    n, n_classes = len(selected), int(labels.max()) + 1
    best, owner = _best_rows(S, selected)
    # class counts of the patches each exemplar owns, one row per sorted id
    counts = np.bincount(owner * n_classes + labels,
                         minlength=n * n_classes).reshape(n, n_classes)
    per_class = np.bincount(labels[selected], minlength=n_classes)
    return {
        "representative": float(best.sum()),
        "spatial": float(_best_rows(L, selected)[0].sum()),
        "discriminative": float(counts.max(axis=1).sum()) / m - n,
        "balance": float(np.log(per_class + 1.0).sum()),
        "compact": -sum(_xlogx(p) for p in (counts.sum(axis=1) / m).tolist()) - n,
    }


def evaluate_ids(ids, S, L, labels, weights: ObjectiveWeights) -> float:
    """The objective at the selection ``ids``: the weighted sum of ``objective_terms``."""
    t = objective_terms(ids, S, L, labels)
    return _weighted_sum(weights, t["representative"], t["spatial"], t["discriminative"],
                         t["balance"], t["compact"])


# -- greedy drivers ---------------------------------------------------------


@dataclass
class SelectionResult:
    """Ordered selection with per-step gains and evaluation counters."""

    ids: list[int]
    gains: list[float]
    n_evaluations: int
    cumulative_evals: list[int]  # n_evaluations when each step committed

    def objective(self) -> float:
        return float(sum(self.gains))

    def write_csv(self, path, header_comments=()) -> None:
        rows = enumerate(zip(self.ids, self.gains, self.cumulative_evals))
        write_lines(path, [SELECTION_CSV_HEADER, *(f"{s},{pid},{float(g)!r},{evals}"
                                                   for s, (pid, g, evals) in rows)],
                    header_comments)


def read_selection_ids(path, n_patches: int) -> list[int]:
    """Patch row positions, in selection order, from a CSV written by ``write_csv``.

    Every id must index one of ``n_patches`` rows, at most once; errors
    name the file and line.
    """
    lines: dict[int, int] = {}  # patch id -> the line that holds it
    for ln, (_, pid, _, _) in read_csv_rows(path, SELECTION_CSV_HEADER, (int, int, float, int)):
        if not 0 <= pid < n_patches:
            raise InvalidInputError(f"{path}:{ln}: patch id {pid} outside [0, {n_patches})")
        if pid in lines:
            raise InvalidInputError(f"{path}:{ln}: patch id {pid} repeats line {lines[pid]}")
        lines[pid] = ln
    return list(lines)


def _greedy_state(patches, S, L, k) -> SelectionState:
    check_count("K", k)
    return SelectionState(_checked_labels(PatchSet.of(patches).labels, S, L))


def naive_greedy(patches, S, L, weights, k) -> SelectionResult:
    """Re-score every unselected candidate each round; pick the best.

    Stops when ``k`` exemplars are chosen, the pool is exhausted, or the
    best gain is negative.  Ties go to the lowest patch id.  Each
    committed gain equals, up to rounding, the difference of
    ``evaluate_ids`` on the selection before and after it.
    """
    state = _greedy_state(patches, S, L, k)
    gains: list[float] = []
    cumulative_evals: list[int] = []
    n_evals = 0
    while len(state.selected) < k:
        pool = np.flatnonzero(~state.is_selected)
        if pool.size == 0:
            break
        scores = state.gains(pool, S, L, weights)
        n_evals += pool.size
        best = int(np.argmax(scores))  # the first maximum: the lowest id
        if scores[best] < 0:
            break
        state.add(int(pool[best]), S, L)
        gains.append(float(scores[best]))
        cumulative_evals.append(n_evals)
    return SelectionResult(list(state.selected), gains, n_evals, cumulative_evals)


def lazy_greedy(patches, S, L, weights, k) -> SelectionResult:
    """``naive_greedy``'s ids and bit-identical gains, at any weights, from a
    max-heap of upper bounds.

    The candidates scored at this step compete on their exact gains; every
    other one sits in the heap ``stale``, keyed on a bound on its gain
    that holds at every later step (see the module docstring).  The best
    fresh candidate, the lowest id on ties, is committed once its gain
    beats every stale key (is higher, or equal at a lower id); until then
    up to ``_RESCORE_BATCH`` stale entries that beat it are re-scored in
    one call.  After a commit the other fresh candidates go stale.  Stops
    like ``naive_greedy``.  ``n_evaluations`` counts every candidate
    scored, including batch members that never surface.
    """
    state = _greedy_state(patches, S, L, k)
    stale: list = []  # (-bound, id) of the candidates scored before this step
    fresh: list = []  # (-bound, id) of the candidates scored at this step
    best = None  # (-gain, id) of the best of them
    batch = list(range(state.m))
    n_evals = 0
    gains: list[float] = []
    cumulative_evals: list[int] = []
    while batch:
        scores, bounds = state._scored(batch, S, L, weights)
        n_evals += len(batch)
        fresh.extend(zip((-bounds).tolist(), batch))
        top = min(zip((-scores).tolist(), batch))
        best = top if best is None else min(best, top)
        batch = []
        while stale and len(batch) < _RESCORE_BATCH and stale[0] < best:
            batch.append(heapq.heappop(stale)[1])
        if batch:
            continue
        neg_g, cand = best
        if -neg_g < 0:
            break
        state.add(cand, S, L)
        gains.append(-neg_g)
        cumulative_evals.append(n_evals)
        if len(state.selected) == k:
            break
        for item in fresh:
            if item[1] != cand:
                heapq.heappush(stale, item)
        fresh, best = [], None
        batch = [heapq.heappop(stale)[1] for _ in range(min(_RESCORE_BATCH, len(stale)))]
    return SelectionResult(list(state.selected), gains, n_evals, cumulative_evals)
