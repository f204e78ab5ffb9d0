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
sparse graph) go to the lowest exemplar id, so evaluation from scratch
and incremental bookkeeping agree exactly.

``naive_greedy`` re-scores every candidate each round and stops early
when the best marginal gain is negative.  ``lazy_greedy`` keeps stale
upper bounds in a max-heap and only re-scores candidates that surface.
With ``lambda_d = lambda_c = 0`` the objective is submodular, gains only
shrink as the selection grows, and both produce identical selections,
including tie handling.  The purity and entropy terms are not
submodular: with either weight > 0 a re-scored gain can exceed its
stale bound, and the two selections can differ.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import PatchSet, read_csv_rows
from .errors import InvalidInputError

SELECTION_CSV_HEADER = "step,patch_id,gain,evaluations"

__all__ = [
    "ObjectiveWeights",
    "SelectionState",
    "SelectionResult",
    "term_representative",
    "term_spatial",
    "term_discriminative",
    "term_balance",
    "term_compact",
    "evaluate",
    "evaluate_ids",
    "marginal_gain",
    "add_exemplar",
    "naive_greedy",
    "lazy_greedy",
    "brute_force_opt",
]


@dataclass(frozen=True)
class ObjectiveWeights:
    """Non-negative weights for the secondary objective terms."""

    lambda_s: float = 1.0
    lambda_d: float = 1.0
    lambda_b: float = 1.0
    lambda_c: float = 1.0

    def __post_init__(self):
        for name in ("lambda_s", "lambda_d", "lambda_b", "lambda_c"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")


def _xlogx(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


class SelectionState:
    """Incremental bookkeeping for one greedy run.

    Tracks, per patch, the best feature/spatial affinity to the current
    selection and the owning exemplar; per exemplar, the class counts of
    its assigned patches (row ``e`` of a dense ``(m, n_classes)`` array);
    and per class, how many exemplars were picked.
    Patches with zero affinity to every exemplar sit in the cluster of
    the lowest selected id (the tie rule), and their per-class counts
    are kept separately so gains stay cheap to evaluate.
    """

    def __init__(self, labels, n_classes=None):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or len(labels) == 0:
            raise InvalidInputError("labels must be a non-empty 1-D sequence")
        if labels.min() < 0:
            raise InvalidInputError("negative class label")
        if n_classes is None:
            n_classes = int(labels.max()) + 1
        elif labels.max() >= n_classes:
            raise InvalidInputError(f"label {labels.max()} out of range for {n_classes} classes")
        self.labels = labels
        self.n_classes = int(n_classes)
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

    @classmethod
    def for_patches(cls, patches, n_classes=None) -> "SelectionState":
        return cls(PatchSet.of(patches).labels, n_classes)

    # -- incremental engine -------------------------------------------------

    def _delta(self, e: int, S, L, weights: ObjectiveWeights, commit: bool) -> float:
        labels = self.labels
        m = self.m
        idx_f, val_f = S.row(e)
        idx_s, val_s = L.row(e)
        n_sel = self.per_class_selected[labels[e]]
        gain_b = math.log(n_sel + 2.0) - math.log(n_sel + 1.0)

        if not self.selected:
            gain_r = float(val_f.sum())
            gain_s = float(val_s.sum())
            class_tot = self.uncovered_counts  # full label histogram here
            gain_d = class_tot.max() / m - 1.0
            gain_c = -1.0  # single cluster: zero entropy minus the size penalty
            if commit:
                self.best_feature_sim[idx_f] = val_f
                self.best_spatial_sim[idx_s] = val_s
                self.cluster_of[:] = e
                self.cluster_counts[e] = class_tot
                covered = idx_f[val_f > 0]
                self.uncovered_counts = class_tot - np.bincount(
                    labels[covered], minlength=self.n_classes
                )
                self.min_selected = e
        else:
            old_f = self.best_feature_sim[idx_f]
            improve = val_f > old_f
            gain_r = float((val_f[improve] - old_f[improve]).sum())

            old_s = self.best_spatial_sim[idx_s]
            imp_s = val_s > old_s
            gain_s = float((val_s[imp_s] - old_s[imp_s]).sum())

            tie = (~improve) & (val_f == old_f) & (e < self.cluster_of[idx_f])
            moved = idx_f[improve | tie]
            newly_covered = idx_f[improve & (old_f == 0.0)]
            covered_hist = np.bincount(labels[newly_covered], minlength=self.n_classes)

            # Counts leaving each owner, scattered from (owner, class, count)
            # entries: one per moved patch, and one per class for the
            # zero-affinity mass, which re-ties to e if e is the new lowest id.
            lowest = e < self.min_selected
            C = self.n_classes
            src = np.concatenate([self.cluster_of[moved], np.full(C, self.min_selected)])
            cls = np.concatenate([labels[moved], np.arange(C)])
            cnt = np.concatenate([np.ones(moved.size, np.int64),
                                  (self.uncovered_counts - covered_hist) * lowest])
            owners, first, inv = np.unique(src, return_index=True, return_inverse=True)
            leave = np.zeros((owners.size, C), dtype=np.int64)
            np.add.at(leave, (inv, cls), cnt)
            before = self.cluster_counts[owners]
            after = before - leave
            new_counts_e = leave.sum(axis=0)

            gain_d = (int(new_counts_e.max()) + int(after.max(axis=1).sum())
                      - int(before.max(axis=1).sum())) / m - 1.0
            # Entropy change per owner, summed left to right in order of first
            # appearance: the order fixes the rounding that greedy ties see.
            ent = self._xlogx[before.sum(axis=1)] - self._xlogx[after.sum(axis=1)]
            ent = np.concatenate(([-self._xlogx[new_counts_e.sum()]], ent[np.argsort(first)]))
            gain_c = float(np.add.accumulate(ent)[-1]) - 1.0

            if commit:
                self.best_feature_sim[idx_f] = np.maximum(old_f, val_f)
                self.best_spatial_sim[idx_s] = np.maximum(old_s, val_s)
                self.cluster_of[moved] = e
                if lowest:
                    self.cluster_of[self.best_feature_sim == 0.0] = e
                    self.min_selected = e
                self.cluster_counts[owners] = after
                self.cluster_counts[e] = new_counts_e
                self.uncovered_counts = self.uncovered_counts - covered_hist

        if commit:
            self.per_class_selected[labels[e]] += 1
            self.selected.append(e)
            self.is_selected[e] = True
        return (
            gain_r
            + weights.lambda_s * gain_s
            + weights.lambda_d * gain_d
            + weights.lambda_b * gain_b
            + weights.lambda_c * gain_c
        )


def marginal_gain(state: SelectionState, candidate: int, S, L, weights) -> float:
    """Gain of adding ``candidate``; must equal the evaluation difference."""
    if candidate < 0 or candidate >= state.m:
        raise InvalidInputError(f"candidate {candidate} out of range")
    if state.is_selected[candidate]:
        raise InvalidInputError(f"candidate {candidate} already selected")
    return state._delta(candidate, S, L, weights, commit=False)


def add_exemplar(state: SelectionState, candidate: int, S, L, weights) -> float:
    """Commit ``candidate`` into the selection; returns its gain."""
    if candidate < 0 or candidate >= state.m:
        raise InvalidInputError(f"candidate {candidate} out of range")
    if state.is_selected[candidate]:
        raise InvalidInputError(f"candidate {candidate} already selected")
    return state._delta(candidate, S, L, weights, commit=True)


# -- from-scratch evaluation ------------------------------------------------


def _cluster_counts(ids, S, labels, n_classes):
    """(len(ids), n_classes) class counts of the patches each of ``ids`` owns.

    Owners follow the lowest-id tie rule: rows are scanned in ascending
    id order and argmax keeps the first maximum.
    """
    owner_pos = S.rows_dense(sorted(ids)).argmax(axis=0)
    counts = np.zeros((len(ids), n_classes), dtype=np.int64)
    np.add.at(counts, (owner_pos, labels), 1)
    return counts


def term_representative(state: SelectionState, S) -> float:
    """Feature facility location, recomputed from the selected ids."""
    if not state.selected:
        return 0.0
    return float(S.rows_dense(sorted(state.selected)).max(axis=0).sum())


def term_spatial(state: SelectionState, L) -> float:
    """Spatial facility location, recomputed from the selected ids."""
    if not state.selected:
        return 0.0
    return float(L.rows_dense(sorted(state.selected)).max(axis=0).sum())


def term_discriminative(state: SelectionState, S) -> float:
    """Purity of the induced clusters minus the selection size."""
    if not state.selected:
        return 0.0
    counts = _cluster_counts(state.selected, S, state.labels, state.n_classes)
    return float(counts.max(axis=1).sum()) / state.m - len(state.selected)


def term_balance(state: SelectionState) -> float:
    """sum_c log(1 + #selected exemplars of class c)."""
    if not state.selected:
        return 0.0
    hist = np.bincount(state.labels[state.selected], minlength=state.n_classes)
    return float(np.log(hist + 1.0).sum())


def term_compact(state: SelectionState, S) -> float:
    """Entropy of the cluster-size distribution minus the selection size."""
    if not state.selected:
        return 0.0
    counts = _cluster_counts(state.selected, S, state.labels, state.n_classes)
    p = counts.sum(axis=1) / state.m
    ent = -sum(_xlogx(v) for v in p.tolist())
    return ent - len(state.selected)


def evaluate(state: SelectionState, S, L, weights: ObjectiveWeights) -> float:
    """Full objective recomputed from scratch (0 for the empty set)."""
    if not state.selected:
        return 0.0
    return (
        term_representative(state, S)
        + weights.lambda_s * term_spatial(state, L)
        + weights.lambda_d * term_discriminative(state, S)
        + weights.lambda_b * term_balance(state)
        + weights.lambda_c * term_compact(state, S)
    )


def evaluate_ids(ids, S, L, labels, weights: ObjectiveWeights) -> float:
    """Objective value of an explicit id set, via a throwaway state."""
    state = SelectionState(labels)
    state.selected = [int(i) for i in ids]
    # evaluation only reads `selected`/labels, never the incremental caches
    return evaluate(state, S, L, weights)


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
        with open(path, "w", encoding="utf-8") as fh:
            for line in header_comments:
                fh.write(f"# {line}\n")
            fh.write(SELECTION_CSV_HEADER + "\n")
            for s, (pid, g, evals) in enumerate(zip(self.ids, self.gains, self.cumulative_evals)):
                fh.write(f"{s},{pid},{float(g)!r},{evals}\n")


def read_selection_ids(path, n_patches: int) -> list[int]:
    """Patch row positions, in selection order, from a CSV written by ``write_csv``.

    Every id must index one of ``n_patches`` rows; errors name the
    file and line.
    """
    ids = []
    for ln, (_, pid, _, _) in read_csv_rows(path, SELECTION_CSV_HEADER, (int, int, float, int)):
        if not 0 <= pid < n_patches:
            raise InvalidInputError(f"{path}:{ln}: patch id {pid} outside [0, {n_patches})")
        ids.append(pid)
    return ids


def _greedy_state(patches, k) -> SelectionState:
    if k < 1:
        raise InvalidInputError(f"K must be >= 1, got {k}")
    return SelectionState.for_patches(patches)


def naive_greedy(patches, S, L, weights, k) -> SelectionResult:
    """Re-score every unselected candidate each round; pick the best.

    Stops when ``k`` exemplars are chosen, the pool is exhausted, or the
    best gain is negative.  Ties go to the lowest patch id.  Each
    committed gain equals, up to rounding, the difference of
    ``evaluate_ids`` on the selection before and after it.
    """
    state = _greedy_state(patches, k)
    gains: list[float] = []
    cumulative_evals: list[int] = []
    n_evals = 0
    while len(state.selected) < k:
        best_gain = None
        best_id = None
        for cand in range(state.m):
            if state.is_selected[cand]:
                continue
            g = state._delta(cand, S, L, weights, commit=False)
            n_evals += 1
            if best_gain is None or g > best_gain:
                best_gain, best_id = g, cand
        if best_id is None or best_gain < 0:
            break
        gains.append(float(state._delta(best_id, S, L, weights, commit=True)))
        cumulative_evals.append(n_evals)
    return SelectionResult(list(state.selected), gains, n_evals, cumulative_evals)


def lazy_greedy(patches, S, L, weights, k) -> SelectionResult:
    """Greedy with stale upper bounds on a max-heap.

    Heap entries are (-gain, id, step_computed); an entry whose gain was
    computed at the current step is exact and can be accepted as soon as
    it surfaces.  The (gain, lowest-id) pop order reproduces the naive
    tie-breaking exactly.  The selection equals ``naive_greedy``'s only
    when ``lambda_d = lambda_c = 0``; otherwise a stale entry may
    understate a gain and the two can diverge.
    """
    state = _greedy_state(patches, k)
    heap = []
    n_evals = 0
    for i in range(state.m):
        g = state._delta(i, S, L, weights, commit=False)
        n_evals += 1
        heap.append((-g, i, 0))
    heapq.heapify(heap)

    gains: list[float] = []
    cumulative_evals: list[int] = []
    while heap and len(state.selected) < k:
        step = len(state.selected)
        neg_g, cand, stamp = heapq.heappop(heap)
        if stamp == step:
            if -neg_g < 0:
                break
            state._delta(cand, S, L, weights, commit=True)
            gains.append(float(-neg_g))
            cumulative_evals.append(n_evals)
        else:
            g = state._delta(cand, S, L, weights, commit=False)
            n_evals += 1
            heapq.heappush(heap, (-g, cand, step))
    return SelectionResult(list(state.selected), gains, n_evals, cumulative_evals)


def brute_force_opt(patches, S, L, weights, k):
    """Exhaustive maximum of the objective over subsets of size <= k.

    Guarded to small instances; returns (ids, value) with the first
    maximizer in (size, lexicographic) enumeration order.
    """
    labels = PatchSet.of(patches).labels
    m = len(labels)
    if math.comb(m, min(k, m)) > 1_000_000:
        raise InvalidInputError(f"C({m},{k}) too large for exhaustive search")
    best_ids: tuple[int, ...] = ()
    best_val = 0.0
    for size in range(1, min(k, m) + 1):
        for combo in itertools.combinations(range(m), size):
            v = evaluate_ids(combo, S, L, labels, weights)
            if v > best_val:
                best_val, best_ids = v, combo
    return list(best_ids), best_val
