import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import saco.data
import saco.selection as sel
from saco.data import Patch, PatchSet
from saco.errors import InvalidInputError
from saco.graphs import AffinityGraph

from conftest import brute_force_opt, make_graphs, make_patches


SUBMODULAR = sel.ObjectiveWeights(lambda_s=0.7, lambda_d=0.0, lambda_b=1.3, lambda_c=0.0)
RANDOM = sel.ObjectiveWeights(*np.random.default_rng(5).uniform(0.1, 3.0, 4))
WEIGHTS = [sel.ObjectiveWeights(), RANDOM, SUBMODULAR]


@pytest.mark.parametrize("seed", range(15))
def test_lazy_equals_naive(seed):
    # lazy greedy's stale keys bound every later gain, so it returns naive
    # greedy's selection in every weight regime, not only the submodular one
    patches = make_patches(seed, m=40, clustered=True)
    S, L = make_graphs(patches, k_nn=8)
    labels = PatchSet.of(patches).labels
    for w in WEIGHTS:
        a = sel.naive_greedy(patches, S, L, w, 8)
        b = sel.lazy_greedy(patches, S, L, w, 8)
        assert a.ids == b.ids
        assert [repr(g) for g in a.gains] == [repr(g) for g in b.gains]
        # every committed gain is the step's difference of from-scratch values
        values = [sel.evaluate_ids(a.ids[:s], S, L, labels, w) for s in range(len(a.ids) + 1)]
        np.testing.assert_allclose(a.gains, np.diff(values), rtol=0, atol=1e-9)


def random_graph_instance(rng):
    """A sparse random symmetric affinity graph without self-affinity, an empty
    spatial graph and three random classes."""
    m = int(rng.integers(40, 90))
    A = rng.uniform(size=(m, m)) * (rng.uniform(size=(m, m)) < rng.uniform(0.03, 0.2))
    labels = rng.integers(0, 3, size=m)
    W = np.maximum(A, A.T)
    np.fill_diagonal(W, 0.0)
    patches = PatchSet(np.zeros((m, 1)), np.full((m, 2), 0.5), labels, np.zeros(m, dtype=int))
    return patches, AffinityGraph(sp.csr_matrix(W)), AffinityGraph(sp.csr_matrix((m, m)))


def test_lazy_equals_naive_where_a_stale_gain_understates():
    # the last of 931 draws: at step 7 patch 18's stale gain tops 51's,
    # though 51's exact gain is the larger, so a heap keyed on stale gains
    # picks 18 there and runs on to a different selection
    rng = np.random.default_rng(3)
    for _ in range(931):
        instance = random_graph_instance(rng)
        lam = rng.choice([0.2, 0.5, 1.0])
    patches, S, L = instance
    assert (len(patches), lam) == (83, 1.0)
    w = sel.ObjectiveWeights(lambda_s=0.0, lambda_d=1.0, lambda_b=0.0, lambda_c=1.0)
    naive = sel.naive_greedy(patches, S, L, w, len(patches))
    lazy = sel.lazy_greedy(patches, S, L, w, len(patches))
    assert naive.ids == [25, 0, 60, 36, 13, 20, 35, 51]
    assert round(naive.objective(), 4) == 53.1236
    assert lazy.ids == naive.ids
    assert [repr(g) for g in lazy.gains] == [repr(g) for g in naive.gains]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.2, 1.0, 5.0]),
       graph=st.sampled_from(["random", "knn"]))
def test_stale_keys_bound_every_later_gain(seed, lam, graph):
    rng = np.random.default_rng(seed)
    if graph == "random":
        patches, S, L = random_graph_instance(rng)
    else:
        patches = make_patches(seed, m=int(rng.integers(20, 60)), clustered=True)
        S, L = make_graphs(patches, k_nn=6)
    m = len(patches)
    w = sel.ObjectiveWeights(*(lam * rng.uniform(0.0, 2.0, 4)))
    state = sel.SelectionState(PatchSet.of(patches).labels)
    keys = np.full(m, np.inf)  # the least key each candidate has had so far
    for e in rng.permutation(m)[:int(rng.integers(1, m))]:
        pool = np.flatnonzero(~state.is_selected)
        gains, bounds = state._scored(pool, S, L, w)
        assert [repr(g) for g in gains] == [repr(g) for g in state.gains(pool, S, L, w)]
        assert (gains <= bounds).all()
        assert (gains <= keys[pool]).all()
        keys[pool] = np.minimum(keys[pool], bounds)
        state.add(int(e), S, L)


def scratch_gains(state, batch, S, L, w):
    """Gains of ``batch`` as differences of from-scratch objective values."""
    base = sel.evaluate_ids(state.selected, S, L, state.labels, w)
    return [sel.evaluate_ids(state.selected + [int(e)], S, L, state.labels, w) - base
            for e in batch]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n_committed", [0, 1, 6])
def test_batched_gains_equal_one_candidate_gains(seed, n_committed):
    patches = make_patches(seed, m=50, clustered=True)
    S, L = make_graphs(patches, k_nn=6)
    for w in WEIGHTS:
        rng = np.random.default_rng([seed, n_committed])
        state = sel.SelectionState(PatchSet.of(patches).labels)
        # exemplars from the upper half leave candidates below the lowest selected id
        for e in rng.choice(np.arange(25, 50), size=n_committed, replace=False):
            state.add(int(e), S, L)
        batch = rng.permutation(np.flatnonzero(~state.is_selected))  # out of id order
        batched = state.gains(batch, S, L, w)
        np.testing.assert_allclose(batched, scratch_gains(state, batch, S, L, w),
                                   rtol=0, atol=1e-9)
        # a candidate scores the same bits whatever else is in its batch
        part = batch[[9, 2, 30]]
        assert [repr(g) for g in state.gains(part, S, L, w)] == \
            [repr(g) for g in batched[[9, 2, 30]]]


def test_empty_rows_score_only_their_balance_term():
    # rows 2 and 4 store nothing: in the batch (2, 0, 3, 4) row 2 repeats
    # row 0's offset and row 4's offset is the end of the gathered entries
    A = np.zeros((5, 5))
    A[0, 1] = A[1, 0] = 0.8
    A[0, 3] = A[3, 0] = 0.3
    A[1, 3] = A[3, 1] = 0.5
    S = AffinityGraph(sp.csr_matrix(A))
    patches = [Patch(i, np.zeros(2), (0.5, 0.5), i % 2, 0) for i in range(5)]
    balance = SUBMODULAR.lambda_b * (np.log(2.0) - np.log(1.0))
    for w in (SUBMODULAR, sel.ObjectiveWeights()):
        state = sel.SelectionState(PatchSet.of(patches).labels)
        for committed in (None, 1):
            if committed is not None:
                state.add(committed, S, S)
            batch = [c for c in (2, 0, 3, 4) if not state.is_selected[c]]
            got = state.gains(batch, S, S, w)
            # after committing 1, candidate 0 would become the lowest selected id
            np.testing.assert_allclose(got, scratch_gains(state, batch, S, S, w),
                                       rtol=0, atol=1e-9)
            if w is SUBMODULAR:
                assert got[batch.index(2)] == pytest.approx(balance, abs=1e-15)
                # patches 2 and 4 are class 0, which has no exemplar yet
                assert got[batch.index(4)] == pytest.approx(balance, abs=1e-15)


def test_stored_zero_affinity_is_not_a_tie():
    # patch 4 stores a zero affinity to 0 and 3 and none to anything else: it
    # sits in the zero-affinity mass, owned by the lowest selected id
    A = np.zeros((5, 5))
    A[0, 1] = A[1, 0] = 0.8
    A[1, 2] = A[2, 1] = 0.4
    rows, cols = np.nonzero(A)
    rows, cols = np.r_[rows, 0, 4, 3, 4], np.r_[cols, 4, 0, 4, 3]
    S = AffinityGraph(sp.csr_matrix((np.r_[A[A > 0], 0.0, 0.0, 0.0, 0.0], (rows, cols)),
                                    shape=(5, 5)))
    assert S.csr.nnz == 8
    patches = [Patch(i, np.zeros(2), (0.5, 0.5), i % 2, 0) for i in range(5)]
    w = sel.ObjectiveWeights()
    state = sel.SelectionState(PatchSet.of(patches).labels)
    for e in (2, 0):
        state.add(e, S, S)
        batch = np.flatnonzero(~state.is_selected)
        np.testing.assert_allclose(state.gains(batch, S, S, w),
                                   scratch_gains(state, batch, S, S, w), rtol=0, atol=1e-9)
        # from scratch: each patch counted at its first best exemplar in id order
        scratch = np.zeros((len(state.selected), state.n_classes), dtype=np.int64)
        np.add.at(scratch, (sel._best_rows(S, state.selected)[1], state.labels), 1)
        np.testing.assert_array_equal(state.cluster_counts[sorted(state.selected)], scratch)


def test_batched_lazy_equals_naive_exactly(monkeypatch):
    # large enough that stale entries are re-scored many at a time
    patches = make_patches(21, m=2000, clustered=True)
    S, L = make_graphs(patches, k_nn=16)
    w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
    naive = sel.naive_greedy(patches, S, L, w, 100)
    lazy = sel.lazy_greedy(patches, S, L, w, 100)
    assert lazy.ids == naive.ids
    assert [repr(g) for g in lazy.gains] == [repr(g) for g in naive.gains]
    monkeypatch.setattr(sel, "_RESCORE_BATCH", 1)
    one_by_one = sel.lazy_greedy(patches, S, L, w, 100)
    assert one_by_one.ids == naive.ids
    # batches re-score entries that one-at-a-time never reaches
    assert one_by_one.n_evaluations < lazy.n_evaluations < naive.n_evaluations


@pytest.mark.parametrize("w", WEIGHTS, ids=["default", "random", "submodular"])
def test_block_size_leaves_selection_unchanged(w, monkeypatch):
    """Blocks of 1 or 7 candidates or the whole pool: the same ids, gains and counts.

    Blocks split the candidates evenly, at most BLOCK_DOUBLES // width a
    block, width the most stored entries one candidate has in the graphs
    it reads.
    """
    patches = make_patches(8, m=120, clustered=True)
    S, L = make_graphs(patches, k_nn=8)
    width = int((np.diff(S.csr.indptr) + np.diff(L.csr.indptr)).max())
    scored_block = sel.SelectionState._scored_block
    results = {}
    for rows in (1, 7, len(patches)):
        blocks = []

        def spy(state, B, *args):
            blocks.append(len(B))
            return scored_block(state, B, *args)

        monkeypatch.setattr(sel.SelectionState, "_scored_block", spy)
        monkeypatch.setattr(saco.data, "BLOCK_DOUBLES", rows * width)
        results[rows] = [driver(patches, S, L, w, 30) for driver in (sel.lazy_greedy, sel.naive_greedy)]
        sizes = [len(b) for b in np.array_split(range(len(patches)), -(-len(patches) // rows))]
        assert blocks[:len(sizes)] == sizes  # lazy greedy's first call: the whole pool
    for rows in (1, 7):
        for got, want in zip(results[rows], results[len(patches)]):
            assert got.ids == want.ids
            assert [repr(g) for g in got.gains] == [repr(g) for g in want.gains]
            assert got.n_evaluations == want.n_evaluations
            assert got.cumulative_evals == want.cumulative_evals


def test_graphs_and_first_scoring_peak_within_a_multiple_of_the_graphs():
    """Both graphs at M = 10,000, k_nn = 50, and lazy greedy's first call, which
    scores every candidate: traced numpy memory peaks below 2.7 times the two
    graphs' bytes.  Each temporary is bounded by ``BLOCK_DOUBLES``, so the
    peak is the graphs, their symmetrization and a fixed amount; it was 3.0
    times the graphs with whole-pool temporaries.
    """
    import tracemalloc

    rng = np.random.default_rng(0)
    m = 10_000
    labels = rng.integers(0, 3, size=m)
    centers = rng.normal(size=(12, 9))  # 9-D: the dense feature path, the tree spatial path
    feats = centers[labels * 4 + rng.integers(0, 4, size=m)] + 0.25 * rng.normal(size=(m, 9))
    patches = PatchSet(feats, rng.uniform(size=(m, 2)), labels, np.zeros(m, dtype=int))
    make_graphs(patches[:100])  # imports the k-d tree outside the traced region
    tracemalloc.start()
    try:
        S, L = make_graphs(patches, k_nn=50)
        sel.lazy_greedy(patches, S, L, sel.ObjectiveWeights(), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    graph_bytes = sum(a.nbytes for g in (S, L) for a in (g.csr.data, g.csr.indices, g.csr.indptr))
    assert peak < 2.7 * graph_bytes


@pytest.mark.parametrize("seed", range(3))
def test_patch_list_and_patch_set_select_alike(seed):
    patches = make_patches(seed, m=60, clustered=True)
    as_set = PatchSet.of(patches)
    S, L = make_graphs(patches, k_nn=8)
    S2, L2 = make_graphs(as_set, k_nn=8)
    for a, b in ((S, S2), (L, L2)):
        assert (a.csr != b.csr).nnz == 0
        np.testing.assert_array_equal(a.csr.data, b.csr.data)
    w = sel.ObjectiveWeights()
    a = sel.lazy_greedy(patches, S, L, w, 10)
    b = sel.lazy_greedy(as_set, S2, L2, w, 10)
    assert a.ids == b.ids
    assert [repr(g) for g in a.gains] == [repr(g) for g in b.gains]


def test_lazy_uses_fewer_evaluations():
    patches = make_patches(3, m=60, clustered=True)
    S, L = make_graphs(patches, k_nn=10)
    w = sel.ObjectiveWeights()
    a = sel.naive_greedy(patches, S, L, w, 10)
    b = sel.lazy_greedy(patches, S, L, w, 10)
    assert b.n_evaluations < a.n_evaluations


def test_naive_evaluation_count_exact():
    m, k = 25, 4
    patches = make_patches(5, m=m)
    S, L = make_graphs(patches, k_nn=6)
    res = sel.naive_greedy(patches, S, L, sel.ObjectiveWeights(), k)
    assert len(res.ids) == k
    # step t scans the m - t remaining candidates
    assert res.n_evaluations == sum(m - t for t in range(k))


def test_gains_are_committed_gains():
    patches = make_patches(6, m=30)
    S, L = make_graphs(patches, k_nn=6)
    w = sel.ObjectiveWeights()
    labels = [p.label for p in patches]
    res = sel.naive_greedy(patches, S, L, w, 6)
    total = 0.0
    for step, g in enumerate(res.gains):
        before = sel.evaluate_ids(res.ids[:step], S, L, labels, w)
        after = sel.evaluate_ids(res.ids[: step + 1], S, L, labels, w)
        assert g == pytest.approx(after - before, abs=1e-9)
        total += g
    assert res.objective() == pytest.approx(total)
    assert res.objective() == pytest.approx(
        sel.evaluate_ids(res.ids, S, L, labels, w)
    )


def test_tie_breaks_to_lowest_id():
    # two identical far-apart pairs: within each pair the gains tie exactly,
    # so the scan must keep the first (lowest-id) candidate
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 0.0]])
    patches = [
        Patch(i, feats[i], (0.1 * (i + 1), 0.1 * (i + 1)), 0, 0) for i in range(5)
    ]
    S, L = make_graphs(patches, k_nn=4)
    # the default weights and the submodular regime, whose gains are batched
    for w in (sel.ObjectiveWeights(), sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)):
        naive = sel.naive_greedy(patches, S, L, w, 2)
        lazy = sel.lazy_greedy(patches, S, L, w, 2)
        assert naive.ids == lazy.ids
        assert naive.ids[0] in (0, 2)
        # whichever pair wins, its lower member is chosen
        assert naive.ids[0] % 2 == 0


def test_early_stop_on_nonpositive_gain():
    # all patches mutually similar (self-similarity included): one exemplar
    # already covers everything, so any further pick only pays the
    # cardinality penalties and greedy stops at one
    patches = [Patch(i, np.zeros(2), (0.5, 0.5), 0, 0) for i in range(6)]
    W = np.ones((6, 6))
    S = AffinityGraph(sp.csr_matrix(W))
    res = sel.naive_greedy(patches, S, S, sel.ObjectiveWeights(), 5)
    assert len(res.ids) == 1
    lazy = sel.lazy_greedy(patches, S, S, sel.ObjectiveWeights(), 5)
    assert lazy.ids == res.ids


def test_k_larger_than_pool_is_capped():
    patches = make_patches(7, m=10)
    S, L = make_graphs(patches, k_nn=5)
    w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
    res = sel.naive_greedy(patches, S, L, w, 50)
    assert len(res.ids) <= 10


def test_k_must_be_positive(small_instance):
    patches, S, L = small_instance
    with pytest.raises(InvalidInputError):
        sel.naive_greedy(patches, S, L, sel.ObjectiveWeights(), 0)


@pytest.mark.parametrize("k", [2.5, True, "3"])
@pytest.mark.parametrize("driver", [sel.lazy_greedy, sel.naive_greedy], ids=["lazy", "naive"])
def test_k_must_be_an_integer(driver, k):
    # at K = 2.5 lazy greedy picked all 60 patches and naive greedy 3
    patches = make_patches(3, m=60)
    S, L = make_graphs(patches)
    with pytest.raises(InvalidInputError, match=re.escape(f"K must be an integer, got {k!r}")):
        driver(patches, S, L, sel.ObjectiveWeights(), k)
    assert driver(patches, S, L, sel.ObjectiveWeights(), np.int64(2)).ids == \
        driver(patches, S, L, sel.ObjectiveWeights(), 2).ids


@pytest.mark.parametrize("driver", [sel.lazy_greedy, sel.naive_greedy], ids=["lazy", "naive"])
@pytest.mark.parametrize("m_graph", [40, 20])
def test_graph_size_must_match_the_patches(driver, m_graph):
    patches = make_patches(12, m=30)
    S, L = make_graphs(patches)
    other = make_graphs(make_patches(13, m=m_graph))[0]
    with pytest.raises(InvalidInputError, match=f"feature graph has {m_graph} nodes and "
                                                f"spatial graph 30 for labels of "
                                                f"shape \\(30,\\)"):
        driver(patches, other, L, sel.ObjectiveWeights(), 5)
    with pytest.raises(InvalidInputError, match=f"feature graph has 30 nodes and "
                                                f"spatial graph {m_graph} for labels of "
                                                f"shape \\(30,\\)"):
        driver(patches, S, other, sel.ObjectiveWeights(), 5)


def test_monotone_weights_select_exactly_k(small_instance):
    patches, S, L = small_instance
    w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
    res = sel.lazy_greedy(patches, S, L, w, 9)
    assert len(res.ids) == 9


def test_cumulative_evals_track_totals(small_instance):
    patches, S, L = small_instance
    res = sel.lazy_greedy(patches, S, L, sel.ObjectiveWeights(), 5)
    assert len(res.cumulative_evals) == len(res.ids)
    assert res.cumulative_evals[-1] == res.n_evaluations
    assert all(
        a <= b for a, b in zip(res.cumulative_evals, res.cumulative_evals[1:])
    )


def test_write_csv_format(tmp_path, small_instance):
    patches, S, L = small_instance
    res = sel.naive_greedy(patches, S, L, sel.ObjectiveWeights(), 4)
    out = tmp_path / "sel.csv"
    res.write_csv(out, header_comments=["seed = 0"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed = 0"
    assert lines[1] == "step,patch_id,gain,evaluations"
    assert len(lines) == 2 + len(res.ids)
    step, pid, gain, evals = lines[2].split(",")
    assert int(step) == 0
    assert int(pid) == res.ids[0]
    assert float(gain) == pytest.approx(res.gains[0])


class TestBruteForce:
    def test_matches_exhaustive_small(self):
        patches = make_patches(9, m=9)
        S, L = make_graphs(patches, k_nn=5)
        w = sel.ObjectiveWeights()
        labels = [p.label for p in patches]
        ids, val = brute_force_opt(patches, S, L, w, 3)
        # exhaustive cross-check
        import itertools

        best = 0.0
        for r in range(1, 4):
            for combo in itertools.combinations(range(9), r):
                v = sel.evaluate_ids(list(combo), S, L, labels, w)
                if v > best:
                    best = v
        assert val == pytest.approx(best, abs=1e-12)
        assert sel.evaluate_ids(ids, S, L, labels, w) == pytest.approx(val)

    def test_greedy_within_bound(self):
        # with the cardinality-penalty terms off, the objective is monotone
        # submodular and greedy must reach at least (1 - 1/e) of optimal
        w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
        for seed in range(5):
            patches = make_patches(seed + 200, m=12)
            S, L = make_graphs(patches, k_nn=6)
            g = sel.naive_greedy(patches, S, L, w, 4)
            _, opt = brute_force_opt(patches, S, L, w, 4)
            assert g.objective() >= (1 - 1 / np.e) * opt - 1e-9

    def test_refuses_huge_search(self):
        patches = make_patches(10, m=60)
        S, L = make_graphs(patches, k_nn=6)
        with pytest.raises(InvalidInputError):
            brute_force_opt(patches, S, L, sel.ObjectiveWeights(), 20)
