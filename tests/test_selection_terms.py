import math

import numpy as np
import pytest

import saco.selection as sel
from saco.data import Patch, PatchSet
from saco.errors import InvalidInputError
from saco.graphs import AffinityGraph

from conftest import make_graphs, make_patches


def graph_from_dense(W):
    import scipy.sparse as sp

    return AffinityGraph(sp.csr_matrix(np.asarray(W, dtype=np.float64)))


def state_with(patches, S, L, ids):
    st = sel.SelectionState(PatchSet.of(patches).labels)
    for e in ids:
        st.add(e, S, L)
    return st


def terms(patches, S, L, ids):
    return sel.objective_terms(ids, S, L, PatchSet.of(patches).labels)


def dense_terms(S_dense, L_dense, labels, ids, n_classes):
    """From-scratch oracle for every objective term."""
    M = S_dense.shape[1]
    ids = sorted(ids)
    if not ids:
        return dict(rep=0.0, spa=0.0, dis=0.0, bal=0.0, com=0.0)
    rep = S_dense[ids].max(axis=0).sum()
    spa = L_dense[ids].max(axis=0).sum()
    assign = np.argmax(S_dense[ids], axis=0)
    counts = np.zeros((len(ids), n_classes), dtype=int)
    for j in range(M):
        counts[assign[j], labels[j]] += 1
    dis = counts.max(axis=1).sum() / M - len(ids)
    bal = sum(
        math.log(1 + sum(labels[i] == c for i in ids)) for c in range(n_classes)
    )
    com = 0.0
    for k in range(len(ids)):
        n_k = counts[k].sum()
        if n_k:
            p = n_k / M
            com -= p * math.log(p)
    com -= len(ids)
    return dict(rep=rep, spa=spa, dis=dis, bal=bal, com=com)


class TestFrozenValues:
    def test_empty_set_is_zero(self, small_instance):
        patches, S, L = small_instance
        t = terms(patches, S, L, [])
        assert t["representative"] == 0.0
        assert t["spatial"] == 0.0
        assert t["discriminative"] == 0.0
        assert t["balance"] == 0.0
        assert t["compact"] == 0.0
        labels = PatchSet.of(patches).labels
        assert sel.evaluate_ids([], S, L, labels, sel.ObjectiveWeights()) == 0.0

    def test_all_ones_similarity_single_exemplar(self):
        W = np.ones((5, 5)) - np.eye(5)
        patches = [Patch(i, np.zeros(2), (0.5, 0.5), 0, 0) for i in range(5)]
        S = graph_from_dense(W)
        # the exemplar's own row has a zero diagonal, so its self-similarity
        # contributes 0 and the other four patches contribute 1 each
        assert terms(patches, S, S, [2])["representative"] == pytest.approx(4.0)

    def test_balance_single_exemplar_log2(self, small_instance):
        patches, S, L = small_instance
        assert terms(patches, S, L, [0])["balance"] == pytest.approx(math.log(2.0))

    def test_balance_counts_2_3_1(self):
        labels = [0, 0, 1, 1, 1, 2]
        patches = [Patch(i, np.eye(6)[i], (0.5, 0.5), labels[i], 0) for i in range(6)]
        S, L = make_graphs(patches, k_nn=5)
        # select all six: per-class exemplar counts (2, 3, 1)
        assert terms(patches, S, L, list(range(6)))["balance"] == pytest.approx(
            math.log(3) + math.log(4) + math.log(2)
        )

    def test_discriminative_pure_clusters(self):
        # two similarity blocks, one exemplar in each, single label per block;
        # within-block similarity 1 (self included) so every cluster is pure
        W = np.zeros((8, 8))
        W[:4, :4] = 1.0
        W[4:, 4:] = 1.0
        labels = [0] * 4 + [1] * 4
        patches = [Patch(i, np.zeros(1), (0.5, 0.5), labels[i], 0) for i in range(8)]
        S = graph_from_dense(W)
        assert terms(patches, S, S, [0, 4])["discriminative"] == pytest.approx(1.0 - 2.0)

    def test_discriminative_60_40_split(self):
        m = 100
        labels = [0] * 60 + [1] * 40
        W = np.ones((m, m)) - np.eye(m)
        patches = [Patch(i, np.zeros(1), (0.5, 0.5), labels[i], 0) for i in range(m)]
        S = graph_from_dense(W)
        assert terms(patches, S, S, [0])["discriminative"] == pytest.approx(0.6 - 1.0)

    def test_compact_single_cluster(self):
        m = 10
        W = np.ones((m, m)) - np.eye(m)
        patches = [Patch(i, np.zeros(1), (0.5, 0.5), 0, 0) for i in range(m)]
        S = graph_from_dense(W)
        # one cluster holding every patch: entropy 0, |A| = 1
        assert terms(patches, S, S, [3])["compact"] == pytest.approx(-1.0)

    def test_compact_even_split(self):
        # two exemplars, each covering exactly half the patches
        W = np.zeros((6, 6))
        for j in range(6):
            W[0, j] = 1.0 if j < 3 else 0.1
            W[3, j] = 0.1 if j < 3 else 1.0
        W[0, 0] = W[3, 3] = 0.0
        W = np.maximum(W, W.T)
        patches = [Patch(i, np.zeros(1), (0.5, 0.5), 0, 0) for i in range(6)]
        S = graph_from_dense(W)
        assert terms(patches, S, S, [0, 3])["compact"] == pytest.approx(math.log(2.0) - 2.0)


class TestDenseOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_terms_equal_dense_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        patches = make_patches(seed, m=30)
        S, L = make_graphs(patches, k_nn=6)
        n_sel = int(rng.integers(1, 9))
        ids = sorted(int(i) for i in rng.choice(30, size=n_sel, replace=False))
        t = terms(patches, S, L, ids)
        want = dense_terms(S.csr.toarray(), L.csr.toarray(), [p.label for p in patches], ids, 3)
        assert t["representative"] == pytest.approx(want["rep"], abs=1e-12)
        assert t["spatial"] == pytest.approx(want["spa"], abs=1e-12)
        assert t["discriminative"] == pytest.approx(want["dis"], abs=1e-12)
        assert t["balance"] == pytest.approx(want["bal"], abs=1e-12)
        assert t["compact"] == pytest.approx(want["com"], abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_state_invariants_after_adds(self, seed):
        rng = np.random.default_rng([seed, 77])
        patches = make_patches(seed + 50, m=25)
        S, L = make_graphs(patches, k_nn=6)
        ids = [int(i) for i in rng.choice(25, size=6, replace=False)]
        st = state_with(patches, S, L, ids)
        Sd, Ld = S.csr.toarray(), L.csr.toarray()
        sorted_ids = sorted(ids)
        np.testing.assert_allclose(st.best_feature_sim, Sd[sorted_ids].max(axis=0))
        np.testing.assert_allclose(st.best_spatial_sim, Ld[sorted_ids].max(axis=0))
        # every patch is assigned to exactly one cluster
        total = sum(int(st.cluster_counts[e].sum()) for e in ids)
        assert total == len(patches)
        assert int(st.per_class_selected.sum()) == len(ids)


class TestBestRows:
    """The sparse column max and first argmax equal the dense ones over the selected rows."""

    def test_matches_dense_reference(self):
        import scipy.sparse as sp

        # row 2 stores an explicit 0 at column 3, no selected row touches column 5
        # (only row 3 does), rows 1 and 2 tie at column 0 and rows 0 and 4 at column 2
        rows = [0, 0, 0, 1, 1, 2, 2, 2, 4, 4, 3]
        cols = [2, 1, 4, 0, 4, 0, 1, 3, 2, 4, 5]
        vals = [0.7, 0.2, 0.3, 0.5, 0.3, 0.5, 0.9, 0.0, 0.7, 0.3, 0.8]
        W = sp.coo_matrix((vals, (rows, cols)), shape=(6, 6)).tocsr()
        assert W.nnz == len(vals)
        ids = [4, 2, 0, 1]
        best, owner = sel._best_rows(AffinityGraph(W), ids)
        dense = W.toarray()[sorted(ids)]
        np.testing.assert_array_equal(best, dense.max(axis=0))
        np.testing.assert_array_equal(owner, dense.argmax(axis=0))
        np.testing.assert_array_equal(owner, [1, 2, 0, 0, 0, 0])


class TestMarginalGain:
    @pytest.mark.parametrize("seed", range(10))
    def test_gain_equals_evaluate_difference(self, seed):
        rng = np.random.default_rng([seed, 88])
        patches = make_patches(seed + 100, m=28)
        S, L = make_graphs(patches, k_nn=6)
        labels = [p.label for p in patches]
        w = sel.ObjectiveWeights(
            lambda_s=float(rng.uniform(0, 2)),
            lambda_d=float(rng.uniform(0, 2)),
            lambda_b=float(rng.uniform(0, 2)),
            lambda_c=float(rng.uniform(0, 2)),
        )
        st = sel.SelectionState(labels)
        selected = []
        for e in [int(i) for i in rng.choice(28, size=7, replace=False)]:
            before = sel.evaluate_ids(selected, S, L, labels, w)
            gain = st.gains([e], S, L, w)[0]
            after = sel.evaluate_ids(selected + [e], S, L, labels, w)
            assert gain == pytest.approx(after - before, abs=1e-9)
            committed = st.gains([e], S, L, w)[0]
            st.add(e, S, L)
            assert committed == pytest.approx(gain, abs=1e-12)
            selected.append(e)

    def test_gain_does_not_mutate_state(self, small_instance):
        patches, S, L = small_instance
        w = sel.ObjectiveWeights()
        st = state_with(patches, S, L, [2, 9])
        before_f = st.best_feature_sim.copy()
        before_cluster = st.cluster_of.copy()
        st.gains([15], S, L, w)
        np.testing.assert_array_equal(st.best_feature_sim, before_f)
        np.testing.assert_array_equal(st.cluster_of, before_cluster)


class TestEvaluateIds:
    @pytest.fixture()
    def instance(self):
        patches = make_patches(4, m=30)
        S, L = make_graphs(patches)
        return S, L, [p.label for p in patches]

    @pytest.mark.parametrize("ids, message", [
        ([0, -1], r"patch id -1 at position 1 is not an integer in \[0, 30\)"),
        ([0, 31], r"patch id 31 at position 1 is not an integer in \[0, 30\)"),
        ([0, 30], r"patch id 30 at position 1 is not an integer in \[0, 30\)"),
        ([3, 3], r"patch id 3 at position 1 repeats position 0"),
        ([0, 2.7], r"patch id 2.7 at position 1 is not an integer"),
        # True once scored as patch 1, and np.True_ failed as "not an integer"
        ([True], r"patch id True at position 0 is not an integer"),
        ([np.True_], r"patch id True at position 0 is not an integer"),
        ([[1]], r"patch id \[1\] at position 0 is not an integer"),
        (5, r"patch ids must be a list, got 5"),
    ], ids=["negative", "out-of-range", "id-equals-m", "repeated", "non-integer", "bool",
            "numpy-bool", "nested", "number"])
    def test_bad_id_is_named(self, instance, ids, message):
        S, L, labels = instance
        w = sel.ObjectiveWeights()
        # a whole float is the integer it holds
        assert sel.evaluate_ids([1.0], S, L, labels, w) == sel.evaluate_ids([1], S, L, labels, w)
        with pytest.raises(InvalidInputError, match=message):
            sel.evaluate_ids(ids, S, L, labels, w)

    @pytest.mark.parametrize("bad, message", [
        (0.7, r"label 0\.7 at position 4 is not an integer"),
        (float("nan"), r"label nan at position 4 is not an integer"),
        (-10.0, r"label -\d+\.0 at position 4 is not an integer >= 0"),
    ], ids=["fractional", "nan", "negative"])
    def test_bad_label_is_named(self, instance, bad, message):
        # labels + 0.7 once scored the same as the integer labels
        S, L, labels = instance
        w = sel.ObjectiveWeights()
        whole = np.array(labels, dtype=float)
        assert sel.evaluate_ids([0, 2], S, L, whole, w) == sel.evaluate_ids([0, 2], S, L, labels, w)
        whole[4:] += bad
        with pytest.raises(InvalidInputError, match=message):
            sel.evaluate_ids([0, 2], S, L, whole, w)

    def test_empty_graphs_are_rejected(self):
        empty = graph_from_dense(np.zeros((0, 0)))
        with pytest.raises(InvalidInputError, match="non-empty graphs: feature graph has 0 "):
            sel.evaluate_ids([], empty, empty, [], sel.ObjectiveWeights())

    @pytest.mark.parametrize("m_graph", [40, 20])
    def test_graph_size_must_match_the_labels(self, instance, m_graph):
        S, L, labels = instance
        other = make_graphs(make_patches(5, m=m_graph))[0]
        with pytest.raises(InvalidInputError, match=f"feature graph has {m_graph} nodes and "
                                                    f"spatial graph 30 for labels of "
                                                    f"shape \\(30,\\)"):
            sel.evaluate_ids([0], other, L, labels, sel.ObjectiveWeights())
        with pytest.raises(InvalidInputError, match=f"feature graph has 30 nodes and "
                                                    f"spatial graph {m_graph} for labels of "
                                                    f"shape \\(30,\\)"):
            sel.evaluate_ids([0], S, other, labels, sel.ObjectiveWeights())


class TestObjectiveWeights:
    def test_defaults_are_one(self):
        w = sel.ObjectiveWeights()
        assert (w.lambda_s, w.lambda_d, w.lambda_b, w.lambda_c) == (1.0, 1.0, 1.0, 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            sel.ObjectiveWeights(lambda_d=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            sel.ObjectiveWeights(lambda_b=float("inf"))

    def test_zero_weights_reduce_to_representative(self, small_instance):
        patches, S, L = small_instance
        w = sel.ObjectiveWeights(0.0, 0.0, 0.0, 0.0)
        labels = PatchSet.of(patches).labels
        assert sel.evaluate_ids([1, 7], S, L, labels, w) == pytest.approx(
            terms(patches, S, L, [1, 7])["representative"])
