import math

import numpy as np
import pytest

import saco.selection as sel
from saco.data import Patch
from saco.errors import InvalidInputError
from saco.graphs import AffinityGraph

from conftest import make_graphs, make_patches


def graph_from_dense(W):
    import scipy.sparse as sp

    return AffinityGraph(sp.csr_matrix(np.asarray(W, dtype=np.float64)))


def state_with(patches, S, L, ids, n_classes=3):
    st = sel.SelectionState.for_patches(patches, n_classes=n_classes)
    w = sel.ObjectiveWeights()
    for e in ids:
        sel.add_exemplar(st, e, S, L, w)
    return st


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
        st = sel.SelectionState.for_patches(patches, n_classes=3)
        assert sel.term_representative(st, S) == 0.0
        assert sel.term_spatial(st, L) == 0.0
        assert sel.term_discriminative(st, S) == 0.0
        assert sel.term_balance(st) == 0.0
        assert sel.term_compact(st, S) == 0.0
        assert sel.evaluate(st, S, L, sel.ObjectiveWeights()) == 0.0

    def test_all_ones_similarity_single_exemplar(self):
        W = np.ones((5, 5)) - np.eye(5)
        patches = [Patch(i, np.zeros(2), (0.5, 0.5), 0, 0) for i in range(5)]
        S = graph_from_dense(W)
        st = state_with(patches, S, S, [2])
        # the exemplar's own row has a zero diagonal, so its self-similarity
        # contributes 0 and the other four patches contribute 1 each
        assert sel.term_representative(st, S) == pytest.approx(4.0)

    def test_balance_single_exemplar_log2(self, small_instance):
        patches, S, L = small_instance
        st = state_with(patches, S, L, [0])
        assert sel.term_balance(st) == pytest.approx(math.log(2.0))

    def test_balance_counts_2_3_1(self):
        labels = [0, 0, 1, 1, 1, 2]
        patches = [Patch(i, np.eye(6)[i], (0.5, 0.5), labels[i], 0) for i in range(6)]
        S, L = make_graphs(patches, k_nn=5)
        st = state_with(patches, S, L, list(range(6))[:6], n_classes=3)
        # select all six: per-class exemplar counts (2, 3, 1)
        assert sel.term_balance(st) == pytest.approx(
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
        st = state_with(patches, S, S, [0, 4], n_classes=2)
        assert sel.term_discriminative(st, S) == pytest.approx(1.0 - 2.0)

    def test_discriminative_60_40_split(self):
        m = 100
        labels = [0] * 60 + [1] * 40
        W = np.ones((m, m)) - np.eye(m)
        patches = [Patch(i, np.zeros(1), (0.5, 0.5), labels[i], 0) for i in range(m)]
        S = graph_from_dense(W)
        st = state_with(patches, S, S, [0], n_classes=2)
        assert sel.term_discriminative(st, S) == pytest.approx(0.6 - 1.0)

    def test_compact_single_cluster(self):
        m = 10
        W = np.ones((m, m)) - np.eye(m)
        patches = [Patch(i, np.zeros(1), (0.5, 0.5), 0, 0) for i in range(m)]
        S = graph_from_dense(W)
        st = state_with(patches, S, S, [3], n_classes=1)
        # one cluster holding every patch: entropy 0, |A| = 1
        assert sel.term_compact(st, S) == pytest.approx(-1.0)

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
        st = state_with(patches, S, S, [0, 3], n_classes=1)
        assert sel.term_compact(st, S) == pytest.approx(math.log(2.0) - 2.0)


class TestDenseOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_terms_equal_dense_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        patches = make_patches(seed, m=30)
        S, L = make_graphs(patches, k_nn=6)
        n_sel = int(rng.integers(1, 9))
        ids = sorted(int(i) for i in rng.choice(30, size=n_sel, replace=False))
        st = state_with(patches, S, L, ids)
        want = dense_terms(S.to_dense(), L.to_dense(), [p.label for p in patches], ids, 3)
        assert sel.term_representative(st, S) == pytest.approx(want["rep"], abs=1e-12)
        assert sel.term_spatial(st, L) == pytest.approx(want["spa"], abs=1e-12)
        assert sel.term_discriminative(st, S) == pytest.approx(want["dis"], abs=1e-12)
        assert sel.term_balance(st) == pytest.approx(want["bal"], abs=1e-12)
        assert sel.term_compact(st, S) == pytest.approx(want["com"], abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_state_invariants_after_adds(self, seed):
        rng = np.random.default_rng([seed, 77])
        patches = make_patches(seed + 50, m=25)
        S, L = make_graphs(patches, k_nn=6)
        ids = [int(i) for i in rng.choice(25, size=6, replace=False)]
        st = state_with(patches, S, L, ids)
        Sd, Ld = S.to_dense(), L.to_dense()
        sorted_ids = sorted(ids)
        np.testing.assert_allclose(st.best_feature_sim, Sd[sorted_ids].max(axis=0))
        np.testing.assert_allclose(st.best_spatial_sim, Ld[sorted_ids].max(axis=0))
        # every patch is assigned to exactly one cluster
        total = sum(int(st.cluster_counts[e].sum()) for e in ids)
        assert total == len(patches)
        assert int(st.per_class_selected.sum()) == len(ids)


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
        st = sel.SelectionState.for_patches(patches, n_classes=3)
        selected = []
        for e in [int(i) for i in rng.choice(28, size=7, replace=False)]:
            before = sel.evaluate_ids(selected, S, L, labels, w)
            gain = sel.marginal_gain(st, e, S, L, w)
            after = sel.evaluate_ids(selected + [e], S, L, labels, w)
            assert gain == pytest.approx(after - before, abs=1e-9)
            committed = sel.add_exemplar(st, e, S, L, w)
            assert committed == pytest.approx(gain, abs=1e-12)
            selected.append(e)

    def test_rejects_already_selected(self, small_instance):
        patches, S, L = small_instance
        st = state_with(patches, S, L, [4])
        with pytest.raises(InvalidInputError):
            sel.marginal_gain(st, 4, S, L, sel.ObjectiveWeights())

    def test_rejects_out_of_range(self, small_instance):
        patches, S, L = small_instance
        st = sel.SelectionState.for_patches(patches, n_classes=3)
        with pytest.raises(InvalidInputError):
            sel.marginal_gain(st, len(patches), S, L, sel.ObjectiveWeights())

    def test_gain_does_not_mutate_state(self, small_instance):
        patches, S, L = small_instance
        w = sel.ObjectiveWeights()
        st = state_with(patches, S, L, [2, 9])
        before_f = st.best_feature_sim.copy()
        before_cluster = st.cluster_of.copy()
        sel.marginal_gain(st, 15, S, L, w)
        np.testing.assert_array_equal(st.best_feature_sim, before_f)
        np.testing.assert_array_equal(st.cluster_of, before_cluster)


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
        st = state_with(patches, S, L, [1, 7])
        assert sel.evaluate(st, S, L, w) == pytest.approx(sel.term_representative(st, S))
