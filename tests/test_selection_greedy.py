import numpy as np
import pytest

import saco.selection as sel
from saco.data import Patch, PatchSet
from saco.errors import InvalidInputError

from conftest import make_graphs, make_patches


@pytest.mark.parametrize("seed", range(15))
def test_lazy_equals_naive(seed):
    # the heap shortcut is only guaranteed when every term has diminishing
    # returns, so the cardinality-penalty terms stay off here; agreement with
    # them on is exercised separately on a calibrated family
    patches = make_patches(seed, m=40, clustered=True)
    S, L = make_graphs(patches, k_nn=8)
    w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
    a = sel.naive_greedy(patches, S, L, w, 8)
    b = sel.lazy_greedy(patches, S, L, w, 8)
    assert a.ids == b.ids
    np.testing.assert_allclose(a.gains, b.gains, atol=1e-12)
    # every committed gain is the step's difference of from-scratch values
    labels = PatchSet.of(patches).labels
    values = [sel.evaluate_ids(a.ids[:s], S, L, labels, w) for s in range(len(a.ids) + 1)]
    np.testing.assert_allclose(a.gains, np.diff(values), rtol=0, atol=1e-9)


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
    w = sel.ObjectiveWeights()
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
    import scipy.sparse as sp

    from saco.graphs import AffinityGraph

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
        ids, val = sel.brute_force_opt(patches, S, L, w, 3)
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
            _, opt = sel.brute_force_opt(patches, S, L, w, 4)
            assert g.objective() >= (1 - 1 / np.e) * opt - 1e-9

    def test_refuses_huge_search(self):
        patches = make_patches(10, m=60)
        S, L = make_graphs(patches, k_nn=6)
        with pytest.raises(InvalidInputError):
            sel.brute_force_opt(patches, S, L, sel.ObjectiveWeights(), 20)
