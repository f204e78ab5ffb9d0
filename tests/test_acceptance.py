"""Shipped-guarantee verification: one verdict line per numbered check.

Each test prints ``ACCEPTANCE <n>: PASS/FAIL - <measurements>`` before
asserting, so even a red run reports every measured number (visible
with ``pytest -s``, or in the failure output otherwise).

Known red: check 1's diminishing-returns clause for the cluster-entropy
term (and therefore for the weighted sum that includes it) fails by
design of the term itself -- adding an exemplar reassigns patches
between clusters globally, which breaks submodularity.  The
implementation matches its definitional oracle exactly; the property
simply does not hold for this cluster model.  See the repository notes
for the measured violation rates.
"""

import dataclasses
import time

import numpy as np
import pytest

import saco.align as al
import saco.coding as cd
import saco.selection as sel
from saco.classify import run_pipeline, src_classify, src_image_accuracy
from saco.config import PipelineConfig
from saco.data import Dictionary, Patch
from saco.graphs import build_feature_affinity, build_spatial_affinity
from saco.synth import clustered_instance, make_spatial_texture, make_viewpoints

from conftest import make_graphs, make_patches


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1: diminishing returns, term by term ---------------------------------------


def _term_snapshot(state, S, L):
    rep = sel.term_representative(state, S)
    spa = sel.term_spatial(state, L)
    bal = sel.term_balance(state)
    com = sel.term_compact(state, S)
    dis = sel.term_discriminative(state, S)
    return {
        "representative": rep,
        "spatial": spa,
        "balance": bal,
        "compact": com,
        "discriminative": dis,
        "weighted_sum": rep + spa + bal + com,
    }


def test_criterion_1_diminishing_returns_suite():
    t0 = time.perf_counter()
    asserted = ("representative", "spatial", "balance", "compact", "weighted_sum")
    monotone_terms = ("representative", "spatial", "balance")
    violations = {k: 0 for k in asserted}
    monotone_violations = {k: 0 for k in monotone_terms}
    audit_violations = 0  # discriminative term: logged only
    w = sel.ObjectiveWeights()
    n_triples = 0
    for seed in range(50):
        patches = make_patches(seed, m=24, clustered=(seed % 2 == 0))
        S, L = make_graphs(patches, k_nn=7)
        labels = [p.label for p in patches]
        rng = np.random.default_rng([seed, 11])
        for _ in range(20):
            n_triples += 1
            perm = rng.permutation(24)
            b = int(rng.integers(2, 23))
            a = int(rng.integers(1, b))
            x = int(perm[b])
            # one chain pass covers A, B and B+x; a second covers A+x
            state = sel.SelectionState.for_patches(patches)
            at_a = at_b = None
            for t in range(b):
                sel.add_exemplar(state, int(perm[t]), S, L, w)
                if t + 1 == a:
                    at_a = _term_snapshot(state, S, L)
            at_b = _term_snapshot(state, S, L)
            sel.add_exemplar(state, x, S, L, w)
            at_bx = _term_snapshot(state, S, L)
            state = sel.SelectionState.for_patches(patches)
            for t in range(a):
                sel.add_exemplar(state, int(perm[t]), S, L, w)
            sel.add_exemplar(state, x, S, L, w)
            at_ax = _term_snapshot(state, S, L)

            for key in asserted:
                gain_a = at_ax[key] - at_a[key]
                gain_b = at_bx[key] - at_b[key]
                if gain_a < gain_b - 1e-9:
                    violations[key] += 1
            for key in monotone_terms:
                if at_ax[key] - at_a[key] < -1e-9 or at_bx[key] - at_b[key] < -1e-9:
                    monotone_violations[key] += 1
            if at_ax["discriminative"] - at_a["discriminative"] < (
                at_bx["discriminative"] - at_b["discriminative"]
            ) - 1e-9:
                audit_violations += 1

    elapsed = time.perf_counter() - t0
    counts = ", ".join(f"{k}={violations[k]}" for k in asserted)
    ok = (
        all(v == 0 for v in violations.values())
        and all(v == 0 for v in monotone_violations.values())
        and elapsed < 60.0
    )
    verdict(
        1,
        ok,
        f"diminishing-returns violations over {n_triples} triples: {counts}; "
        f"monotone violations: {sum(monotone_violations.values())}; "
        f"audited cluster-purity term: {audit_violations} (logged only); "
        f"runtime {elapsed:.1f}s < 60s",
    )
    assert all(v == 0 for v in monotone_violations.values())
    assert elapsed < 60.0
    assert all(v == 0 for v in violations.values()), (
        "the cluster-entropy term (and any sum including it) is not "
        f"submodular under argmax cluster reassignment: {counts}"
    )


# -- 2: greedy approximation bound ----------------------------------------------


def test_criterion_2_approximation_bound():
    worst = 1.0
    bound = 1.0 - 1.0 / np.e
    ok = True
    for seed in range(25):
        rng = np.random.default_rng([seed, 202])
        feats = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, size=12)
        coords = rng.uniform(size=(12, 2))
        patches = [
            Patch(i, feats[i], (float(coords[i, 0]), float(coords[i, 1])),
                  int(labels[i]), 0)
            for i in range(12)
        ]
        S = build_feature_affinity(patches, k_nn=6)
        L = build_spatial_affinity(patches, k_nn=6)
        w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
        greedy = sel.naive_greedy(patches, S, L, w, 4)
        _, opt = sel.brute_force_opt(patches, S, L, w, 4)
        ok &= greedy.objective() >= bound * opt - 1e-9
        worst = min(worst, greedy.objective() / opt)
    verdict(2, ok, f"25 instances |V|=12 K=4: worst greedy/optimal ratio "
                   f"{worst:.4f} >= 1-1/e = {bound:.4f}")
    assert ok


# -- 3: lazy/naive equivalence and evaluation savings -----------------------------


def test_criterion_3_lazy_equivalence_and_speedup():
    mismatches = 0
    worst_ratio = 0.0
    w = sel.ObjectiveWeights()
    for seed in range(50):
        patches = clustered_instance(seed, 300)
        S = build_feature_affinity(patches, k_nn=16)
        L = build_spatial_affinity(patches, k_nn=16)
        lazy = sel.lazy_greedy(patches, S, L, w, 20)
        naive = sel.naive_greedy(patches, S, L, w, 20)
        mismatches += int(lazy.ids != naive.ids)
        worst_ratio = max(worst_ratio, lazy.n_evaluations / naive.n_evaluations)
    ok = mismatches == 0 and worst_ratio <= 0.20
    verdict(3, ok, f"50 instances M=300 K=20: {50 - mismatches}/50 identical "
                   f"selections, worst lazy/naive evaluation ratio {worst_ratio:.4f} <= 0.20")
    assert ok


# -- 4: large-scale selection runtime ---------------------------------------------


def test_criterion_4_large_scale_runtime():
    t0 = time.perf_counter()
    patches = clustered_instance(7, 10000)
    S = build_feature_affinity(patches, k_nn=50)
    L = build_spatial_affinity(patches, k_nn=50)
    w = sel.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)
    res = sel.lazy_greedy(patches, S, L, w, 600)
    elapsed = time.perf_counter() - t0
    ok = len(res.ids) == 600 and elapsed < 600.0
    verdict(4, ok, f"selected {len(res.ids)}/600 from M=10000 in {elapsed:.1f}s "
                   f"(< 600s) with {res.n_evaluations} gain evaluations")
    assert ok


# -- 5: coding solver correctness --------------------------------------------------


def test_criterion_5_coding_correctness(monkeypatch):
    # the iterative solver runs to a tight stop, well inside the 1e-8 bound
    monkeypatch.setattr(cd, "ISTA_TOL", 1e-12)
    monkeypatch.setattr(cd, "ISTA_MAX_ITER", 5000)
    worst_kkt = 0.0
    worst_vs_iterative = 0.0
    worst_vs_closed_form = 0.0
    worst_bound_margin = np.inf
    for seed in range(1000):
        rng = np.random.default_rng([seed, 505])
        q, _ = np.linalg.qr(rng.normal(size=(12, 6)))
        atoms = [Patch(i, q[:, i], (float(rng.uniform()), float(rng.uniform())), i % 3, 0)
                 for i in range(6)]
        ortho = Dictionary(atoms)
        x = rng.normal(size=12)
        w = rng.uniform(0.1, 2.0, size=6)
        coder = cd.Encoder(ortho, "saco1", 0.15)

        a_direct = coder.code([x], [w])[0][0]
        grad = ortho.matrix.T @ (ortho.matrix @ a_direct - x)
        on = a_direct != 0
        kkt = max(
            float(np.abs(grad[on] + 0.15 * w[on] * np.sign(a_direct[on])).max(initial=0.0)),
            float(np.maximum(0.0, np.abs(grad[~on]) - 0.15 * w[~on]).max(initial=0.0)),
        )
        worst_kkt = max(worst_kkt, kkt)

        it, _ = cd.Encoder(ortho, "iterative", 0.15, 0.0).code([x], [w])
        worst_vs_iterative = max(worst_vs_iterative,
                                 float(np.abs(a_direct - it[0]).max()))

        # general (non-orthonormal) dictionary: ridge pre-solve with no ridge
        # must agree with the analytic path at uniform weights
        g = rng.normal(size=(12, 6))
        general = Dictionary(
            [Patch(i, g[:, i], (0.5, 0.5), i % 3, 0) for i in range(6)]
        )
        gcoder = cd.Encoder(general, "saco1", 0.15)
        ones = np.ones((1, 6))
        worst_vs_closed_form = max(
            worst_vs_closed_form,
            float(np.abs(
                cd.Encoder(general, "saco2", 0.15, 0.0).code([x], ones)[0]
                - gcoder.code([x], ones)[0]
            ).max()),
        )

        a_rand = rng.normal(size=6)
        lhs, rhs = cd.bound_check(x, a_rand, gcoder)
        worst_bound_margin = min(worst_bound_margin,
                                 (lhs - rhs) / max(1.0, abs(lhs)))

    ok = (
        worst_kkt <= 1e-10
        and worst_vs_iterative <= 1e-8
        and worst_vs_closed_form <= 1e-12
        and worst_bound_margin >= -1e-9
    )
    verdict(5, ok, f"1000 instances: worst analytic-coder optimality residual "
                   f"{worst_kkt:.2e} <= 1e-10, max |analytic - iterative| "
                   f"{worst_vs_iterative:.2e} <= 1e-8, max |ridge-presolve - analytic| "
                   f"{worst_vs_closed_form:.2e} <= 1e-12, worst residual-bound margin "
                   f"{worst_bound_margin:.2e} >= -1e-9")
    assert ok


# -- 6: dense coding equals per-patch coding ----------------------------------------


def test_criterion_6_dense_equals_per_patch():
    rng = np.random.default_rng(606)
    q, _ = np.linalg.qr(rng.normal(size=(10, 6)))
    d = Dictionary([Patch(i, q[:, i], (float(rng.uniform()), float(rng.uniform())),
                          i % 3, 0) for i in range(6)])
    coder = cd.Encoder(d, "saco1", 0.2)
    cfg = cd.SpatialWeightConfig(kernel="linear", epsilon=0.1, scale=0.5)
    fmap = rng.normal(size=(16, 16, 10))
    # weights at the 16 x 16 cell centers ((c + 0.5)/16, (r + 0.5)/16), in C order
    xs, ys = np.meshgrid((np.arange(16) + 0.5) / 16, (np.arange(16) + 0.5) / 16)
    wf = cd.spatial_weights(np.column_stack([xs.ravel(), ys.ravel()]), d, cfg).reshape(16, 16, 6)
    dense = coder.code(fmap.reshape(-1, 10), wf.reshape(-1, 6))[0].reshape(16, 16, 6)
    exact = all(
        np.array_equal(dense[r, c], coder.code([fmap[r, c]], [wf[r, c]])[0][0])
        for r in range(16)
        for c in range(16)
    )
    verdict(6, exact, "dense coding of a 16x16 feature map is bit-identical to "
                      "per-patch coding at all 256 cells")
    assert exact


# -- 7: viewpoint clustering and rotation recovery -----------------------------------


def test_criterion_7_alignment():
    images, views, rotations = make_viewpoints(per_view=30, size=64, seed=0)
    grid = al.default_theta_grid(10.0)
    model, assign, _ = al.k_medoids(images, 2, grid, seed=0)

    purity_hits = 0
    for ci in range(2):
        members = np.flatnonzero(assign == ci)
        counts = np.bincount(views[members], minlength=2)
        purity_hits += int(counts.max())
    purity = purity_hits / len(images)

    recovered = 0
    errors = []
    for i, img in enumerate(images):
        _, cluster, theta = al.align_to_medoid(img, model)
        medoid = model.medoid_ids[cluster]
        want = (rotations[medoid] - rotations[i]) % 360.0
        err = abs((theta - want + 180.0) % 360.0 - 180.0)
        errors.append(err)
        recovered += int(err <= 10.0 + 1e-9)
    frac = recovered / len(images)

    ok = purity >= 0.95 and frac >= 0.90
    verdict(7, ok, f"2x30 planted views: cluster purity {purity:.3f} >= 0.95, "
                   f"rotation recovered within one 10-degree grid step on "
                   f"{recovered}/60 images ({frac:.3f} >= 0.90), median error "
                   f"{np.median(errors):.1f} degrees")
    assert ok


# -- 8 & 9: end-to-end benchmark -------------------------------------------------------


@pytest.fixture(scope="module")
def spatial_benchmark():
    train, test, _ = make_spatial_texture(
        n_classes=3, train_per_class=20, test_per_class=20,
        pool_size=120, feature_dim=64, noise=0.15, seed=0,
    )
    cfg = PipelineConfig(
        seed=0, dict_size=24, candidates_per_image=120, patches_per_image=120,
        svm_reg=1e-4, svm_epochs=1000,
    )
    t0 = time.perf_counter()
    aware = run_pipeline(train, test, cfg)
    blind = run_pipeline(
        train, test, dataclasses.replace(cfg, spatial_weighting=False)
    )
    random_accs = [
        run_pipeline(train, test, dataclasses.replace(cfg, selection="random", seed=s)).accuracy
        for s in range(5)
    ]
    elapsed = time.perf_counter() - t0
    return train, test, cfg, aware, blind, random_accs, elapsed


def test_criterion_8_spatial_awareness_benefit(spatial_benchmark):
    _, _, _, aware, blind, random_accs, elapsed = spatial_benchmark
    random_mean = float(np.mean(random_accs))
    ok = (
        aware.accuracy >= 0.90
        and aware.accuracy - blind.accuracy >= 0.05
        and aware.accuracy > random_mean
        and elapsed < 300.0
    )
    verdict(8, ok, f"3 classes, 60 train / 60 test: spatially-weighted accuracy "
                   f"{aware.accuracy:.3f} >= 0.90; uniform-weight ablation "
                   f"{blind.accuracy:.3f} (gap {aware.accuracy - blind.accuracy:+.3f} >= 0.05); "
                   f"greedy dictionary beats random baseline mean {random_mean:.3f} "
                   f"over 5 draws; runtime {elapsed:.0f}s < 300s")
    assert ok


def test_criterion_9_residual_baseline(spatial_benchmark):
    _, test, cfg, aware, _, _, _ = spatial_benchmark

    # exact recovery when classes own orthogonal coordinate subspaces
    eye = np.eye(8)
    d = Dictionary([Patch(i, eye[i], (0.1 * i + 0.1, 0.5), i // 4, 0) for i in range(8)])
    rng = np.random.default_rng(909)
    recovery_ok = True
    for trial in range(50):
        label = trial % 2
        x = np.zeros(8)
        x[4 * label: 4 * label + 4] = rng.uniform(0.5, 1.5, size=4) * rng.choice(
            [-1.0, 1.0], size=4
        )
        pred, _ = src_classify(x, d)
        recovery_ok &= pred == label

    src_acc = src_image_accuracy(test, aware.dictionary, cfg)
    ok = recovery_ok and src_acc < aware.accuracy
    verdict(9, ok, f"orthogonal-subspace recovery 50/50 exact: {recovery_ok}; "
                   f"residual-rule accuracy {src_acc:.3f} < full pipeline "
                   f"{aware.accuracy:.3f} on the benchmark")
    assert ok
