"""Pooling, the linear classifier, residual classification, and the pipeline."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saco.classify as cl
import saco.coding as cd
from saco.coding import CodingDiagnostics
from saco.config import PipelineConfig
from saco.data import Dictionary, Patch, sample_candidates
from saco.errors import InvalidInputError, PipelineStageError
from saco.synth import make_spatial_texture


def separable_problem(seed=0, n=40):
    rng = np.random.default_rng([seed, 60])
    X0 = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(n, 2))
    X1 = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestSvm:
    def test_separates_clean_clusters(self):
        X, y = separable_problem()
        model = cl.svm_train(X, y, reg=0.1, epochs=200)
        assert [cl.svm_predict(model, x[None])[0][0] for x in X] == list(y)

    def test_deterministic(self):
        X, y = separable_problem(1)
        m1 = cl.svm_train(X, y, reg=0.5, epochs=100)
        m2 = cl.svm_train(X, y, reg=0.5, epochs=100)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.biases, m2.biases)

    def test_invariant_to_duplicating_the_training_set(self):
        X, y = separable_problem(2, n=15)
        m1 = cl.svm_train(X, y, reg=0.5, epochs=80)
        m2 = cl.svm_train(np.vstack([X, X]), np.concatenate([y, y]), reg=0.5, epochs=80)
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-10)
        np.testing.assert_allclose(m1.biases, m2.biases, atol=1e-10)

    def test_objective_history(self):
        X, y = separable_problem(3)

        def objective(model):
            """Mean over classes of 0.5*reg*||w||^2 plus the mean hinge loss."""
            signs = np.where(y[None, :] == np.arange(model.n_classes)[:, None], 1.0, -1.0)
            hinge = np.maximum(0.0, 1.0 - signs * (model.weights @ X.T + model.biases[:, None]))
            w2 = (model.weights ** 2).sum(axis=1)
            return float((0.5 * 0.1 * w2 + hinge.mean(axis=1)).mean())

        # training is deterministic from a zero start, so the model after t
        # epochs is the t-th iterate of any longer run
        zero = cl.LinearSvmModel(np.zeros((2, 2)), np.zeros(2))
        hist = [objective(zero)] + [objective(cl.svm_train(X, y, reg=0.1, epochs=t))
                                    for t in range(1, 151)]
        # zero weights score a flat hinge of one on every sample
        assert hist[0] == pytest.approx(1.0)
        assert hist[-1] < hist[0]
        assert cl.svm_train(X, y, reg=0.1, epochs=150).n_classes == 2

    def test_multiclass_shapes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        model = cl.svm_train(X, y, n_classes=4, epochs=20)
        assert model.weights.shape == (4, 5)
        classes, scores = cl.svm_predict(model, X[:1])
        assert classes.shape == (1,) and scores.shape == (1, 4)

    def test_tie_goes_to_lowest_class(self):
        model = cl.LinearSvmModel(np.zeros((3, 2)), np.zeros(3))
        pred, scores = cl.svm_predict(model, np.array([[0.4, -0.2]]))
        assert pred.tolist() == [0]
        np.testing.assert_array_equal(scores, np.zeros((1, 3)))

    def test_validation(self):
        X, y = separable_problem(5)
        with pytest.raises(InvalidInputError):
            cl.svm_train(X, np.zeros(len(X), dtype=int))  # single class
        with pytest.raises(InvalidInputError):
            cl.svm_train(np.zeros((0, 2)), [])  # no rows: no classes present
        for reg in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                cl.svm_train(X, y, reg=reg)
        with pytest.raises(InvalidInputError):
            cl.svm_train(X, y, epochs=0)
        with pytest.raises(InvalidInputError, match="epochs must be an integer, got 2.5"):
            cl.svm_train(X, y, epochs=2.5)
        with pytest.raises(InvalidInputError):
            cl.svm_train(X, y[:-1])
        model = cl.svm_train(X, y, epochs=5)
        with pytest.raises(InvalidInputError):
            cl.svm_predict(model, np.zeros((1, 3)))

    def test_bad_training_rows_named(self):
        X, y = separable_problem(6)
        X[7, 1] = np.nan
        # a NaN row's margins fail every "< 1" test, so it would drop out of the fit
        with pytest.raises(InvalidInputError, match="features: non-finite value nan at row 7"):
            cl.svm_train(X, y)
        X, y = separable_problem(6)
        y[4] = -1
        with pytest.raises(InvalidInputError, match="row 4: label is not an integer >= 0"):
            cl.svm_train(X, y)
        # np.asarray(labels, dtype=np.int64) once trained the label 0.7 as class 0
        X, y = separable_problem(6)
        y = y.astype(float)
        whole, ints = cl.svm_train(X, y, epochs=5), cl.svm_train(X, y.astype(int), epochs=5)
        np.testing.assert_array_equal(whole.weights, ints.weights)
        np.testing.assert_array_equal(whole.biases, ints.biases)
        y[4] = 0.7
        with pytest.raises(InvalidInputError, match="row 4: label is not an integer"):
            cl.svm_train(X, y)

    def test_label_beyond_n_classes_named(self):
        X, y = separable_problem(6)
        y[50:55] = 2
        # labels 0..2 for 2 classes: rows of class 2 would only ever be negatives
        with pytest.raises(InvalidInputError, match="row 50: label out of range for 2 classes"):
            cl.svm_train(X, y, n_classes=2)

    def test_matches_the_per_class_reference(self):
        """One update per epoch for all classes is the per-class loop, reordered."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(45, 6)) + np.repeat(np.eye(3, 6) * 2.0, 15, axis=0)
        y = np.repeat(np.arange(3), 15)
        reg, epochs = 0.05, 120
        n = len(X)
        W, B = np.zeros((3, 6)), np.zeros(3)
        for t in range(1, epochs + 1):
            step = 1.0 / (reg * t)
            for c in range(3):
                y_c = np.where(y == c, 1.0, -1.0)
                viol = y_c * (X @ W[c] + B[c]) < 1.0
                W[c] -= step * (reg * W[c] - (y_c[viol, None] * X[viol]).sum(axis=0) / n)
                B[c] -= step * (-y_c[viol].sum() / n)
        model = cl.svm_train(X, y, reg=reg, epochs=epochs)
        np.testing.assert_allclose(model.weights, W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.biases, B, rtol=0, atol=1e-12)

    def test_batch_scores_are_the_one_row_scores(self):
        X, y = separable_problem(8)
        model = cl.svm_train(X, y, reg=0.1, epochs=50)
        classes, scores = cl.svm_predict(model, X)
        for f, c, s in zip(X, classes, scores):
            assert (s == model.weights @ f + model.biases).all()
            assert c == s.argmax()

    def test_predict_rejects_bad_rows_naming_them(self):
        X, y = separable_problem(9)
        model = cl.svm_train(X, y, epochs=5)
        X[2, 1] = np.nan
        with pytest.raises(InvalidInputError, match="features: non-finite value nan at row 2"):
            cl.svm_predict(model, X)
        with pytest.raises(InvalidInputError,
                           match=re.escape("features must have shape (*, 2), got (2,)")):
            cl.svm_predict(model, X[0])  # one row, not a 1-row batch

    def test_n_classes_must_be_a_count(self):
        X, y = separable_problem(3)
        for n_classes in (1.5, True, "2"):
            with pytest.raises(InvalidInputError, match="n_classes must be an integer, got "):
                cl.svm_train(X, y, n_classes=n_classes)

    @pytest.mark.parametrize("weights, biases", [
        (np.zeros((3, 2)), np.zeros(1)),              # one bias for three classes
        (np.zeros(3), np.zeros(3)),                   # weights not (classes, dim)
        (np.full((3, 2), np.nan), np.zeros(3)),
        (np.zeros((3, 2)), np.array([0.0, np.inf, 0.0])),
        # no class or no weight column: a (0, 3) model once reached numpy's
        # argmax of an empty sequence
        (np.zeros((0, 3)), np.zeros(0)),
        (np.zeros((3, 0)), np.zeros(3)),
    ])
    def test_model_validated_at_construction(self, weights, biases):
        with pytest.raises(InvalidInputError):
            cl.LinearSvmModel(weights, biases)


def basis_dictionary():
    """Four orthonormal atoms; classes own disjoint coordinate planes."""
    eye = np.eye(4)
    return Dictionary(
        [Patch(i, eye[i], (0.2 * (i + 1), 0.5), int(i // 2), 0) for i in range(4)]
    )


class TestSrcClassify:
    @pytest.mark.parametrize("seed", range(6))
    def test_recovers_subspace_membership(self, seed):
        d = basis_dictionary()
        rng = np.random.default_rng([seed, 61])
        coeff = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        true = seed % 2
        x = np.zeros(4)
        x[2 * true : 2 * true + 2] = coeff
        pred, residuals = cl.src_classify(x, d)
        assert pred == true
        assert residuals[true] < 0.1
        assert residuals[1 - true] == pytest.approx(np.linalg.norm(x), abs=1e-9)

    def test_empty_class_rejected(self):
        eye = np.eye(3)
        d = Dictionary([Patch(i, eye[i], (0.3, 0.3), 2 * (i // 2), 0) for i in range(3)])
        with pytest.raises(InvalidInputError):
            cl.src_classify(np.ones(3), d)
        # the image-level baseline keeps the same rule: class 1 has no atom
        eye = np.eye(8)
        d = Dictionary([Patch(i, eye[i], (0.3, 0.3), 2 * (i // 2), 0) for i in range(3)])
        _, test, _ = tiny_dataset()
        with pytest.raises(InvalidInputError, match=r"classes \[1\] have none"):
            cl.src_image_accuracy(test, d, tiny_config())

    def test_empty_image_list_rejected(self):
        eye = np.eye(8)
        d = Dictionary([Patch(i, eye[i], (0.3, 0.3), i % 2, 0) for i in range(4)])
        with pytest.raises(InvalidInputError, match="non-empty test image list"):
            cl.src_image_accuracy([], d, tiny_config())


def tiny_dataset():
    return make_spatial_texture(
        n_classes=2, train_per_class=4, test_per_class=4,
        pool_size=20, feature_dim=8, noise=0.1, seed=0,
    )


def tiny_config(**overrides):
    base = dict(
        seed=0, candidates_per_image=10, patches_per_image=10, k_nn=6,
        dict_size=6, svm_epochs=50, svm_reg=0.01,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestPipeline:
    def test_runs_and_is_deterministic(self):
        train, test, _ = tiny_dataset()
        cfg = tiny_config()
        r1 = cl.run_pipeline(train, test, cfg)
        r2 = cl.run_pipeline(train, test, cfg)
        assert 0.0 <= r1.accuracy <= 1.0
        assert r1.accuracy == r2.accuracy
        np.testing.assert_array_equal(r1.train_features, r2.train_features)
        assert [p.predicted for p in r1.predictions] == [p.predicted for p in r2.predictions]
        assert r1.confusion.sum() == len(test)
        # the diagonal carries exactly the hits
        assert np.trace(r1.confusion) == round(r1.accuracy * len(test))

    def test_blas_thread_count_keeps_classes_and_scores(self):
        # texture-d300's config at seed 1 (215 atoms): its scores differ in
        # their last bits between one and two OpenBLAS threads
        child = (
            "from saco.classify import run_pipeline\n"
            "from saco.config import PipelineConfig\n"
            "from saco.synth import make_spatial_texture\n"
            "train, test, _ = make_spatial_texture(noise=0.15, seed=1)\n"
            "cfg = PipelineConfig(seed=1, dict_size=300, candidates_per_image=120,\n"
            "                     patches_per_image=120, svm_reg=1e-4, svm_epochs=1000)\n"
            "print('\\n'.join(run_pipeline(train, test, cfg).predictions_csv_lines()))\n"
        )
        src = str(Path(cl.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                                 text=True, check=True).stdout
            rows = [line.split(",") for line in out.splitlines()[1:]]
            runs.append(([r[2] for r in rows], np.array([r[3:] for r in rows], dtype=float)))
        (classes1, scores1), (classes2, scores2) = runs
        assert len(classes1) == 60 and classes1 == classes2
        np.testing.assert_allclose(scores2, scores1, rtol=1e-12, atol=0)

    def test_random_selection_branch(self):
        train, test, _ = tiny_dataset()
        r = cl.run_pipeline(train, test, tiny_config(selection="random"))
        assert r.selection is None
        assert r.dictionary.n_atoms == 6
        r2 = cl.run_pipeline(train, test, tiny_config(selection="random"))
        assert [a.id for a in r.dictionary.atoms] == [a.id for a in r2.dictionary.atoms]

    def test_coder_variants_run(self):
        train, test, _ = tiny_dataset()
        for coder in ("saco1", "iterative"):
            r = cl.run_pipeline(train, test, tiny_config(coder=coder))
            assert 0.0 <= r.accuracy <= 1.0

    def test_coding_diagnostics_cover_both_splits(self):
        train, test, _ = tiny_dataset()
        rows = (len(train) + len(test)) * 10
        r = cl.run_pipeline(train, test, tiny_config(coder="iterative"))
        assert r.coding.rows == rows
        assert 0 <= r.coding.unconverged <= rows
        assert 1 <= r.coding.max_iterations <= 1000
        assert r.coding.worst_kkt >= 0.0
        closed = cl.run_pipeline(train, test, tiny_config())
        assert closed.coding == CodingDiagnostics(rows=rows)

    def test_stage_failures_are_labeled(self):
        train, test, _ = tiny_dataset()
        # more atoms than feature dimensions: the analytic coder cannot build
        cfg = tiny_config(coder="saco1", dict_size=12)
        with pytest.raises(PipelineStageError) as err:
            cl.run_pipeline(train, test, cfg)
        assert err.value.stage == "coder"
        with pytest.raises(InvalidInputError):
            cl.run_pipeline([], test, tiny_config())

    def test_encode_images_shape(self):
        train, _, _ = tiny_dataset()
        cfg = tiny_config()
        r = cl.run_pipeline(train, train, cfg)
        feats = cl.encode_images(train[:3], cl.build_encoder(r.dictionary, cfg), cfg, seed_key=9)
        assert feats.shape == (3, r.dictionary.n_atoms)

    def test_encode_images_row_is_the_mean_of_its_image_codes(self):
        # each image's patches are sampled and coded as one batch, then averaged
        train, _, _ = tiny_dataset()
        cfg = tiny_config()
        r = cl.run_pipeline(train, train, cfg)
        encoder = cl.build_encoder(r.dictionary, cfg)
        diag = CodingDiagnostics()
        feats = cl.encode_images(train[:3], encoder, cfg, 9, diag)
        for row, img in zip(feats, train[:3]):
            patches = sample_candidates([img], cfg.patches_per_image, [cfg.seed, 9])
            codes, _ = encoder.encode(patches.features, patches.coords)
            np.testing.assert_array_equal(row, codes.mean(axis=0))
            np.testing.assert_allclose(row, codes.sum(axis=0) / len(codes), rtol=1e-12)
        assert diag.rows == 3 * cfg.patches_per_image
        assert cl.encode_images([], encoder, cfg, 9).shape == (0, r.dictionary.n_atoms)

    def test_artifact_lines(self):
        train, test, _ = tiny_dataset()
        r = cl.run_pipeline(train, test, tiny_config())
        csv = r.predictions_csv_lines()
        assert csv[0] == "image_id,true_label,pred_label,score_0,score_1"
        assert len(csv) == 1 + len(test)
        first = csv[1].split(",")
        assert int(first[0]) == test[0].image_id
        report = r.report_lines()
        assert report[0] == "# configuration"
        assert any(line.startswith("accuracy = ") for line in report)
        assert any("confusion" in line for line in report)

    def test_src_baseline_bounds(self):
        train, test, _ = tiny_dataset()
        cfg = tiny_config()
        r = cl.run_pipeline(train, test, cfg)
        acc = cl.src_image_accuracy(test, r.dictionary, cfg)
        assert 0.0 <= acc <= 1.0

    def test_src_baseline_adds_its_coder_diagnostics(self):
        train, test, _ = tiny_dataset()
        cfg = tiny_config()
        r = cl.run_pipeline(train, test, cfg)
        diag = CodingDiagnostics(rows=5)
        acc = cl.src_image_accuracy(test, r.dictionary, cfg, diag)
        assert acc == cl.src_image_accuracy(test, r.dictionary, cfg)
        assert diag.rows == 5 + len(test) * cfg.patches_per_image
        assert diag.unconverged == 0
        assert 0 < diag.max_iterations <= cd.FISTA_MAX_ITER
        assert diag.worst_kkt > 0
