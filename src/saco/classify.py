"""Image-level classification on pooled sparse codes.

Per image, patch codes are average-pooled to one fixed-length feature,
classified by a one-vs-rest linear SVM trained with deterministic
full-batch subgradient descent.  The SVM works on whole batches:
``svm_train`` steps every class at once, and ``svm_predict`` scores an
(N, dim) feature matrix into (N,) classes and (N, C) scores.  A
reconstruction-residual baseline classifies single patches from
per-class partial reconstructions.
``run_pipeline`` chains candidate sampling, affinity graphs, greedy
exemplar selection, spatially weighted coding, pooling, and the SVM.
``_image_codes`` samples and codes images for pooling and the residual
baseline; ``svm_train`` checks labels and epochs by ``saco.data``'s rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coding import CodingDiagnostics, Encoder, SpatialWeightConfig
from .config import PipelineConfig
from .data import (Dictionary, check_count, check_scalar, finite_array, reject_rows,
                   sample_candidates, whole_numbers)
from .errors import InvalidInputError, PipelineStageError
from .graphs import build_feature_affinity, build_spatial_affinity
from .selection import ObjectiveWeights, SelectionResult, lazy_greedy

# the residual baseline's l1 penalty, at uniform atom weights
RESIDUAL_LAMBDA1 = 0.01


@dataclass(frozen=True)
class LinearSvmModel:
    """One-vs-rest linear classifier: scores = W f + b."""

    weights: np.ndarray  # (C, dim)
    biases: np.ndarray   # (C,)

    def __post_init__(self):
        W = finite_array("weights", self.weights, (None, None))
        if not W.size:
            raise InvalidInputError(f"model needs at least one class and one weight column, "
                                    f"got weights {W.shape}")
        vars(self).update(weights=W, biases=finite_array("biases", self.biases, (len(W),)))

    @property
    def n_classes(self) -> int:
        return len(self.weights)


def svm_train(features, labels, n_classes=None, reg=1.0, epochs=300):
    """Train one-vs-rest hinge classifiers by full-batch subgradient descent.

    The per-class objective is 0.5*reg*||w||^2 plus the mean hinge loss;
    epoch t takes one subgradient step of size 1/(reg*t) from a zero
    start, for every class at once.  Training draws nothing at random:
    full-batch steps make it deterministic for a fixed numpy/BLAS build
    and BLAS thread count, and invariant to duplicating the training set.
    """
    X = finite_array("features", features, (None, None))
    y, bad = whole_numbers(labels)
    if y.shape != (len(X),):
        raise InvalidInputError(f"labels {y.shape} must be one per row of features {X.shape}")
    reject_rows(bad, "label is not an integer >= 0")
    check_count("epochs", epochs)
    check_scalar("SVM reg", reg, positive=True)
    if np.unique(y).size < 2:
        raise InvalidInputError("SVM training needs at least two classes present")
    n_classes = int(y.max()) + 1 if n_classes is None else check_count("n_classes", n_classes)
    reject_rows(y >= n_classes, f"label out of range for {n_classes} classes")
    n, dim = X.shape
    Y = np.where(y[:, None] == np.arange(n_classes), 1.0, -1.0)
    W = np.zeros((n_classes, dim))
    B = np.zeros(n_classes)
    for t in range(1, epochs + 1):
        step = 1.0 / (reg * t)
        # each margin violator contributes its target sign, the rest 0
        V = np.where(Y * (X @ W.T + B) < 1.0, Y, 0.0)
        W -= step * (reg * W - V.T @ X / n)
        B -= step * (-V.sum(axis=0) / n)
    return LinearSvmModel(W, B)


def svm_predict(model: LinearSvmModel, features):
    """Score an (N, dim) batch: (classes (N,), scores (N, C)), ties to the lowest class.

    Rejects a batch of the wrong width, or a non-finite row by naming it.
    """
    F = finite_array("features", features, (None, model.weights.shape[1]))
    # one matrix-vector product per row, as scoring a single row computes it
    scores = np.matmul(model.weights, F[:, :, None])[:, :, 0] + model.biases
    return scores.argmax(axis=1), scores


def _residual_coder(dictionary: Dictionary):
    """The residual rule's uniform-weight coder, and the atoms of each class 0..max label."""
    labels = dictionary.atom_labels
    groups = [np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1)]
    empty = [c for c, g in enumerate(groups) if not g.size]
    if empty:
        raise InvalidInputError(f"every class needs at least one atom; classes {empty} have none")
    return Encoder(dictionary, "iterative", RESIDUAL_LAMBDA1, 0.0), groups


def _class_residuals(X, codes, D, class_groups):
    """(N, C) norms ||x - D_c a_c|| of the rows of ``X`` and their ``codes``
    over the atoms ``D``, keeping only class c's coefficients."""
    residuals = np.empty((len(X), len(class_groups)))
    for c, idx in enumerate(class_groups):
        residuals[:, c] = np.linalg.norm(X - codes[:, idx] @ D[:, idx].T, axis=1)
    return residuals


def src_classify(x, dictionary: Dictionary):
    """Classify one patch by smallest per-class reconstruction residual.

    Codes ``x`` over the whole dictionary with uniform weights at
    ``RESIDUAL_LAMBDA1``, then for each class (the atoms' labels) keeps
    only that class's coefficients and measures ||x - D_c a_c||.
    Returns (class, residuals); ties go to the lowest class index.
    """
    X = finite_array("patch", [x], (1, dictionary.feature_dim))
    encoder, groups = _residual_coder(dictionary)
    residuals = _class_residuals(X, encoder.code(X)[0], dictionary.matrix, groups)[0]
    return int(residuals.argmin()), residuals


# -- end-to-end pipeline ------------------------------------------------------


@dataclass
class PredictionRow:
    image_id: int
    true_label: int
    predicted: int
    scores: np.ndarray


def predictions_csv_lines(predictions: list[PredictionRow]) -> list[str]:
    """Header and one line per prediction: ids, labels, then every score by ``repr``."""
    n_scores = len(predictions[0].scores) if predictions else 0
    header = "image_id,true_label,pred_label," + ",".join(f"score_{c}" for c in range(n_scores))
    lines = [header]
    for row in predictions:
        scores = ",".join(repr(float(s)) for s in row.scores)
        lines.append(f"{row.image_id},{row.true_label},{row.predicted},{scores}")
    return lines


@dataclass
class PipelineResult:
    config: PipelineConfig
    selection: SelectionResult | None
    dictionary: Dictionary
    predictions: list[PredictionRow]
    accuracy: float
    confusion: np.ndarray
    train_features: np.ndarray = field(repr=False, default=None)
    model: LinearSvmModel = field(repr=False, default=None)
    # both splits' coder convergence; kept out of the report and predictions
    coding: CodingDiagnostics = field(repr=False, default=None)

    def predictions_csv_lines(self) -> list[str]:
        return predictions_csv_lines(self.predictions)

    def report_lines(self) -> list[str]:
        lines = ["# configuration"]
        lines += self.config.echo_lines()
        lines.append("")
        lines.append(f"accuracy = {self.accuracy:.6f}")
        lines.append("confusion_rows_true_cols_pred =")
        for row in self.confusion:
            lines.append("  " + " ".join(str(int(v)) for v in row))
        return lines


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def build_encoder(dictionary: Dictionary, cfg: PipelineConfig) -> Encoder:
    """The configured coder over ``dictionary``, spatially weighted if enabled."""
    weights = (SpatialWeightConfig(cfg.weight_kernel, cfg.weight_epsilon, cfg.weight_scale)
               if cfg.spatial_weighting else None)
    return Encoder(dictionary, cfg.coder, cfg.lambda1, cfg.lambda2, weights)


def _image_codes(images, encoder: Encoder, cfg: PipelineConfig, seed_key: int,
                 diagnostics: CodingDiagnostics | None):
    """Yield each image's sampled patch features and their codes, coded as one
    batch whose diagnostics are added to ``diagnostics`` when given."""
    for img in images:
        patches = sample_candidates([img], cfg.patches_per_image, [cfg.seed, seed_key])
        codes, diag = encoder.encode(patches.features, patches.coords)
        if diagnostics is not None:
            diagnostics.add(diag)
        yield patches.features, codes


def encode_images(images, encoder: Encoder, cfg: PipelineConfig, seed_key: int,
                  diagnostics: CodingDiagnostics | None = None) -> np.ndarray:
    """Each image's mean patch code, one pooled feature row per image."""
    pooled = np.empty((len(images), encoder.dictionary.n_atoms))
    for i, (_, codes) in enumerate(_image_codes(images, encoder, cfg, seed_key, diagnostics)):
        pooled[i] = codes.mean(axis=0)
    return pooled


def run_pipeline(train_images, test_images, cfg: PipelineConfig) -> PipelineResult:
    """Select a dictionary on train data, code both splits, train, predict.

    Deterministic given ``cfg.seed`` for a fixed numpy/BLAS build and
    BLAS thread count: sampling, selection and training derive every
    random draw from it, and another thread count can change scores in
    their last bits.  Stage failures re-raise as
    ``PipelineStageError`` naming the stage.
    """
    if not train_images or not test_images:
        raise InvalidInputError("need non-empty train and test image lists")

    candidates = _stage(
        "candidates", sample_candidates, train_images, cfg.candidates_per_image, [cfg.seed, 0]
    )

    def _graphs():
        S = build_feature_affinity(candidates, k_nn=cfg.k_nn)
        L = build_spatial_affinity(candidates, k_nn=cfg.k_nn, sigma=cfg.spatial_sigma)
        return S, L

    selection = None
    if cfg.selection == "greedy":
        S, L = _stage("graphs", _graphs)
        weights = ObjectiveWeights(cfg.lambda_s, cfg.lambda_d, cfg.lambda_b, cfg.lambda_c)
        selection = _stage("select", lazy_greedy, candidates, S, L, weights, cfg.dict_size)
        del S, L  # coding needs only the chosen ids
        chosen = selection.ids
    else:
        rng = np.random.default_rng([cfg.seed, 1])
        chosen = np.sort(rng.choice(len(candidates), size=min(cfg.dict_size, len(candidates)),
                                    replace=False))
    dictionary = _stage("dictionary", Dictionary, candidates[chosen])

    encoder = _stage("coder", build_encoder, dictionary, cfg)
    coding = CodingDiagnostics()
    train_feats = _stage("encode-train", encode_images, train_images, encoder, cfg, 2, coding)
    test_feats = _stage("encode-test", encode_images, test_images, encoder, cfg, 3, coding)

    train_labels = np.array([img.label for img in train_images], dtype=np.int64)
    test_labels = np.array([img.label for img in test_images], dtype=np.int64)
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    model = _stage("svm", svm_train, train_feats, train_labels, n_classes, cfg.svm_reg,
                   cfg.svm_epochs)

    classes, scores = svm_predict(model, test_feats)
    predictions = [PredictionRow(img.image_id, img.label, int(c), s)
                   for img, c, s in zip(test_images, classes, scores)]
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (test_labels, classes), 1)
    accuracy = float(np.mean(classes == test_labels))
    return PipelineResult(config=cfg, selection=selection, dictionary=dictionary,
                          predictions=predictions, accuracy=accuracy, confusion=confusion,
                          train_features=train_feats, model=model, coding=coding)


def src_image_accuracy(test_images, dictionary: Dictionary, cfg: PipelineConfig,
                       diagnostics: CodingDiagnostics | None = None) -> float:
    """Residual-baseline accuracy: per image, sum per-class residuals over
    its sampled patches and pick the smallest.

    Images are sampled and coded as by ``encode_images``, at seed key 3.
    """
    if not test_images:
        raise InvalidInputError("need a non-empty test image list")
    encoder, groups = _residual_coder(dictionary)
    hits = 0
    for img, (X, codes) in zip(test_images,
                               _image_codes(test_images, encoder, cfg, 3, diagnostics)):
        totals = _class_residuals(X, codes, dictionary.matrix, groups).sum(axis=0)
        hits += int(int(totals.argmin()) == img.label)
    return hits / len(test_images)
