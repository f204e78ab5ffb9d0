"""The four benchmark workloads: set-up, the timed job, and output checks.

Jobs call the program through module attributes (``classify.run_pipeline``,
``graphs.build_feature_affinity``), so wrappers installed by a traced run
are seen and the untraced run calls the program's own functions.  Checks
run outside the timed region and use only guarantees the repository
states: the numbered acceptance criteria, and seeded determinism (every
job of a run repeats the first job's digest).  A failed check fails the
job it ran on.
"""

from __future__ import annotations

import numpy as np

import saco.align as align
import saco.classify as classify
import saco.graphs as graphs
import saco.selection as selection
from saco.config import PipelineConfig
from saco.data import Dictionary, ImageFeatures, LabeledImage, Patch, sample_candidates

import inputs


def texture_images(seed):
    """Train and test ``ImageFeatures`` of the location-coded texture set."""
    images = [ImageFeatures(i, label, f, c) for i, label, f, c in inputs.spatial_texture(seed)]
    half = len(images) // 2
    return images[:half], images[half:]


def texture_config(seed) -> PipelineConfig:
    """Dictionary of 300 requested atoms (the config default), saco2 coder."""
    return PipelineConfig(seed=seed, dict_size=300, candidates_per_image=120,
                          patches_per_image=120, svm_reg=1e-4, svm_epochs=1000)


class Workload:
    """One named workload; ``state`` is whatever ``setup`` returns."""

    name = ""

    def setup(self, seed):
        """Build the job's inputs (and any fixture) from ``seed``."""
        raise NotImplementedError

    def job(self, state):
        """The timed unit of work; returns its output."""
        raise NotImplementedError

    def check(self, state, out) -> list[str]:
        """Guarantees ``out`` fails."""
        raise NotImplementedError

    def digest(self, out):
        """A small comparable summary: seeded jobs must repeat it exactly."""
        raise NotImplementedError

    def quality(self, state, out) -> dict[str, float]:
        """Result metrics reported with the per-layer numbers."""
        return {}


class TexturePipeline(Workload):
    """``run_pipeline`` on the texture set: the user's main path."""

    name = "texture-d300"

    def setup(self, seed):
        train, test = texture_images(seed)
        return {"train": train, "test": test, "cfg": texture_config(seed)}

    def job(self, state):
        return classify.run_pipeline(state["train"], state["test"], state["cfg"])

    def check(self, state, out):
        if out.accuracy < 0.90:
            return [f"accuracy {out.accuracy:.3f} < 0.90 (criterion 8)"]
        return []

    def digest(self, out):
        return out.predictions_csv_lines()

    def quality(self, state, out):
        return {"classify.accuracy": out.accuracy,
                "selection.objective": out.selection.objective()}


class SelectLarge(Workload):
    """Both graphs and lazy greedy on criterion 4's instance (M=10000, K=600)."""

    name = "select-m10k"
    m = 10000
    k = 600
    k_nn = 50

    def setup(self, seed):
        feats, coords, labels = inputs.clustered_instance(seed, self.m)
        patches = [Patch(i, feats[i], (float(coords[i, 0]), float(coords[i, 1])),
                         int(labels[i]), 0) for i in range(self.m)]
        return {"patches": patches, "labels": labels,
                "weights": selection.ObjectiveWeights(lambda_d=0.0, lambda_c=0.0)}

    def job(self, state):
        patches = state["patches"]
        S = graphs.build_feature_affinity(patches, k_nn=self.k_nn)
        L = graphs.build_spatial_affinity(patches, k_nn=self.k_nn)
        return S, L, selection.lazy_greedy(patches, S, L, state["weights"], self.k)

    def check(self, state, out):
        S, L, res = out
        bad = []
        if len(res.ids) != self.k:
            bad.append(f"selected {len(res.ids)}/{self.k} atoms (criterion 4)")
        gains = np.asarray(res.gains)
        if gains.size > 1 and np.max(np.diff(gains)) > 1e-9:
            bad.append(f"gains increase by up to {np.max(np.diff(gains)):.3e}")
        recomputed = selection.evaluate_ids(res.ids, S, L, state["labels"], state["weights"])
        if abs(res.objective() - recomputed) > 1e-9:
            bad.append(f"objective {res.objective()!r} != evaluate_ids {recomputed!r}")
        return bad

    def digest(self, out):
        return out[2].ids, out[2].gains

    def quality(self, state, out):
        return {"selection.objective": out[2].objective()}


class ResidualBaseline(Workload):
    """Residual-baseline accuracy on four test images per class (1440 patches).

    Four rather than two images make one job ~30 s, long enough to average
    over the CPU-speed swings of a shared host.
    """

    name = "residual-d300"
    images_per_class = 4

    def setup(self, seed):
        # the dictionary run_pipeline would select, built here so the job
        # times the residual baseline alone
        train, test = texture_images(seed)
        cfg = texture_config(seed)
        cands = sample_candidates(train, cfg.candidates_per_image, [cfg.seed, 0])
        S = graphs.build_feature_affinity(cands, k_nn=cfg.k_nn)
        L = graphs.build_spatial_affinity(cands, k_nn=cfg.k_nn, sigma=cfg.spatial_sigma)
        weights = selection.ObjectiveWeights(cfg.lambda_s, cfg.lambda_d, cfg.lambda_b,
                                             cfg.lambda_c)
        chosen = selection.lazy_greedy(cands, S, L, weights, cfg.dict_size).ids
        n_classes = 1 + max(img.label for img in test)
        subset = [img for c in range(n_classes)
                  for img in [t for t in test if t.label == c][: self.images_per_class]]
        return {"test": subset, "cfg": cfg,
                "dictionary": Dictionary([cands[i] for i in chosen])}

    def job(self, state):
        return classify.src_image_accuracy(state["test"], state["dictionary"], state["cfg"])

    def check(self, state, out):
        # texture-d300 checks that the pipeline scores >= 0.90 on the same
        # seed's data, so staying below 0.90 keeps criterion 9's ordering
        if out >= 0.90:
            return [f"residual accuracy {out:.3f} >= 0.90, the pipeline floor (criterion 9)"]
        return []

    def digest(self, out):
        return out

    def quality(self, state, out):
        return {"classify.accuracy": out}


class AlignViews(Workload):
    """k-medoids (k=2) and alignment of 240 viewpoint images (120 per view).

    Twice the acceptance check's 60 per view make one job ~12-19 s, long
    enough to average over the CPU-speed swings of a shared host.
    """

    name = "align-views"
    per_view = 120

    def setup(self, seed):
        pixels, views, rotations = inputs.viewpoints(seed, self.per_view)
        images = [LabeledImage(i, px, int(v)) for i, (px, v) in enumerate(zip(pixels, views))]
        return {"images": images, "views": views, "rotations": rotations, "seed": seed,
                "grid": np.arange(0.0, 360.0, 10.0)}

    def job(self, state):
        model, assign, _ = align.k_medoids(state["images"], 2, state["grid"], seed=state["seed"])
        aligned = [align.align_to_medoid(img, model)[1:] for img in state["images"]]
        return model, assign, aligned

    def _scores(self, state, out):
        model, assign, aligned = out
        views, rotations = state["views"], state["rotations"]
        purity = sum(int(np.bincount(views[assign == c], minlength=2).max())
                     for c in range(2)) / len(views)
        recovered = 0
        for i, (cluster, theta) in enumerate(aligned):
            want = (rotations[model.medoid_ids[cluster]] - rotations[i]) % 360.0
            recovered += abs((theta - want + 180.0) % 360.0 - 180.0) <= 10.0 + 1e-9
        return purity, recovered / len(views)

    def check(self, state, out):
        purity, recovery = self._scores(state, out)
        bad = []
        if purity < 0.95:
            bad.append(f"cluster purity {purity:.3f} < 0.95 (criterion 7)")
        if recovery < 0.90:
            bad.append(f"rotation recovery {recovery:.3f} < 0.90 (criterion 7)")
        return bad

    def digest(self, out):
        model, assign, aligned = out
        return model.medoid_ids, assign.tolist(), aligned

    def quality(self, state, out):
        purity, recovery = self._scores(state, out)
        return {"align.purity": purity, "align.recovery_frac": recovery}


WORKLOADS = {w.name: w for w in (TexturePipeline(), SelectLarge(), ResidualBaseline(),
                                 AlignViews())}
