"""Which program functions each layer's spans wrap, and the per-layer metrics.

Every target is the name a caller looks up at call time: ``run_pipeline``
finds ``saco2`` as ``saco.classify.saco2``, so that is where the wrapper
goes.  Where a workload calls a function directly through its own module
(``saco.graphs.build_feature_affinity`` in ``select-m10k``), that name is
wrapped too; both names share one span name, so a call is counted once.

Layer -> metric -> end-to-end metric it should move, on which workload:

=========  ==========================================  ====================================
layer      metrics                                      moves (workload)
=========  ==========================================  ====================================
data       data.sample_s, data.patches_sampled          job_s (texture-d300, ~2%)
graphs     graphs.feature_s, graphs.spatial_s,          job_s (select-m10k ~25%,
           graphs.nnz                                   texture-d300 ~8%)
selection  selection.select_s, .gain_evals,             job_s with selection.objective held
           .us_per_eval, .evals_per_atom,               (select-m10k ~70%; texture-d300
           .atoms_selected, .atoms_requested,           ~21%, other lambda regime)
           .objective
coding     coding.solve_s, .weights_s, .build_s,        job_s, peak_rss_mb with accuracy held
           .solves, .us_per_solve                       (texture-d300 saco2, residual-d300
                                                        ISTA; zero on the others)
classify   classify.encode_s, .encode_self_s, .svm_s,   job_s: the per-patch loop overhead
           .residual_s, .residual_self_s, .accuracy     (texture-d300, residual-d300)
align      align.dissim_s, .kmedoids_s,                 job_s (align-views only)
           .kmedoids_iters, .align_s, .rotations,
           .us_per_rotation, .recovery_frac, .purity
trace      trace.overhead_frac, trace.coverage_frac     (all)
=========  ==========================================  ====================================

``config``, ``tensorio``, ``cli`` and ``plotting`` run inside no job and
are not measured.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from tracer import Span, Tracer, bound_argument, inclusive_time, self_time, self_times

# result values a workload reports beside the layer timings (0 where undefined)
QUALITY = ("selection.objective", "classify.accuracy", "align.purity", "align.recovery_frac")


def _count_patches(fn, args, kwargs, result):
    return {"data.patches_sampled": len(result)}


def _count_nnz(fn, args, kwargs, result):
    return {"graphs.nnz": int(result.csr.nnz)}


def _count_selection(fn, args, kwargs, result):
    return {
        "selection.gain_evals": int(result.n_evaluations),
        "selection.atoms_selected": len(result.ids),
        "selection.atoms_requested": int(bound_argument(fn, args, kwargs, "k")),
    }


def _count_kmedoids(fn, args, kwargs, result):
    return {"align.kmedoids_iters": len(result[2])}


@dataclass(frozen=True)
class Target:
    owner: str            # "module" or "module:Class"
    attr: str
    span: str
    count: object = None  # callable(fn, args, kwargs, result) -> {counter: increment}


LAYERS: dict[str, list[Target]] = {
    "data": [
        Target("saco.classify", "sample_candidates", "data.sample", _count_patches),
    ],
    "graphs": [
        Target("saco.classify", "build_feature_affinity", "graphs.feature", _count_nnz),
        Target("saco.classify", "build_spatial_affinity", "graphs.spatial", _count_nnz),
        Target("saco.graphs", "build_feature_affinity", "graphs.feature", _count_nnz),
        Target("saco.graphs", "build_spatial_affinity", "graphs.spatial", _count_nnz),
    ],
    "selection": [
        Target("saco.classify", "lazy_greedy", "selection.lazy_greedy", _count_selection),
        Target("saco.selection", "lazy_greedy", "selection.lazy_greedy", _count_selection),
    ],
    "coding": [
        Target("saco.classify", "saco1", "coding.solve"),
        Target("saco.classify", "saco2", "coding.solve"),
        Target("saco.classify", "solve_weighted_l2_l1", "coding.solve"),
        Target("saco.classify", "spatial_weights", "coding.weights"),
        Target("saco.coding:Coder", "build", "coding.build"),
    ],
    "classify": [
        Target("saco.classify", "encode_images", "classify.encode"),
        Target("saco.classify", "svm_train", "classify.svm"),
        Target("saco.classify", "src_image_accuracy", "classify.residual"),
        Target("saco.classify", "src_classify", "classify.residual"),
    ],
    "align": [
        Target("saco.align", "dissimilarity_matrix", "align.dissim"),
        Target("saco.align", "k_medoids", "align.kmedoids", _count_kmedoids),
        Target("saco.align", "align_to_medoid", "align.align"),
        Target("saco.align", "rotate_resize", "align.rotate"),
    ],
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def install(tracer: Tracer, layers=LAYERS) -> list[str]:
    """Wrap every target; return the layers with a missing target.

    A layer with any missing target is reported absent and left wholly
    unwrapped, so its numbers are never a silent partial count.
    """
    absent = []
    for layer, targets in layers.items():
        owners = [_resolve(t.owner) for t in targets]
        if any(o is None or not hasattr(o, t.attr) for o, t in zip(owners, targets)):
            absent.append(layer)
            continue
        for owner, t in zip(owners, targets):
            tracer.wrap(owner, t.attr, t.span, t.count)
    return absent


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics for one traced job.

    ``spans`` holds exactly one root span named ``job``; times are
    seconds, ``*_self_s`` exclude the time of wrapped callees.
    """
    selfs = self_times(spans)

    def incl(*names):
        return inclusive_time(spans, names)

    def n_spans(name):
        return sum(1 for s in spans if s.name == name)

    out = {
        "data.sample_s": incl("data.sample"),
        "data.patches_sampled": counts.get("data.patches_sampled", 0),
        "graphs.feature_s": incl("graphs.feature"),
        "graphs.spatial_s": incl("graphs.spatial"),
        "graphs.nnz": counts.get("graphs.nnz", 0),
        "selection.select_s": incl("selection.lazy_greedy"),
        "selection.gain_evals": counts.get("selection.gain_evals", 0),
        "selection.atoms_selected": counts.get("selection.atoms_selected", 0),
        "selection.atoms_requested": counts.get("selection.atoms_requested", 0),
        "coding.solve_s": incl("coding.solve"),
        "coding.weights_s": incl("coding.weights"),
        "coding.build_s": incl("coding.build"),
        "coding.solves": n_spans("coding.solve"),
        "classify.encode_s": incl("classify.encode"),
        "classify.encode_self_s": self_time(spans, ["classify.encode"], selfs),
        "classify.svm_s": incl("classify.svm"),
        "classify.residual_s": incl("classify.residual"),
        "classify.residual_self_s": self_time(spans, ["classify.residual"], selfs),
        "align.dissim_s": incl("align.dissim"),
        "align.kmedoids_s": incl("align.kmedoids"),
        "align.kmedoids_iters": counts.get("align.kmedoids_iters", 0),
        "align.align_s": incl("align.align"),
        "align.rotations": n_spans("align.rotate"),
    }
    out["selection.us_per_eval"] = _ratio(
        out["selection.select_s"], out["selection.gain_evals"], 1e6)
    out["selection.evals_per_atom"] = _ratio(
        out["selection.gain_evals"], out["selection.atoms_selected"])
    out["coding.us_per_solve"] = _ratio(out["coding.solve_s"], out["coding.solves"], 1e6)
    out["align.us_per_rotation"] = _ratio(incl("align.rotate"), out["align.rotations"], 1e6)
    roots = [i for i, s in enumerate(spans) if s.name == "job" and s.parent < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span 'job', found {len(roots)}")
    job = spans[roots[0]]
    out["trace.coverage_frac"] = _ratio(job.duration - selfs[roots[0]], job.duration)
    return out


def zero_metrics() -> dict[str, float]:
    """Every per-layer metric name, valued 0."""
    names = [*layer_metrics([Span("job", 0.0, 1.0, -1)], {}), *QUALITY, "trace.overhead_frac"]
    return dict.fromkeys(sorted(names), 0.0)
