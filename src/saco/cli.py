"""Command-line interface.

Subcommands: gen, select, code, train, predict, pipeline, bench-greedy,
plot-layout.  Each setting has one way in.  select, code, train and
pipeline take every setting, the seed and select's K (``dict_size``)
included, from an optional flat key-value file (``--config``) plus
repeated ``--set key=value`` overrides, and echo the keys that produced
an artifact into its header: code the coder's, train the SVM's, select
and pipeline all (select rejects a non-greedy ``selection``).  gen and
bench-greedy read no configuration and take ``--seed`` (default 0);
predict and plot-layout take none of the three.  Identical settings
produce byte-identical artifacts for a fixed numpy/BLAS build and BLAS
thread count.  Every text artifact is written by ``data.write_lines``.

select and pipeline pick exemplars by ``selection.lazy_greedy``, which
returns naive greedy's selection at any weights: a stale entry's key, its
submodular gains as last scored plus lambda_d (max_c |moved ∩ c|/M - 1)
+ lambda_c (H_b(min(q, 1/2)) - 1) over the patches it would move, bounds
its later gains.  bench-greedy exits 1 if ``naive_greedy`` differs: a bug.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import align as al
from . import synth
from .classify import (LinearSvmModel, PredictionRow, build_encoder, predictions_csv_lines,
                       run_pipeline, svm_predict, svm_train)
from .config import PipelineConfig, apply_overrides, read_config_file
from .data import (Dictionary, check_count, finite_array, load_image_pools, load_patches,
                   pool_patches, read_csv_rows, save_patches, whole_numbers, write_lines)
from .errors import InvalidConfigError, InvalidInputError
from .graphs import build_feature_affinity, build_spatial_affinity
from .plotting import write_svg_scatter
from .selection import ObjectiveWeights, lazy_greedy, naive_greedy, read_selection_ids
from .tensorio import read_tensor, write_tensor


def _resolve_config(args) -> PipelineConfig:
    mapping = read_config_file(args.config) if args.config else {}
    return PipelineConfig.from_mapping(apply_overrides(mapping, args.set))


def _require_files(*paths):
    for p in paths:
        if p is not None and not Path(p).exists():
            raise InvalidInputError(f"missing input file: {p}")


# -- gen -----------------------------------------------------------------------


def _write_pool_files(out: Path, prefix: str, pools, comments):
    save_patches(out / f"{prefix}_patches.csv", out / f"{prefix}_features.skt",
                 pool_patches(pools), comments)


def cmd_gen(args) -> int:
    seed = check_count("--seed", args.seed, low=0, error=InvalidConfigError)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    comments = [f"generator = {args.kind}", f"seed = {seed}"]
    if args.kind == "blobs2d":
        pools = synth.make_blobs2d(args.classes, args.points_per_class, seed=seed)
        _write_pool_files(out, "candidates", pools, comments)
    elif args.kind == "spatial-texture":
        train, test, _ = synth.make_spatial_texture(
            n_classes=args.classes,
            train_per_class=args.train_per_class,
            test_per_class=args.test_per_class,
            pool_size=args.pool_size,
            feature_dim=args.feature_dim,
            seed=seed,
        )
        _write_pool_files(out, "train", train, comments)
        _write_pool_files(out, "test", test, comments)
    elif args.kind == "viewpoints":
        images, labels, rotations = synth.make_viewpoints(args.per_view, seed=seed)
        rows = ["image_id,view,rotation_deg,file"]
        for img, lab, rot in zip(images, labels, rotations):
            name = f"img_{img.image_id:03d}.pgm"
            al.write_pgm(out / name, img.pixels)
            rows.append(f"{img.image_id},{lab},{rot!r},{name}")
        write_lines(out / "images.csv", rows, comments)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidConfigError(f"unknown generator '{args.kind}'")
    write_lines(out / "manifest.txt", comments)
    print(f"wrote {args.kind} dataset to {out}")
    return 0


# -- select ----------------------------------------------------------------------


def cmd_select(args) -> int:
    cfg = _resolve_config(args)
    if cfg.selection != "greedy":
        raise InvalidConfigError(f"config key 'selection = {cfg.selection}': select always runs "
                                 "greedy selection; the key applies to 'saco pipeline'")
    _require_files(args.features, args.patches)
    patches = load_patches(args.patches, args.features)
    S = build_feature_affinity(patches, k_nn=cfg.k_nn)
    L = build_spatial_affinity(patches, k_nn=cfg.k_nn, sigma=cfg.spatial_sigma)
    weights = ObjectiveWeights(cfg.lambda_s, cfg.lambda_d, cfg.lambda_b, cfg.lambda_c)
    result = lazy_greedy(patches, S, L, weights, cfg.dict_size)
    result.write_csv(args.out, header_comments=cfg.echo_lines())
    print(f"selected {len(result.ids)} exemplars -> {args.out}")
    return 0


# -- code ------------------------------------------------------------------------


def cmd_code(args) -> int:
    cfg = _resolve_config(args)
    _require_files(args.dict_features, args.dict_patches, args.query_features, args.query_patches)
    atoms = load_patches(args.dict_patches, args.dict_features)
    if args.selection:
        _require_files(args.selection)
        atoms = atoms[read_selection_ids(args.selection, len(atoms))]
    dictionary = Dictionary(atoms)
    queries = load_patches(args.query_patches, args.query_features)
    codes, diag = build_encoder(dictionary, cfg).encode(queries.features, queries.coords)
    if diag.unconverged:
        print(f"warning: {diag.unconverged} of {diag.rows} patches stopped unconverged after "
              f"{diag.max_iterations} iterations (worst KKT residual {diag.worst_kkt:.3e})",
              file=sys.stderr)
    write_tensor(args.out, codes)
    keys = ("coder", "lambda1", "lambda2", "spatial_weighting", "weight_kernel",
            "weight_epsilon", "weight_scale")  # the keys that produce a code
    write_lines(str(args.out) + ".config.txt", cfg.echo_lines(keys))
    print(f"coded {len(queries)} patches over {dictionary.n_atoms} atoms -> {args.out}")
    return 0


# -- train / predict ---------------------------------------------------------------


def _read_image_labels(path) -> list[list[int]]:
    # np.int64 makes a value past its range a malformed row, so only negatives are left
    rows = list(read_csv_rows(path, "image_id,label", (np.int64, np.int64)))
    if not rows:
        raise InvalidInputError(f"{path}: no labeled images")
    pairs, bad = whole_numbers([values for _, values in rows])
    if bad.any():
        row, column = np.argwhere(bad)[0]
        raise InvalidInputError(f"{path}:{rows[row][0]}: negative {('image id', 'label')[column]} "
                                f"{rows[row][1][column]}")
    return pairs.tolist()


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _require_files(args.features, args.images)
    feats = finite_array(f"{args.features}: features", read_tensor(args.features), (None, None))
    labels = [lab for _, lab in _read_image_labels(args.images)]
    if len(feats) != len(labels):
        raise InvalidInputError(f"{len(feats)} feature rows vs {len(labels)} labels")
    model = svm_train(feats, labels, reg=cfg.svm_reg, epochs=cfg.svm_epochs)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_tensor(str(prefix) + ".w.skt", model.weights)
    write_tensor(str(prefix) + ".b.skt", model.biases)
    meta = [f"n_classes = {model.n_classes}", f"dim = {model.weights.shape[1]}"]
    write_lines(str(prefix) + ".meta.txt", meta + cfg.echo_lines(("svm_reg", "svm_epochs")))
    print(f"trained {model.n_classes}-class model -> {prefix}.*")
    return 0


def _load_model(prefix) -> LinearSvmModel:
    paths = str(prefix) + ".w.skt", str(prefix) + ".b.skt"
    _require_files(*paths)
    try:
        return LinearSvmModel(*map(read_tensor, paths))
    except InvalidInputError as exc:
        raise InvalidInputError(f"model {prefix}: {exc}") from None


def cmd_predict(args) -> int:
    _require_files(args.features, args.images)
    model = _load_model(args.model)
    pairs = _read_image_labels(args.images)
    try:
        classes, scores = svm_predict(model, read_tensor(args.features))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{args.features}, model {args.model}: {exc}") from None
    if len(classes) != len(pairs):
        raise InvalidInputError(f"{len(classes)} feature rows vs {len(pairs)} labeled images")
    predictions = [PredictionRow(image_id, true_label, int(c), s)
                   for (image_id, true_label), c, s in zip(pairs, classes, scores)]
    write_lines(args.out, predictions_csv_lines(predictions))
    accuracy = np.mean(classes == [true_label for _, true_label in pairs])
    print(f"accuracy {accuracy:.4f} on {len(pairs)} images -> {args.out}")
    return 0


# -- pipeline ------------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    cfg = _resolve_config(args)
    train_dir, test_dir = Path(args.train_dir), Path(args.test_dir)
    _require_files(
        train_dir / "train_patches.csv",
        train_dir / "train_features.skt",
        test_dir / "test_patches.csv",
        test_dir / "test_features.skt",
    )
    train = load_image_pools(train_dir / "train_patches.csv", train_dir / "train_features.skt")
    test = load_image_pools(test_dir / "test_patches.csv", test_dir / "test_features.skt")
    result = run_pipeline(train, test, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if result.selection is not None:
        result.selection.write_csv(out / "selection.csv", header_comments=cfg.echo_lines())
    save_patches(out / "dictionary_patches.csv", out / "dictionary_features.skt",
                 result.dictionary.atoms, cfg.echo_lines())
    write_lines(out / "predictions.csv", result.predictions_csv_lines(), cfg.echo_lines())
    write_lines(out / "report.txt", result.report_lines())
    print(f"pipeline accuracy {result.accuracy:.4f} -> {out}")
    return 0


# -- bench-greedy ----------------------------------------------------------------------


def cmd_bench_greedy(args) -> int:
    seed = check_count("--seed", args.seed, low=0, error=InvalidConfigError)
    patches = synth.clustered_instance(seed, args.m)
    S = build_feature_affinity(patches, k_nn=args.k_nn)
    L = build_spatial_affinity(patches, k_nn=args.k_nn)
    weights = ObjectiveWeights()
    t0 = time.perf_counter()
    lazy = lazy_greedy(patches, S, L, weights, args.k)
    lazy_s = time.perf_counter() - t0
    print(f"instance: M={args.m} K={args.k} seed={seed} k_nn={args.k_nn}")
    print("algorithm  selected  gain_evals   wall_s")
    print(f"lazy       {len(lazy.ids):8d}  {lazy.n_evaluations:10d}  {lazy_s:8.2f}")
    if not args.lazy_only:
        t0 = time.perf_counter()
        naive = naive_greedy(patches, S, L, weights, args.k)
        naive_s = time.perf_counter() - t0
        print(f"naive      {len(naive.ids):8d}  {naive.n_evaluations:10d}  {naive_s:8.2f}")
        if naive.ids != lazy.ids:
            lazy_ids, naive_ids = lazy.ids + ["none"], naive.ids + ["none"]
            step = next(s for s, (a, b) in enumerate(zip(lazy_ids, naive_ids)) if a != b)
            print(f"error: lazy and naive selections diverge at step {step}: "
                  f"lazy chose {lazy_ids[step]}, naive chose {naive_ids[step]}", file=sys.stderr)
            return 1
        print(f"identical selections; lazy evals are "
              f"{100.0 * lazy.n_evaluations / naive.n_evaluations:.1f}% of naive")
    return 0


# -- plot-layout -------------------------------------------------------------------------


def cmd_plot_layout(args) -> int:
    _require_files(args.features, args.patches)
    patches = load_patches(args.patches, args.features)
    selected = []
    if args.selection:
        _require_files(args.selection)
        selected = read_selection_ids(args.selection, len(patches))
    write_svg_scatter(args.out, patches, selected, title=args.title)
    print(f"wrote {args.out}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saco",
        description="Exemplar selection, spatially aware sparse coding, and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed")

    def config(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--kind", required=True, choices=["blobs2d", "spatial-texture", "viewpoints"])
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--points-per-class", type=int, default=100)
    p.add_argument("--train-per-class", type=int, default=20)
    p.add_argument("--test-per-class", type=int, default=20)
    p.add_argument("--pool-size", type=int, default=120)
    p.add_argument("--feature-dim", type=int, default=64)
    p.add_argument("--per-view", type=int, default=30)
    seed(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("select", help="greedy selection of dict_size exemplars")
    p.add_argument("--features", required=True)
    p.add_argument("--patches", required=True)
    p.add_argument("--out", required=True)
    config(p)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("code", help="code query patches over a dictionary")
    p.add_argument("--dict-features", required=True)
    p.add_argument("--dict-patches", required=True)
    p.add_argument("--selection", default=None,
                   help="selection CSV restricting the dictionary to chosen ids")
    p.add_argument("--query-features", required=True)
    p.add_argument("--query-patches", required=True)
    p.add_argument("--out", required=True)
    config(p)
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("train", help="train the linear classifier on pooled features")
    p.add_argument("--features", required=True, help="pooled feature tensor, one row per image")
    p.add_argument("--images", required=True, help="CSV with header image_id,label")
    p.add_argument("--out", required=True, help="model file prefix")
    config(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="score pooled features with a trained model")
    p.add_argument("--model", required=True, help="model file prefix from train")
    p.add_argument("--features", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("pipeline", help="full select/code/train/predict run")
    p.add_argument("--train-dir", required=True)
    p.add_argument("--test-dir", required=True)
    p.add_argument("--out", required=True)
    config(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("bench-greedy", help="time greedy selection on a synthetic instance")
    p.add_argument("--m", type=int, default=10000)
    p.add_argument("--k", type=int, default=600)
    p.add_argument("--k-nn", type=int, default=50)
    p.add_argument("--lazy-only", action="store_true")
    seed(p)
    p.set_defaults(fn=cmd_bench_greedy)

    p = sub.add_parser("plot-layout", help="SVG scatter of patches and selected exemplars")
    p.add_argument("--features", required=True)
    p.add_argument("--patches", required=True)
    p.add_argument("--selection", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="patch layout")
    p.set_defaults(fn=cmd_plot_layout)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
