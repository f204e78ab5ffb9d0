#!/usr/bin/env python3
"""Spatial-texture benchmark: spatially-weighted coding vs ablations.

Generates the synthetic spatial-texture dataset, runs the full pipeline
with spatial weighting on and off, a random-selection baseline, and the
reconstruction-residual classifier on the same dictionary, then prints a
small comparison table.  With --out, also drops the per-image prediction
CSVs and the report files in that directory.
"""

import argparse
import dataclasses
import pathlib
import sys
import time

import numpy as np

from saco.classify import run_pipeline, src_image_accuracy
from saco.config import PipelineConfig
from saco.data import write_lines
from saco.synth import make_spatial_texture


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise", type=float, default=0.15)
    ap.add_argument("--classes", type=int, default=3)
    ap.add_argument("--train-per-class", type=int, default=20)
    ap.add_argument("--test-per-class", type=int, default=20)
    ap.add_argument("--pool-size", type=int, default=120)
    ap.add_argument("--dict-size", type=int, default=24)
    ap.add_argument("--random-draws", type=int, default=5,
                    help="number of random-selection baselines to average")
    ap.add_argument("--skip-src", action="store_true",
                    help="skip the (slow) residual-rule baseline")
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)

    train, test, _ = make_spatial_texture(
        n_classes=args.classes,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        pool_size=args.pool_size,
        feature_dim=64,
        noise=args.noise,
        seed=args.seed,
    )
    cfg = PipelineConfig(
        seed=args.seed,
        dict_size=args.dict_size,
        candidates_per_image=args.pool_size,
        patches_per_image=args.pool_size,
        svm_reg=1e-4,
        svm_epochs=1000,
    )

    t0 = time.perf_counter()
    aware = run_pipeline(train, test, cfg)
    blind = run_pipeline(train, test,
                         dataclasses.replace(cfg, spatial_weighting=False))
    random_accs = []
    for s in range(args.random_draws):
        rcfg = dataclasses.replace(cfg, selection="random", seed=s)
        random_accs.append(run_pipeline(train, test, rcfg).accuracy)
    elapsed = time.perf_counter() - t0

    rows = [
        ("spatially-weighted pipeline", aware.accuracy),
        ("uniform-weight ablation", blind.accuracy),
        ("random selection (mean of %d)" % args.random_draws,
         float(np.mean(random_accs))),
    ]
    if not args.skip_src:
        rows.append(("residual-rule classifier",
                     src_image_accuracy(test, aware.dictionary, cfg)))

    width = max(len(name) for name, _ in rows)
    print(f"spatial-texture benchmark: {args.classes} classes, "
          f"{len(train)} train / {len(test)} test images, seed {args.seed}")
    for name, acc in rows:
        print(f"  {name:<{width}}  {acc:.3f}")
    print(f"pipeline runs took {elapsed:.1f}s")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for tag, result in (("aware", aware), ("blind", blind)):
            write_lines(args.out / f"predictions_{tag}.csv", result.predictions_csv_lines())
            write_lines(args.out / f"report_{tag}.txt", result.report_lines())
        print(f"wrote artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
