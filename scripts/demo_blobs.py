#!/usr/bin/env python3
"""Quick visual demo: pick exemplars from 2-d blobs and plot the layout.

Writes layout.svg (all candidates, selected ones ringed) plus the
selection CSV into --out.  Open the SVG in a browser.
"""

import argparse
import pathlib
import sys

import numpy as np

import saco.selection as sel
from saco.data import pool_patches
from saco.graphs import build_feature_affinity, build_spatial_affinity
from saco.plotting import write_svg_scatter
from saco.synth import make_blobs2d


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-class", type=int, default=100)
    ap.add_argument("--k", type=int, default=12)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("blobs_demo"))
    args = ap.parse_args(argv)

    pools = make_blobs2d(points_per_class=args.per_class, seed=args.seed)
    patches = pool_patches(pools)
    # interleave the classes: point i of every pool, then point i + 1
    patches = patches[np.arange(len(patches)).reshape(len(pools), -1).T.ravel()]
    S = build_feature_affinity(patches, k_nn=12)
    L = build_spatial_affinity(patches, k_nn=12)
    res = sel.lazy_greedy(patches, S, L, sel.ObjectiveWeights(), args.k)

    args.out.mkdir(parents=True, exist_ok=True)
    write_svg_scatter(args.out / "layout.svg", patches, res.ids,
                      title=f"{args.k} exemplars from {len(patches)} candidates")
    res.write_csv(args.out / "selection.csv")
    per_class = {}
    for pid in res.ids:
        per_class[patches[pid].label] = per_class.get(patches[pid].label, 0) + 1
    print(f"selected {len(res.ids)} exemplars "
          f"({res.n_evaluations} gain evaluations)")
    print("per-class counts:", dict(sorted(per_class.items())))
    print(f"wrote {args.out / 'layout.svg'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
