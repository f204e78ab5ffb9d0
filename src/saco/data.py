"""Core data records: patches, per-image feature pools, dictionaries.

A patch is a feature vector tied to a normalized spatial location inside
its source image, plus a class label.  Patch metadata travels in CSV
files with the fixed header ``id,image_id,label,x,y``; the feature
vectors travel separately in a tensor file whose row order matches the
CSV row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .tensorio import read_tensor, write_tensor

PATCH_CSV_HEADER = "id,image_id,label,x,y"


@dataclass(frozen=True)
class Patch:
    """One candidate: features, normalized location, label, provenance."""

    id: int
    features: np.ndarray
    coord: tuple[float, float]
    label: int
    image_id: int

    def validate(self) -> None:
        if self.id < 0 or self.label < 0:
            raise InvalidInputError(f"patch {self.id}: negative id or label")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError(f"patch {self.id}: non-finite features")
        x, y = self.coord
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise InvalidInputError(f"patch {self.id}: coord {self.coord} outside [0,1]^2")


@dataclass
class ImageFeatures:
    """A pool of located feature vectors belonging to one labeled image."""

    image_id: int
    label: int
    features: np.ndarray  # (n, p)
    coords: np.ndarray    # (n, 2), arbitrary units

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.features.ndim != 2 or self.coords.shape != (len(self.features), 2):
            raise InvalidInputError(
                f"image {self.image_id}: features {self.features.shape} / coords "
                f"{self.coords.shape} mismatch"
            )


@dataclass
class LabeledImage:
    """A grayscale raster with a class label (pixel values in [0, 1])."""

    image_id: int
    pixels: np.ndarray
    label: int

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or min(self.pixels.shape) < 1:
            raise InvalidInputError(f"image {self.image_id}: pixels must be a non-empty 2-D array")


@dataclass
class Dictionary:
    """An ordered set of exemplar patches used as coding atoms.

    ``matrix`` is p x m with one column per atom, in selection order.
    """

    atoms: list[Patch]
    matrix: np.ndarray = field(init=False)
    atom_coords: np.ndarray = field(init=False)
    atom_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.atoms:
            raise InvalidInputError("dictionary needs at least one atom")
        dims = {len(a.features) for a in self.atoms}
        if len(dims) != 1:
            raise InvalidInputError(f"mixed atom feature dimensions: {sorted(dims)}")
        self.matrix = np.column_stack([np.asarray(a.features, dtype=np.float64) for a in self.atoms])
        self.atom_coords = np.array([a.coord for a in self.atoms], dtype=np.float64)
        self.atom_labels = np.array([a.label for a in self.atoms], dtype=np.int64)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def feature_dim(self) -> int:
        return self.matrix.shape[0]

    def gram(self) -> np.ndarray:
        """D^T D, cached after the first call."""
        if not hasattr(self, "_gram"):
            self._gram = self.matrix.T @ self.matrix
        return self._gram


def write_patch_csv(path, patches, header_comments=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(PATCH_CSV_HEADER + "\n")
        for p in patches:
            fh.write(f"{p.id},{p.image_id},{p.label},{p.coord[0]!r},{p.coord[1]!r}\n")


def read_csv_rows(path, header: str):
    """Yield (line number, fields) for each data row of a CSV file.

    Blank and ``#`` comment lines are skipped; the first other line must
    be exactly ``header``.
    """
    found = False
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if found:
                yield ln, line.split(",")
            elif line == header:
                found = True
            else:
                raise InvalidInputError(f"{path}:{ln}: expected header '{header}', got '{line}'")
    if not found:
        raise InvalidInputError(f"{path}: empty file, header required")


def read_patch_rows(path) -> list[dict]:
    """Read patch metadata rows; the exact header is required."""
    rows = []
    for ln, parts in read_csv_rows(path, PATCH_CSV_HEADER):
        if len(parts) != 5:
            raise InvalidInputError(f"{path}:{ln}: malformed row '{','.join(parts)}'")
        rows.append(
            {
                "id": int(parts[0]),
                "image_id": int(parts[1]),
                "label": int(parts[2]),
                "x": float(parts[3]),
                "y": float(parts[4]),
            }
        )
    return rows


def _read_patch_files(csv_path, tensor_path):
    """Metadata rows and their feature tensor, one feature row per CSV row."""
    rows = read_patch_rows(csv_path)
    feats = read_tensor(tensor_path).astype(np.float64)
    if feats.ndim != 2 or len(feats) != len(rows):
        raise InvalidInputError(
            f"feature tensor {feats.shape} does not match {len(rows)} metadata rows"
        )
    return rows, feats


def load_patches(csv_path, tensor_path) -> list[Patch]:
    """Assemble patches from a metadata CSV and its aligned feature tensor."""
    rows, feats = _read_patch_files(csv_path, tensor_path)
    return [
        Patch(r["id"], feats[i], (r["x"], r["y"]), r["label"], r["image_id"])
        for i, r in enumerate(rows)
    ]


def save_patches(csv_path, tensor_path, patches, header_comments=()) -> None:
    write_patch_csv(csv_path, patches, header_comments)
    write_tensor(tensor_path, np.stack([p.features for p in patches]))


def group_rows_by_image(rows, feats) -> list[ImageFeatures]:
    """Group aligned metadata rows + features into per-image pools."""
    order: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        order.setdefault(r["image_id"], []).append(i)
    pools = []
    for image_id, idx in order.items():
        labels = {rows[i]["label"] for i in idx}
        if len(labels) != 1:
            raise InvalidInputError(f"image {image_id} has conflicting labels {sorted(labels)}")
        pools.append(
            ImageFeatures(
                image_id=image_id,
                label=labels.pop(),
                features=feats[idx],
                coords=np.array([[rows[i]["x"], rows[i]["y"]] for i in idx]),
            )
        )
    return pools


def load_image_pools(csv_path, tensor_path) -> list[ImageFeatures]:
    return group_rows_by_image(*_read_patch_files(csv_path, tensor_path))


def sample_candidates(images, per_image, seed) -> list[Patch]:
    """Sample ``per_image`` located patches from every image pool.

    Locations are drawn uniformly from each pool (without replacement
    when the pool is large enough) and coordinates are normalized to
    [0,1]^2 by the pool's bounding box.  Sampling is deterministic given
    ``seed`` and is independent of image order: each image uses a
    child generator keyed by (seed, image_id).
    """
    if not images:
        raise InvalidInputError("no images to sample from")
    if per_image < 1:
        raise InvalidInputError(f"per_image must be >= 1, got {per_image}")

    seed_parts = [int(s) for s in np.atleast_1d(seed)]
    patches = []
    next_id = 0
    for img in images:
        n = len(img.features)
        if n == 0:
            raise InvalidInputError(f"image {img.image_id} has an empty pool")
        rng = np.random.default_rng(seed_parts + [img.image_id])
        chosen = rng.choice(n, size=per_image, replace=n < per_image)
        lo = img.coords.min(axis=0)
        span = img.coords.max(axis=0) - lo
        for i in chosen:
            with np.errstate(invalid="ignore"):
                norm = np.where(span > 0, (img.coords[i] - lo) / np.where(span > 0, span, 1.0), 0.5)
            patches.append(
                Patch(
                    id=next_id,
                    features=img.features[int(i)].copy(),
                    coord=(float(norm[0]), float(norm[1])),
                    label=img.label,
                    image_id=img.image_id,
                )
            )
            next_id += 1
    return patches
