"""Core data records: patch sets, per-image feature pools, dictionaries.

A ``PatchSet`` holds M patches as aligned arrays: features (M, p),
locations (M, 2) in [0,1]^2, labels, image ids, and ``ids`` (the CSV
``id`` column, provenance only).  Graphs, selection, dictionaries and
selection CSVs name a patch by its row position 0..M-1.  ``ps[i]`` is a
``Patch`` row view; ``PatchSet.of`` stacks a ``Patch`` sequence once.
Patch CSVs have the header ``id,image_id,label,x,y``; the features
travel in a tensor file in the same row order.

Files cross the boundary in two pairs and one writer: CSVs and other text
artifacts through ``read_csv_rows`` and ``write_lines`` (here), feature
tensors through ``tensorio.read_tensor`` and ``write_tensor``, and images,
out only, through ``align.write_pgm``.  Config files are read by
``config.read_config_file``.

Input is validated once, where it enters, and stays valid: the value types
(``PatchSet``, ``Dictionary``, ``ImageFeatures``, ``LabeledImage``,
``align.ViewpointModel``, ``classify.LinearSvmModel``) own read-only arrays,
checked once, that later code takes as they are.  ``finite_array`` is the
one check of a float array's shape and finiteness in every module; its
result is read-only, and the caller's array itself only if that is
read-only and owns its data (another value's array, or rows just gathered
and marked by ``read_only``, the one place that marks one).  Callers add
their own rules: coordinates in [0,1]^2, ids, image ids and labels whole
numbers >= 0, rows of at least one feature, ``raster``'s non-empty images.
The CSV reader checks header, field count and numbers.  Other modules take
nine rules from here: ``finite_array``, ``raster``, ``read_only``,
``check_count`` (counts, seeds), ``check_scalar`` (finite scalars >= 0 or
> 0), ``whole_numbers`` (ids and labels), ``positions`` (a list of them),
``reject_rows`` (the first bad row) and ``blocks``, the one block walk of
graph building, greedy scoring, saco2 solves and the rotation search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .tensorio import read_tensor, write_tensor

PATCH_CSV_HEADER = "id,image_id,label,x,y"
# doubles (2 MiB) in the largest temporary of one block of rows
BLOCK_DOUBLES = 1 << 18


def blocks(n: int, doubles_per_row: int) -> list[slice]:
    """``range(n)`` as slices, in order: the fewest blocks whose largest temporary,
    ``doubles_per_row`` doubles a row, fits in ``BLOCK_DOUBLES``, sized as
    ``np.array_split`` sizes them (larger first, each of at least one row), so no
    narrow last block goes to another BLAS kernel and rounds differently."""
    count = -(-n // max(1, BLOCK_DOUBLES // doubles_per_row))
    size, extra = divmod(n, max(count, 1))
    bounds = [b * size + min(b, extra) for b in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def check_count(name, value, low=1, error=InvalidInputError, *, part_of=None):
    """``value`` if it is an integer (a bool is not) >= ``low``, which is 0 for a seed;
    an error shows ``part_of`` instead, the seed list that ``value`` is a part of."""
    whole = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (whole and value >= low):
        need = "a non-negative integer" if low == 0 else f">= {low}" if whole else "an integer"
        raise error(f"{name} must be {need}, got {value if part_of is None else part_of!r}")
    return value


def check_scalar(name, value, positive=False, error=InvalidInputError):
    """Raise ``error`` unless ``value`` is a finite real number (a bool is not) >= 0,
    or > 0 if ``positive``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and (value > 0 if positive else value >= 0)):
        need = f"finite and {'>' if positive else '>='} 0" if real else "a number"
        raise error(f"{name} must be {need}, got {value if real else repr(value)}")


def whole_numbers(values):
    """``values`` as read-only int64, and a mask of the entries that are not whole
    numbers >= 0 (negatives, bools, strings, fractions, NaN, inf, past int64), read 0."""
    try:
        raw = np.asarray(values)
    except ValueError:  # numpy refuses a ragged or nested list, as [0, [1]]
        raw = np.asarray(values, dtype=object)
    if raw.dtype.kind in "OSU":  # a mix, as [0, 2**64], [0, "a"] or [0, [1]]: each on its own
        raw = np.array([v if isinstance(v, numbers.Real) and abs(v) < 2 ** 63 else np.nan
                        for v in np.asarray(values, dtype=object).flat]).reshape(raw.shape)
    num = raw if raw.dtype.kind in "iuf" else np.full(raw.shape, np.nan)
    whole = (num == np.floor(num)) & (num >= 0) & (num < 2.0 ** 63)
    # np.asarray([True, 0]) is int64, so a list's bools are found by type
    if isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values)):
        whole &= [not isinstance(v, (bool, np.bool_)) for v in values]
    return read_only(np.where(whole, num, 0).astype(np.int64)), ~whole


def positions(name, values, n=None, *, distinct=False):
    """``values``, a list of ids or labels, as a read-only 1-D int64 array of whole numbers
    >= 0, each below ``n`` if given and, if ``distinct``, none twice.  An error names the
    value and position of the first entry that is none (a list, as in ``[[1]]``, is none)."""
    try:  # an array stays as it is, any other iterable is read once
        values = values if isinstance(values, np.ndarray) and values.ndim else list(values)
    except TypeError:  # a number, or a 0-d array
        raise InvalidInputError(f"{name}s must be a list, got {values!r}") from None
    ints, bad = whole_numbers(values)
    if ints.ndim != 1:  # every entry of [[1]] is a list
        ints, bad = read_only(np.zeros(len(values), np.int64)), np.ones(len(values), bool)
    if n is not None:
        bad |= ints >= n
    repeat = np.full(len(ints), distinct)
    if distinct:
        repeat[np.unique(ints, return_index=True)[1]] = False
    if (bad | repeat).any():
        pos = int((bad | repeat).argmax())
        shown = getattr(values[pos], "tolist", lambda: values[pos])()  # NumPy's as Python's
        why = (f"is not an integer {'>= 0' if n is None else f'in [0, {n})'}" if bad[pos]
               else f"repeats position {(ints[:pos] == ints[pos]).argmax()}")
        raise InvalidInputError(f"{name} {shown!r} at position {pos} {why}")
    return ints


def reject_rows(bad, what):
    """Raise ``InvalidInputError`` naming the first row that the mask ``bad`` marks."""
    if bad.any():
        raise InvalidInputError(f"row {bad.argmax()}: {what}")


def read_only(arr):
    """``arr``, marked read-only: the one place that clears an array's ``writeable``."""
    arr.flags.writeable = False
    return arr


def finite_array(name, value, shape, where=None):
    """``value`` as a read-only C-ordered float64 array of ``shape`` (per axis an int
    for that length or None for any) whose every entry is finite, ``value`` itself
    only if it is such an array owning its data (another value's array, or rows
    just stacked and marked by ``read_only``), so no caller can write through it.

    Only integers and floats are numbers here: bools, strings, bytes, objects,
    complex numbers and ragged sequences are rejected by name.  A non-finite entry
    is named by its first row, and column in a 2-D array (a 0-d value by itself);
    ``where(row)``, if given, prefixes its source, such as a file and line.
    """
    frozen = isinstance(value, np.ndarray) and not value.flags.writeable and value.flags.owndata
    try:
        raw = np.asarray(value)  # ``value`` itself if it is an array
    except ValueError:  # numpy refuses a ragged sequence
        raise InvalidInputError(f"{name} must hold integers or floats, got a ragged "
                                "sequence") from None
    if raw.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must hold integers or floats, got dtype {raw.dtype}")
    fresh = frozen or isinstance(value, (list, tuple))  # a list is copied into raw
    arr = (np.asarray if fresh else np.array)(raw, dtype=np.float64, order="C")
    if arr.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, arr.shape)):
        want = str(tuple("*" if n is None else n for n in shape)).replace("'", "")
        raise InvalidInputError(f"{name} must have shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        first = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())
        at = ", ".join(f"{axis} {i}" for axis, i in zip(("row", "column"), first))
        prefix = "" if where is None else f"{where(first[0])}: "
        raise InvalidInputError(f"{prefix}{name}: non-finite value {arr[first]}"
                                + (f" at {at}" if at else ""))
    return read_only(arr)


def raster(name, value):
    """``value`` as a non-empty 2-D ``finite_array``: the one rule of an image's pixels."""
    arr = finite_array(name, value, (None, None))
    if not arr.size:
        raise InvalidInputError(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    return arr


def _id_and_label(image_id, label):
    """An image's id and label as Python ints; either one not a whole number >= 0 is
    an error."""
    ints, bad = whole_numbers([image_id, label])
    if ints.shape != (2,) or bad.any():  # [[1], [0]] is no id and label
        raise InvalidInputError(f"image {image_id!r}: id and label must be integers >= 0")
    return ints.tolist()


@dataclass(frozen=True)
class Patch:
    """One row of a ``PatchSet``: features, normalized location, label, provenance."""

    id: int
    features: np.ndarray
    coord: tuple[float, float]
    label: int
    image_id: int


class PatchSet:
    """M located, labeled patches as aligned arrays, validated on construction.

    ``ids`` defaults to the row positions; ``where(row)`` names a bad row.
    """

    def __init__(self, features, coords, labels, image_ids, ids=None, *, where=None):
        self.features = finite_array("features", features, (None, None))
        m, p = self.features.shape
        if m and not p:
            raise InvalidInputError(f"patches need at least one feature, "
                                    f"got features {self.features.shape}")
        self.coords = finite_array("coords", coords, (m, 2))
        (self.labels, bad_label), (self.image_ids, bad_image), (self.ids, bad_id) = (
            whole_numbers(a) for a in (labels, image_ids, np.arange(m) if ids is None else ids))
        shapes = [a.shape for a in (self.labels, self.image_ids, self.ids)]
        if shapes != [(m,)] * 3:
            raise InvalidInputError(f"patch arrays disagree: {m} feature rows; "
                                    f"labels, image ids, ids {shapes}")
        inside = (self.coords >= 0.0) & (self.coords <= 1.0)
        for bad, what in (
            (~inside.all(axis=1), "coord {} outside [0,1]^2"),
            (bad_label | bad_image | bad_id, "id, image id or label is not an integer >= 0"),
        ):
            if bad.any():
                row = int(bad.argmax())
                at = f"patch row {row}" if where is None else where(row)
                raise InvalidInputError(f"{at}: " + what.format(tuple(self.coords[row].tolist())))

    @classmethod
    def of(cls, patches) -> "PatchSet":
        """``patches`` unchanged if it is a ``PatchSet``, else its ``Patch`` rows stacked."""
        if isinstance(patches, PatchSet):
            return patches
        patches = list(patches)
        feats = [np.asarray(p.features, dtype=np.float64) for p in patches]
        dims = {f.shape for f in feats}
        if len(dims) > 1:
            raise InvalidInputError(f"mixed feature dimensions: {sorted(dims)}")
        return cls(read_only(np.stack(feats)) if feats else np.empty((0, 0)),
                   read_only(np.array([p.coord for p in patches] or np.empty((0, 2)))),
                   [p.label for p in patches], [p.image_id for p in patches],
                   [p.id for p in patches])

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, index):
        """A ``Patch`` for an integer, a ``PatchSet`` for an index array, list or slice."""
        if isinstance(index, (int, np.integer)):
            x, y = self.coords[index].tolist()
            return Patch(int(self.ids[index]), self.features[index], (x, y),
                         int(self.labels[index]), int(self.image_ids[index]))
        return PatchSet(read_only(self.features[index]), read_only(self.coords[index]),
                        self.labels[index], self.image_ids[index], self.ids[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class ImageFeatures:
    """A pool of located feature vectors belonging to one labeled image."""

    image_id: int
    label: int
    features: np.ndarray  # (n, p)
    coords: np.ndarray    # (n, 2), arbitrary units

    def __post_init__(self):
        image_id, label = _id_and_label(self.image_id, self.label)
        features = finite_array(f"image {image_id} features", self.features, (None, None))
        if not features.shape[1]:
            raise InvalidInputError(f"image {image_id} needs at least one feature, "
                                    f"got features {features.shape}")
        coords = finite_array(f"image {image_id} coords", self.coords, (len(features), 2))
        # a frozen dataclass stores its checked fields past its own __setattr__
        vars(self).update(image_id=image_id, label=label, features=features, coords=coords)


@dataclass(frozen=True)
class LabeledImage:
    """A grayscale raster with a class label (pixel values in [0, 1])."""

    image_id: int
    pixels: np.ndarray
    label: int

    def __post_init__(self):
        image_id, label = _id_and_label(self.image_id, self.label)
        vars(self).update(image_id=image_id, label=label,
                          pixels=raster(f"image {image_id}", self.pixels))


class Dictionary:
    """An ordered set of exemplar patches used as coding atoms.

    ``matrix`` is p x m with one column per atom, in selection order.
    """

    def __init__(self, atoms):
        self.atoms = PatchSet.of(atoms)
        if not len(self.atoms):
            raise InvalidInputError(f"dictionary needs at least one atom of at least one "
                                    f"feature, got features {self.atoms.features.shape}")
        self.matrix = read_only(np.ascontiguousarray(self.atoms.features.T))
        self.atom_coords = self.atoms.coords
        self.atom_labels = self.atoms.labels

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def feature_dim(self) -> int:
        return self.matrix.shape[0]

    def gram(self) -> np.ndarray:
        """D^T D, cached after the first call."""
        if not hasattr(self, "_gram"):
            self._gram = read_only(self.matrix.T @ self.matrix)
        return self._gram


def read_csv_rows(path, header: str, types):
    """Yield (line number, values) for each data row of a CSV file.

    Blank and ``#`` comment lines are skipped; the first other line must
    be exactly ``header``.  A row must have one field per entry of
    ``types``, each converted by it.  Errors name the file and line.
    """
    found = False
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if found:
                try:
                    values = tuple(t(v) for t, v in zip(types, line.split(","), strict=True))
                except (ValueError, OverflowError):
                    raise InvalidInputError(f"{path}:{ln}: malformed row '{line}'") from None
                yield ln, values
            elif line == header:
                found = True
            else:
                raise InvalidInputError(f"{path}:{ln}: expected header '{header}', got '{line}'")
    if not found:
        raise InvalidInputError(f"{path}: empty file, header required")


def write_lines(path, lines, comments=()) -> None:
    """Write one ``# {c}`` line per comment, then ``lines``, each ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.writelines(f"{line}\n" for line in lines)


def _read_patch_files(csv_path, tensor_path):
    """``where(row)``, a row's file and line, then its id/image id/label columns,
    (M, 2) coords and (M, p) features; both readers reject the same rows."""
    # np.int64 makes a value past its range a malformed row, so only negatives are left
    rows = list(read_csv_rows(csv_path, PATCH_CSV_HEADER, (np.int64,) * 3 + (float, float)))
    ints, bad = whole_numbers(np.array([v[:3] for _, v in rows], dtype=np.int64).reshape(-1, 3))
    coords = np.array([v[3:] for _, v in rows], dtype=np.float64).reshape(-1, 2)
    lines = [ln for ln, _ in rows]

    def where(row):
        return f"{csv_path}:{lines[row]}"

    feats = finite_array("feature tensor", read_tensor(tensor_path), (len(rows), None), where)
    coords = finite_array("coords", coords, (len(rows), 2), where)
    if bad.any():
        raise InvalidInputError(f"{where(bad.any(1).argmax())}: negative id, image id or label")
    return where, ints[:, 0], ints[:, 1], ints[:, 2], coords, feats


def load_patches(csv_path, tensor_path) -> PatchSet:
    """Patches from a metadata CSV and its aligned feature tensor."""
    where, ids, image_ids, labels, coords, feats = _read_patch_files(csv_path, tensor_path)
    return PatchSet(feats, coords, labels, image_ids, ids,
                    where=lambda row: f"{where(row)}: patch row {row}")


def save_patches(csv_path, tensor_path, patches, header_comments=()) -> None:
    """Write patches as a metadata CSV and its aligned feature tensor."""
    patches = PatchSet.of(patches)
    rows = zip(patches.ids.tolist(), patches.image_ids.tolist(), patches.labels.tolist(),
               patches.coords.tolist())
    write_lines(csv_path, [PATCH_CSV_HEADER, *(f"{pid},{image_id},{label},{x!r},{y!r}"
                                               for pid, image_id, label, (x, y) in rows)],
                header_comments)
    write_tensor(tensor_path, patches.features)


def pool_patches(pools) -> PatchSet:
    """Every row of every pool, in pool order; coordinates must lie in [0,1]^2."""
    sizes = [len(pool.features) for pool in pools]
    return PatchSet(read_only(np.concatenate([pool.features for pool in pools])),
                    read_only(np.concatenate([pool.coords for pool in pools])),
                    np.repeat([pool.label for pool in pools], sizes),
                    np.repeat([pool.image_id for pool in pools], sizes))


def load_image_pools(csv_path, tensor_path) -> list[ImageFeatures]:
    """One pool per image id, in order of first appearance; coordinates keep their units."""
    _, _, image_ids, labels, coords, feats = _read_patch_files(csv_path, tensor_path)
    _, first = np.unique(image_ids, return_index=True)
    pools = []
    for image_id in image_ids[np.sort(first)].tolist():
        rows = np.flatnonzero(image_ids == image_id)
        found = np.unique(labels[rows]).tolist()
        if len(found) != 1:
            raise InvalidInputError(f"image {image_id} has conflicting labels {found}")
        pools.append(ImageFeatures(image_id, found[0], read_only(feats[rows]),
                                   read_only(coords[rows])))
    return pools


def sample_candidates(images, per_image, seed) -> PatchSet:
    """Sample ``per_image`` located patches from every image pool.

    Locations are drawn uniformly from each pool (without replacement
    when the pool is large enough) and coordinates are normalized to
    [0,1]^2 by the pool's bounding box.  Sampling is deterministic given
    ``seed`` and is independent of image order: each image uses a
    child generator keyed by (seed, image_id).
    """
    if not images:
        raise InvalidInputError("no images to sample from")
    check_count("per_image", per_image)
    seed_parts = [check_count("seed", part, low=0, part_of=seed)
                  for part in (seed if isinstance(seed, (list, tuple)) else [seed])]
    sampled = []
    for img in images:
        n = len(img.features)
        if n == 0:
            raise InvalidInputError(f"image {img.image_id} has an empty pool")
        rng = np.random.default_rng(seed_parts + [img.image_id])
        chosen = rng.choice(n, size=per_image, replace=n < per_image)
        lo = img.coords.min(axis=0)
        span = img.coords.max(axis=0) - lo
        norm = np.where(span > 0, (img.coords[chosen] - lo) / np.where(span > 0, span, 1.0), 0.5)
        sampled.append(ImageFeatures(img.image_id, img.label, read_only(img.features[chosen]),
                                     read_only(norm)))
    return pool_patches(sampled)
