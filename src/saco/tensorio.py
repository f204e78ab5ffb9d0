"""Binary tensor files.

Layout: 4-byte magic ``SKT1``, a little-endian uint32 rank, ``rank``
little-endian uint64 dimensions, then the tensor payload as row-major
(C-order) float32.  Round-trips are bit-exact for float32 data.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TensorFormatError

MAGIC = b"SKT1"

# Guard rails: a rank or element count past these is treated as file
# corruption rather than a legitimately huge tensor.
MAX_RANK = 32
MAX_ELEMENTS = 1 << 40


def write_tensor(path, array) -> None:
    """Write ``array`` to ``path``, casting the payload to float32."""
    arr = np.asarray(array, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([arr.ndim], dtype="<u4").tobytes())
        fh.write(np.array(arr.shape, dtype="<u8").tobytes())
        fh.write(arr.tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a tensor file and return a writable float32 ndarray."""
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 4 or data[:4] != MAGIC:
        raise TensorFormatError("bad magic, expected b'SKT1'", 0)
    if len(data) < 8:
        raise TensorFormatError("truncated rank field", len(data))
    rank = int(np.frombuffer(data, dtype="<u4", count=1, offset=4)[0])
    if rank > MAX_RANK:
        raise TensorFormatError(f"rank {rank} exceeds limit {MAX_RANK}", 4)

    dims_end = 8 + 8 * rank
    if len(data) < dims_end:
        raise TensorFormatError("truncated dimension block", len(data))
    dims = [int(d) for d in np.frombuffer(data, dtype="<u8", count=rank, offset=8)]
    n_elems = math.prod(dims)
    if n_elems > MAX_ELEMENTS:
        raise TensorFormatError(f"dimension overflow: {n_elems} elements", 8)

    payload_end = dims_end + 4 * n_elems
    if len(data) < payload_end:
        raise TensorFormatError(
            f"truncated payload: expected {4 * n_elems} bytes, got {len(data) - dims_end}",
            len(data),
        )
    if len(data) > payload_end:
        raise TensorFormatError("trailing bytes after payload", payload_end)

    flat = np.frombuffer(data, dtype="<f4", count=n_elems, offset=dims_end)
    return flat.reshape(dims).copy()
