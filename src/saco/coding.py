"""Spatially weighted sparse coding against an exemplar dictionary.

Per query patch, a weight vector ``w`` grows with the distance between
the query location and each atom's location, so distant atoms pay a
higher sparsity (or ridge) price.  Three coders produce codes:

* ``saco1``: soft-threshold ``Omega x`` per-coordinate by ``lambda1 * w``,
  with the dictionary pseudo-inverse ``Omega = (D^T D)^-1 D^T``; exactly
  optimal for the proxy objective
  ``0.5 ||Omega x - a||^2 + lambda1 ||diag(w) a||_1``.
* ``saco2``: ridge pre-solve ``u = (D^T D + lambda2 diag(w)^2)^-1 D^T x``
  followed by a uniform soft-threshold at ``lambda1``.
* ``iterative``: proximal gradient (ISTA) for
  ``0.5 ||x - D a||^2 + 0.5 lambda2 ||diag(w) a||^2 + lambda1 ||diag(w) a||_1``.

With an orthonormal dictionary the proxy objective coincides with the
reconstruction objective, so ``saco1`` and the iterative solver agree.

``Encoder`` is the one way to code: built once per dictionary and coder,
it codes an (N, p) batch at explicit (N, m) weights (``code``) or at
(N, 2) locations (``encode``) and returns ``(codes, CodingDiagnostics)``.
One patch is a 1-row batch; a dense (H, W, p) feature map is
``code(fmap.reshape(-1, p), weights.reshape(-1, m))``.  saco2 uses the
push-through identity ``(D^T D + L)^-1 D^T = L^-1 D^T (I_p + D L^-1
D^T)^-1`` with ``L = lambda2 diag(w)^2``, a p x p system per row,
wherever p < m, lambda2 > 0 and every weight is > 0; other rows (a zero
weight arises when epsilon = 0 and the query sits on an atom) solve
``D^T D + lambda2 diag(w)^2`` by Cholesky, stacked into one call per
block of ``SOLVE_BLOCK_DOUBLES``.  ISTA updates the whole batch, freezing
each row once no coefficient moves by ``ISTA_TOL`` (or, unconverged, after
``ISTA_MAX_ITER`` iterations); a row's step is 1 / (lambda_max(D^T D)
+ lambda2 max_j w_j^2), from one eigensolve per encoder.  A row's saco1
code does not depend on how rows are batched.

Every public entry checks its input by one rule, in ``_rows``, naming the
first bad row.  Scalars are checked as their accepted range, so NaN
fails: lambda1 and lambda2 finite and >= 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import Dictionary
from .errors import InvalidConfigError, InvalidInputError, LinearSolveError

CONDITION_WARN_THRESHOLD = 1e8

WEIGHT_KERNELS = ("linear", "one-minus-gaussian")

CODERS = ("saco1", "saco2", "iterative")

# doubles one batched solve may stack: 128 systems of 64 x 64
SOLVE_BLOCK_DOUBLES = 128 * 64 * 64

# ISTA's stopping test (largest coefficient step) and iteration cap
ISTA_TOL = 1e-6
ISTA_MAX_ITER = 1000


@dataclass(frozen=True)
class SpatialWeightConfig:
    """Distance-to-weight kernel for query/atom location pairs."""

    kernel: str = "linear"
    epsilon: float = 0.1
    scale: float = 0.5

    def __post_init__(self):
        if self.kernel not in WEIGHT_KERNELS:
            raise InvalidConfigError(f"unknown weight_kernel '{self.kernel}'")
        if not self.scale > 0:
            raise InvalidConfigError(f"weight_scale must be > 0, got {self.scale}")
        if not 0 <= self.epsilon < np.inf:
            raise InvalidConfigError(f"weight_epsilon must be finite and >= 0, got {self.epsilon}")


def _weight_rows(coords, atom_coords, config: SpatialWeightConfig) -> np.ndarray:
    """(N, m) weights from each of N query locations to each atom location."""
    d = np.linalg.norm(atom_coords[None, :, :] - coords[:, None, :], axis=2)
    if config.kernel == "linear":
        return config.epsilon + d / config.scale
    return config.epsilon + 1.0 - np.exp(-(d * d) / (2.0 * config.scale * config.scale))


def _reject_rows(bad, what):
    if bad.any():
        raise InvalidInputError(f"row {bad.argmax()}: {what}")


def _rows(d: Dictionary, X=None, W=None, coords=None):
    """The one input check of every public entry: float64 (X, coords, W).

    Each given array holds 2-D rows, N of them in all: features X (N, p),
    locations coords (N, 2), weights W (N, m).  Features and locations
    must be finite, weights finite and >= 0.  Errors name the first bad row.
    """
    p, m = d.feature_dim, d.n_atoms
    n, rows = None, []
    for name, a, width, what in (("features", X, p, f"feature dim {p}"),
                                 ("coords", coords, 2, "x, y"),
                                 ("weights", W, m, f"{m} atoms")):
        if a is not None:
            a = np.asarray(a, dtype=np.float64)
            if a.ndim != 2:
                raise InvalidInputError(f"{name} {a.shape} must have 2 axes")
            n = len(a) if n is None else n
            if a.shape != (n, width):
                raise InvalidInputError(f"{name} {a.shape} do not match {(n, width)} ({what})")
        rows.append(a)
    X, coords, W = rows
    if X is not None:
        _reject_rows(~np.isfinite(X).all(axis=1), "non-finite features")
    if coords is not None:
        _reject_rows(~np.isfinite(coords).all(axis=1), "non-finite location")
    if W is not None:
        _reject_rows(~((W >= 0) & (W < np.inf)).all(axis=1), "weights must be finite and >= 0")
    return X, coords, W


def spatial_weights(coords, dictionary: Dictionary, config: SpatialWeightConfig) -> np.ndarray:
    """(N, m) atom weights from each of (N, 2) query locations' distance to each atom."""
    return _weight_rows(_rows(dictionary, coords=coords)[1], dictionary.atom_coords, config)


def soft_threshold(u, thresh):
    """Elementwise shrinkage: sign(u) * max(0, |u| - thresh)."""
    return np.sign(u) * np.maximum(0.0, np.abs(u) - thresh)


def _check_lambdas(lambda1, lambda2):
    for name, v in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0 <= v < np.inf:
            raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")


def _pseudo_inverse(D):
    """Omega = (D^T D)^-1 D^T via QR (no explicit inverse) and its smallest singular value.

    Requires at least as many feature dimensions as atoms; warns when
    cond(D^T D) exceeds 1e8 and fails on rank deficiency.
    """
    p, m = D.shape
    if p < m:
        raise InvalidInputError(f"dictionary must be under-complete: feature dim {p} < {m} atoms")
    svals = scipy.linalg.svdvals(D)
    if svals[-1] <= 0 or not np.isfinite(svals[-1]):
        raise LinearSolveError(f"rank-deficient dictionary, condition estimate inf "
                               f"(singular values {svals[0]:.3e}..{svals[-1]:.3e})")
    condition = float((svals[0] / svals[-1]) ** 2)
    if condition > CONDITION_WARN_THRESHOLD:
        # stack: here, Encoder.__post_init__, Encoder.__init__, the caller
        warnings.warn(f"ill-conditioned dictionary: cond(D^T D) ~= {condition:.3e}",
                      RuntimeWarning, stacklevel=4)
    q, r = np.linalg.qr(D, mode="reduced")
    omega = scipy.linalg.solve_triangular(r, q.T)
    # Smallest singular value of Omega as an operator on R^p: zero
    # whenever p > m (the residual space has a null direction), else
    # the smallest of the m singular values.
    sigma_lower = 0.0 if p > m else float(scipy.linalg.svdvals(omega)[-1])
    return omega, sigma_lower


def _saco1_rows(X, omega, lambda1, W) -> np.ndarray:
    # unoptimized einsum reduces every (row, atom) pair in the same order
    # whatever the batch size, unlike a BLAS product, so a row's code does
    # not depend on the rows batched with it
    u = np.einsum("np,mp->nm", np.ascontiguousarray(X), omega)
    return soft_threshold(u, lambda1 * W)


def _atom_outer(D) -> np.ndarray:
    """(m, p*p) outer products d_j d_j^T, so D diag(s) D^T = (s @ outer).reshape(p, p)."""
    p, m = D.shape
    return np.einsum("pm,qm->mpq", D, D).reshape(m, p * p)


def _blocks(rows, n):
    """Split ``rows`` into runs whose n x n systems fit in SOLVE_BLOCK_DOUBLES."""
    size = max(1, SOLVE_BLOCK_DOUBLES // (n * n))
    return [rows[lo:lo + size] for lo in range(0, rows.size, size)]


def _worst_system(A):
    """Index and condition number of the worst-conditioned of stacked systems."""
    cond = np.linalg.cond(A)
    k = int(cond.argmax())
    return k, cond[k]


def _saco2_rows(X, dictionary: Dictionary, W, lambda1, lambda2, outer=None) -> np.ndarray:
    D = dictionary.matrix
    p, m = D.shape
    U = np.empty((len(X), m))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (lambda2 * W * W)
    fast = np.isfinite(inv).all(axis=1) if p < m else np.zeros(len(X), dtype=bool)
    rows = np.flatnonzero(fast)
    if rows.size and outer is None:
        outer = _atom_outer(D)
    eye = np.arange(p)
    for blk in _blocks(rows, p):
        K = (inv[blk] @ outer).reshape(len(blk), p, p)
        K[:, eye, eye] += 1.0
        v = np.linalg.solve(K, X[blk, :, None])[:, :, 0]
        U[blk] = inv[blk] * (v @ D)
    # rows the push-through cannot take, or where it lost finiteness, solve
    # D^T D + lambda2 diag(w)^2 by Cholesky, one stacked call per block
    slow = ~fast
    slow[rows] = ~np.isfinite(U[rows]).all(axis=1)
    diag = np.arange(m)
    for blk in _blocks(np.flatnonzero(slow), m):
        A = np.repeat(dictionary.gram()[None], len(blk), axis=0)
        A[:, diag, diag] += lambda2 * (W[blk] * W[blk])
        try:
            # SciPy's stacked solve names the wrong slice in its warning, so
            # record it and warn again naming the row
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", scipy.linalg.LinAlgWarning)
                U[blk] = scipy.linalg.solve(A, D.T @ X[blk, :, None], assume_a="pos")[:, :, 0]
        except scipy.linalg.LinAlgError as exc:
            k, cond = _worst_system(A)
            raise LinearSolveError(
                f"ridge system of row {blk[k]} singular, condition estimate {cond:.3e}"
            ) from exc
        for w in caught:
            if issubclass(w.category, scipy.linalg.LinAlgWarning):
                k, cond = _worst_system(A)
                warnings.warn(
                    f"ill-conditioned ridge system of row {blk[k]}, condition estimate "
                    f"{cond:.3e}", scipy.linalg.LinAlgWarning, stacklevel=4,
                )
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        bad = np.flatnonzero(~np.isfinite(U[blk]).all(axis=1))
        if bad.size:
            raise LinearSolveError(
                f"ridge solve of row {blk[bad[0]]} produced non-finite values, condition "
                f"estimate {np.linalg.cond(A[bad[0]]):.3e}"
            )
    return soft_threshold(U, lambda1)


def _kkt_rows(X, D, A, W, lambda1, lambda2) -> np.ndarray:
    """Per row, the infinity norm of the optimality-condition violation."""
    grad = (A @ D.T - X) @ D + lambda2 * (W * W) * A
    thresh = lambda1 * W
    res = np.where(A != 0, np.abs(grad + thresh * np.sign(A)),
                   np.maximum(0.0, np.abs(grad) - thresh))
    return res.max(axis=1)


def _ista_rows(X, dictionary: Dictionary, W, lambda1, lambda2, lmax):
    """ISTA on every row at once, each with step 1 / its own Lipschitz bound.

    A row's bound is ``lmax + lambda2 * max_j w_j^2``, with ``lmax`` the
    largest eigenvalue of D^T D; by Weyl's inequality it is at least the
    largest eigenvalue of D^T D + lambda2 diag(w)^2.  Returns (codes,
    converged, iterations, kkt).
    """
    D = dictionary.matrix
    G = dictionary.gram()
    n, m = W.shape
    lips = lmax + lambda2 * (W * W).max(axis=1)
    A = np.zeros((n, m))
    iterations = np.zeros(n, dtype=np.int64)
    # an all-zero dictionary has nothing to fit: a = 0 is optimal
    converged = lips <= 0
    rows = np.flatnonzero(~converged)
    step = 1.0 / lips[rows, None]
    thresh = step * lambda1 * W[rows]
    w2 = lambda2 * W[rows] * W[rows]
    dtx = X[rows] @ D
    a = A[rows]
    for it in range(1, ISTA_MAX_ITER + 1):
        if not rows.size:
            break
        grad = a @ G + w2 * a - dtx
        a_next = soft_threshold(a - step * grad, thresh)
        done = np.abs(a_next - a).max(axis=1) < ISTA_TOL
        a = a_next
        iterations[rows] = it
        if done.any():
            A[rows] = a
            converged[rows[done]] = True
            keep = ~done
            rows, a, step, thresh, w2, dtx = (
                rows[keep], a[keep], step[keep], thresh[keep], w2[keep], dtx[keep])
    A[rows] = a
    return A, converged, iterations, _kkt_rows(X, D, A, W, lambda1, lambda2)


@dataclass
class CodingDiagnostics:
    """Convergence summary of coded rows, summed over batches with ``add``.

    Only the iterative coder iterates: the closed-form coders report
    zero iterations, no unconverged rows and a KKT residual of 0.0 (not
    measured; their codes are exact for their own objectives).
    """

    rows: int = 0
    unconverged: int = 0
    max_iterations: int = 0
    worst_kkt: float = 0.0

    def add(self, other: "CodingDiagnostics") -> None:
        self.rows += other.rows
        self.unconverged += other.unconverged
        self.max_iterations = max(self.max_iterations, other.max_iterations)
        self.worst_kkt = max(self.worst_kkt, other.worst_kkt)


@dataclass
class Encoder:
    """Codes batches of patch features against one dictionary.

    ``weights`` of None gives every atom weight 1, and ``encode`` then
    needs no locations.  A saco1 encoder holds ``omega`` (the
    pseudo-inverse) and ``sigma_lower`` (its smallest singular value on
    R^p, see ``bound_check``); it needs an under-complete, full-rank
    dictionary.
    """

    dictionary: Dictionary
    method: str = "saco2"
    lambda1: float = 0.1
    lambda2: float = 1.0
    weights: SpatialWeightConfig | None = None

    def __post_init__(self):
        if self.method not in CODERS:
            raise InvalidConfigError(f"unknown coder '{self.method}'")
        _check_lambdas(self.lambda1, self.lambda2)
        D = self.dictionary.matrix
        self.omega = self.sigma_lower = self._outer = self._lmax = None
        if self.method == "saco1":
            self.omega, self.sigma_lower = _pseudo_inverse(D)
        elif self.method == "saco2" and D.shape[0] < D.shape[1] and self.lambda2 > 0:
            self._outer = _atom_outer(D)
        elif self.method == "iterative":
            self._lmax = np.linalg.eigvalsh(self.dictionary.gram())[-1]

    def code(self, X, W=None):
        """Code an (N, p) batch at explicit (N, m) weights, all ones for None.

        Returns ``(codes, diagnostics)``.
        """
        X, _, W = _rows(self.dictionary, X, W)
        return self._code(X, W)

    def encode(self, X, coords=None):
        """``code`` an (N, p) batch at the ``weights`` of its (N, 2) ``coords``."""
        d = self.dictionary
        if self.weights is None:
            return self._code(_rows(d, X)[0])
        X, coords, _ = _rows(d, X, coords=coords)
        return self._code(X, _rows(d, W=_weight_rows(coords, d.atom_coords, self.weights))[2])

    def _code(self, X, W=None):
        d, n = self.dictionary, len(X)
        W = np.ones((n, d.n_atoms)) if W is None else W
        if not n:
            return np.zeros((0, d.n_atoms)), CodingDiagnostics()
        if self.method == "saco1":
            return _saco1_rows(X, self.omega, self.lambda1, W), CodingDiagnostics(n)
        if self.method == "saco2":
            codes = _saco2_rows(X, d, W, self.lambda1, self.lambda2, self._outer)
            return codes, CodingDiagnostics(n)
        A, converged, iterations, kkt = _ista_rows(X, d, W, self.lambda1, self.lambda2, self._lmax)
        return A, CodingDiagnostics(n, int((~converged).sum()), int(iterations.max()),
                                    float(kkt.max()))


def bound_check(x, a, encoder: Encoder):
    """Return (||Omega(x - Da)||, sigma_lower(Omega) * ||x - Da||) for a saco1 encoder.

    The first never falls below the second: for a square dictionary the
    smallest singular value of Omega is a genuine lower bound on its
    gain, and for p > m the factor is zero because residuals orthogonal
    to the atom span are annihilated by Omega.
    """
    if encoder.omega is None:
        raise InvalidInputError(f"bound_check needs a saco1 encoder, got {encoder.method}")
    d = encoder.dictionary
    x = _rows(d, [x])[0][0]
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (d.n_atoms,) or not np.isfinite(a).all():
        raise InvalidInputError(f"code {a.shape} must be finite with one entry per atom")
    r = x - d.matrix @ a
    lhs = float(np.linalg.norm(encoder.omega @ r))
    rhs = float(encoder.sigma_lower * np.linalg.norm(r))
    return lhs, rhs
