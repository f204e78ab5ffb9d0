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

``Encoder`` is the one batched entry point: built once per dictionary
(Omega, saco2's atom outer products, the ISTA step size when every row
shares the smooth term), it codes an (N, p) batch of features at (N, 2)
locations, one image's patches at a time, and returns ``(codes,
CodingDiagnostics)``: rows left unconverged at ``max_iter``, the most
iterations run and the worst KKT residual (iterative coder only).  saco2
uses the push-through identity ``(D^T D + L)^-1 D^T = L^-1 D^T (I_p +
D L^-1 D^T)^-1`` with ``L = lambda2 diag(w)^2``, a p x p system per row,
wherever p < m, lambda2 > 0 and every weight is > 0; other rows (a zero
weight arises when epsilon = 0 and the query sits on an atom) solve
their m x m systems ``D^T D + lambda2 diag(w)^2`` by Cholesky, stacked
into one call per block.  Both paths solve as many rows per block as
fit in ``SOLVE_BLOCK_DOUBLES``.  ISTA updates the whole batch, freezing
each row at its own stopping test.  The one-row coders run the same
kernels, and a row's saco1 code does not depend on how rows are batched.

Every public entry checks its input by one rule, in ``_rows``: features
(N, p) finite, weights (N, m) finite and >= 0, locations finite where
weights are computed from them; the error names the first bad row.
Scalars are checked as their accepted range, so NaN fails: lambda1 and
lambda2 finite and >= 0, tol > 0, max_iter >= 1.
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


def _rows(d: Dictionary, X=None, W=None, coords=None, config=None, ndim=2):
    """The one input check of every public entry: float64 rows X (N, p), W (N, m).

    ``X`` holds feature vectors along its last axis and has ``ndim``
    axes; ``coords`` (2 last) and ``W`` (m last) share its leading shape,
    and all three are flattened to N rows in C order.  Given ``config``,
    W is computed from ``coords``; given neither, it is all ones.
    Features and locations must be finite, weights finite and >= 0.
    Errors name the first bad row.
    """
    p, m = d.feature_dim, d.n_atoms
    lead, rows = None, []
    for name, a, width, what in (("features", X, p, f"feature dim {p}"),
                                 ("coords", None if config is None else coords, 2, "x, y"),
                                 ("weights", W, m, f"{m} atoms")):
        if a is not None:
            a = np.asarray(a, dtype=np.float64)
            lead = a.shape[:-1] if lead is None else lead
            if a.ndim != ndim:
                raise InvalidInputError(f"{name} {a.shape} must have {ndim} axes")
            if a.shape != lead + (width,):
                raise InvalidInputError(f"{name} {a.shape} do not match {lead + (width,)} ({what})")
            a = a.reshape(-1, width)
        rows.append(a)
    X, coords, W = rows
    if X is not None:
        _reject_rows(~np.isfinite(X).all(axis=1), "non-finite features")
    if config is not None:
        _reject_rows(~np.isfinite(coords).all(axis=1), "non-finite location")
        W = _weight_rows(coords, d.atom_coords, config)
    elif W is None:
        W = np.ones((len(X), m))
    _reject_rows(~((W >= 0) & (W < np.inf)).all(axis=1), "weights must be finite and >= 0")
    return X, W


def spatial_weights(query_coord, dictionary: Dictionary, config: SpatialWeightConfig) -> np.ndarray:
    """Per-atom weights from the query's distance to each atom location."""
    return _rows(dictionary, coords=query_coord, config=config, ndim=1)[1][0]


def soft_threshold(u, thresh):
    """Elementwise shrinkage: sign(u) * max(0, |u| - thresh)."""
    return np.sign(u) * np.maximum(0.0, np.abs(u) - thresh)


def _check_lambdas(lambda1, lambda2):
    for name, v in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0 <= v < np.inf:
            raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class Coder:
    """A dictionary with its pseudo-inverse and saco1's shrinkage weight."""

    dictionary: Dictionary
    omega: np.ndarray
    lambda1: float
    sigma_lower: float

    @classmethod
    def build(cls, dictionary: Dictionary, lambda1: float) -> "Coder":
        """Factor D once and derive Omega via QR (no explicit inverse).

        Requires at least as many feature dimensions as atoms; warns
        when cond(D^T D) exceeds 1e8 and fails on rank deficiency.
        """
        _check_lambdas(lambda1, 0.0)
        D = dictionary.matrix
        p, m = D.shape
        if p < m:
            raise InvalidInputError(
                f"dictionary must be under-complete: feature dim {p} < {m} atoms"
            )
        svals = scipy.linalg.svdvals(D)
        if svals[-1] <= 0 or not np.isfinite(svals[-1]):
            raise LinearSolveError(
                f"rank-deficient dictionary, condition estimate inf (singular values "
                f"{svals[0]:.3e}..{svals[-1]:.3e})"
            )
        condition = float((svals[0] / svals[-1]) ** 2)
        if condition > CONDITION_WARN_THRESHOLD:
            warnings.warn(
                f"ill-conditioned dictionary: cond(D^T D) ~= {condition:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
        q, r = np.linalg.qr(D, mode="reduced")
        omega = scipy.linalg.solve_triangular(r, q.T)
        # Smallest singular value of Omega as an operator on R^p: zero
        # whenever p > m (the residual space has a null direction), else
        # the smallest of the m singular values.
        sigma_lower = 0.0 if p > m else float(scipy.linalg.svdvals(omega)[-1])
        return cls(dictionary, omega, float(lambda1), sigma_lower)


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
                    f"{cond:.3e}", scipy.linalg.LinAlgWarning, stacklevel=3,
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


def _lipschitz(G, W, lambda2) -> np.ndarray:
    """Per row, the largest eigenvalue of D^T D + lambda2 diag(w)^2.

    One ``eigvalsh`` when every row shares that matrix (lambda2 = 0 or
    identical weight rows), else one per row.
    """
    if lambda2 == 0 or (W == W[0]).all():
        return np.full(len(W), np.linalg.eigvalsh(G + lambda2 * np.diag(W[0] * W[0]))[-1])
    return np.array([np.linalg.eigvalsh(G + lambda2 * np.diag(w * w))[-1] for w in W])


def _objective_rows(X, D, A, W, lambda1, lambda2) -> np.ndarray:
    R = X - A @ D.T
    WA = W * A
    return (0.5 * (R * R).sum(axis=1) + 0.5 * lambda2 * (WA * WA).sum(axis=1)
            + lambda1 * np.abs(WA).sum(axis=1))


def _kkt_rows(X, D, A, W, lambda1, lambda2) -> np.ndarray:
    """Per row, the infinity norm of the optimality-condition violation."""
    grad = (A @ D.T - X) @ D + lambda2 * (W * W) * A
    thresh = lambda1 * W
    res = np.where(A != 0, np.abs(grad + thresh * np.sign(A)),
                   np.maximum(0.0, np.abs(grad) - thresh))
    return res.max(axis=1)


def _ista_rows(X, dictionary: Dictionary, W, lambda1, lambda2, tol, max_iter, lip=None):
    """ISTA on every row at once, each with step 1 / its own Lipschitz constant.

    Returns (codes, converged, iterations, kkt).  ``lip`` is a constant
    shared by every row, when the caller already knows it.
    """
    D = dictionary.matrix
    G = dictionary.gram()
    n, m = W.shape
    lips = np.full(n, lip) if lip is not None else _lipschitz(G, W, lambda2)
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
    for it in range(1, max_iter + 1):
        if not rows.size:
            break
        grad = a @ G + w2 * a - dtx
        a_next = soft_threshold(a - step * grad, thresh)
        done = np.abs(a_next - a).max(axis=1) < tol
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


def saco1(x, coder: Coder, w) -> np.ndarray:
    """Per-coordinate shrinkage of Omega x with thresholds lambda1 * w."""
    X, W = _rows(coder.dictionary, x, w, ndim=1)
    return _saco1_rows(X, coder.omega, coder.lambda1, W)[0]


def saco2(x, dictionary: Dictionary, w, lambda1: float, lambda2: float) -> np.ndarray:
    """Weighted ridge pre-solve, then a uniform shrinkage at lambda1."""
    X, W = _rows(dictionary, x, w, ndim=1)
    _check_lambdas(lambda1, lambda2)
    return _saco2_rows(X, dictionary, W, lambda1, lambda2)[0]


def bound_check(x, a, coder: Coder):
    """Return (||Omega(x - Da)||, sigma_lower(Omega) * ||x - Da||).

    The first never falls below the second: for a square dictionary the
    smallest singular value of Omega is a genuine lower bound on its
    gain, and for p > m the factor is zero because residuals orthogonal
    to the atom span are annihilated by Omega.
    """
    x = _rows(coder.dictionary, x, ndim=1)[0][0]
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (coder.dictionary.n_atoms,) or not np.isfinite(a).all():
        raise InvalidInputError(f"code {a.shape} must be finite with one entry per atom")
    r = x - coder.dictionary.matrix @ a
    lhs = float(np.linalg.norm(coder.omega @ r))
    rhs = float(coder.sigma_lower * np.linalg.norm(r))
    return lhs, rhs


@dataclass
class CodeResult:
    """Iterative solver output with convergence diagnostics."""

    coeffs: np.ndarray
    converged: bool
    iterations: int
    kkt_residual: float
    objective: float


def _check_solver(tol, max_iter):
    if not (tol > 0 and max_iter >= 1):
        raise InvalidInputError(f"bad solver settings tol={tol}, max_iter={max_iter}")


def solve_weighted_l1(x, dictionary, w, lambda1, tol=1e-6, max_iter=1000) -> CodeResult:
    """Proximal gradient for 0.5||x - Da||^2 + lambda1 ||diag(w) a||_1.

    Step size 1/sigma_max(D^T D); each iteration soft-thresholds the
    gradient step coordinatewise at lambda1 * w_i * step.
    """
    return solve_weighted_l2_l1(x, dictionary, w, lambda1, 0.0, tol, max_iter)


def solve_weighted_l2_l1(x, dictionary, w, lambda1, lambda2, tol=1e-6,
                         max_iter=1000) -> CodeResult:
    """Adds 0.5 * lambda2 ||diag(w) a||^2 to the smooth part.

    With lambda2 = 0 this is exactly ``solve_weighted_l1``.
    """
    X, W = _rows(dictionary, x, w, ndim=1)
    _check_lambdas(lambda1, lambda2)
    _check_solver(tol, max_iter)
    A, converged, iterations, kkt = _ista_rows(X, dictionary, W, lambda1, lambda2, tol, max_iter)
    objective = _objective_rows(X, dictionary.matrix, A, W, lambda1, lambda2)
    return CodeResult(
        coeffs=A[0],
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
        kkt_residual=float(kkt[0]),
        objective=float(objective[0]),
    )


def grid_weights(dictionary: Dictionary, config: SpatialWeightConfig, n_rows: int, n_cols: int) -> np.ndarray:
    """Spatial weights for every cell center of an (n_rows, n_cols) grid.

    Cell (r, c) maps to the normalized coordinate
    ((c + 0.5)/n_cols, (r + 0.5)/n_rows).
    """
    if not (n_rows >= 1 and n_cols >= 1):
        raise InvalidInputError(f"grid must be non-empty, got {n_rows}x{n_cols}")
    xs, ys = np.meshgrid((np.arange(n_cols) + 0.5) / n_cols, (np.arange(n_rows) + 0.5) / n_rows)
    centers = np.column_stack([xs.ravel(), ys.ravel()])
    w = _weight_rows(centers, dictionary.atom_coords, config)
    return w.reshape(n_rows, n_cols, dictionary.n_atoms)


def dense_saco1(feature_map, coder: Coder, weight_field) -> np.ndarray:
    """saco1 applied to every cell of an (H, W, p) feature map.

    ``weight_field`` is an (H, W, m) array of per-cell atom weights
    (see ``grid_weights``).  Each cell's code equals ``saco1`` on that
    cell's feature vector exactly: both run the same row-independent
    kernel.
    """
    X, W = _rows(coder.dictionary, feature_map, weight_field, ndim=3)
    h, wid = np.shape(feature_map)[:2]
    return _saco1_rows(X, coder.omega, coder.lambda1, W).reshape(h, wid, -1)


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
    """Codes batches of located patch features against one dictionary.

    ``weights`` of None gives every atom weight 1, and ``encode`` then
    needs no locations.  ``tol`` and ``max_iter`` apply to the iterative
    coder only; a saco1 encoder builds its ``Coder`` and fails as it does.
    """

    dictionary: Dictionary
    method: str = "saco2"
    lambda1: float = 0.1
    lambda2: float = 1.0
    weights: SpatialWeightConfig | None = None
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.method not in CODERS:
            raise InvalidConfigError(f"unknown coder '{self.method}'")
        _check_lambdas(self.lambda1, self.lambda2)
        _check_solver(self.tol, self.max_iter)
        p, m = self.dictionary.matrix.shape
        self.coder = self._outer = self._lip = None
        if self.method == "saco1":
            self.coder = Coder.build(self.dictionary, self.lambda1)
        elif self.method == "saco2" and p < m and self.lambda2 > 0:
            self._outer = _atom_outer(self.dictionary.matrix)
        elif self.method == "iterative" and (self.weights is None or self.lambda2 == 0):
            self._lip = _lipschitz(self.dictionary.gram(), np.ones((1, m)), self.lambda2)[0]

    def encode(self, X, coords=None):
        """Code an (N, p) batch located at (N, 2) ``coords``: (codes, diagnostics)."""
        d = self.dictionary
        X, W = _rows(d, X, coords=coords, config=self.weights)
        n = len(X)
        if not n:
            return np.zeros((0, d.n_atoms)), CodingDiagnostics()
        if self.method == "saco1":
            return _saco1_rows(X, self.coder.omega, self.lambda1, W), CodingDiagnostics(n)
        if self.method == "saco2":
            codes = _saco2_rows(X, d, W, self.lambda1, self.lambda2, self._outer)
            return codes, CodingDiagnostics(n)
        codes, converged, iterations, kkt = _ista_rows(
            X, d, W, self.lambda1, self.lambda2, self.tol, self.max_iter, self._lip
        )
        return codes, CodingDiagnostics(n, int((~converged).sum()), int(iterations.max()),
                                        float(kkt.max()))
