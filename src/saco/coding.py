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
* ``iterative``: accelerated proximal gradient (monotone FISTA with
  restart) for
  ``0.5 ||x - D a||^2 + 0.5 lambda2 ||diag(w) a||^2 + lambda1 ||diag(w) a||_1``.

With an orthonormal dictionary the proxy objective coincides with the
reconstruction objective, so ``saco1`` and the iterative solver agree.

``Encoder`` is the one way to code: built once per dictionary and coder,
it codes an (N, p) batch at explicit (N, m) weights (``code``) or at
(N, 2) locations (``encode``) and returns ``(codes, CodingDiagnostics)``.
One patch is a 1-row batch; a dense (H, W, p) feature map is
``code(fmap.reshape(-1, p), weights.reshape(-1, m))``.

saco2 solves every row by one kernel, ``_cholesky_rows``: LAPACK's packed
Cholesky ``dppsv``, one call per row, on a symmetric matrix stored as its
lower triangle in ``np.tril_indices`` order (LAPACK's upper-packed
storage).  Where p < m and every lambda2 w_j^2 is > 0, a row takes the
push-through identity ``(D^T D + L)^-1 D^T = L^-1 D^T (I_p + D L^-1
D^T)^-1``, ``L = lambda2 diag(w)^2``: one GEMM per block against the
packed atom outer products (``_atom_outer``) gives every row's K = I_p +
D L^-1 D^T, with eigenvalues >= 1.  Every other row, and a push-through
row whose K overflows, fails to factor or gives a non-finite code,
solves the packed m x m system ``D^T D + L``.  A failed m x m row raises
``LinearSolveError`` and a row whose ``dppcon`` rcond is below LAPACK's
eps warns with ``LinAlgWarning``, each naming the row; ``dppcon`` runs
only on rows that a Weyl bound, from the encoder's extreme eigenvalues
of D^T D, cannot clear.  FISTA updates the whole batch and never raises
a row's objective; each row freezes once its KKT residual is at most
``FISTA_KKT_TOL`` times ||D^T x||_inf (tested every ``FISTA_KKT_EVERY``
iterations), or stops unconverged at the ``FISTA_MAX_ITER`` cap.  A
row's step is 1 / (lambda_max(D^T D) + lambda2 max_j w_j^2).  A row's
saco1 code does not depend on how rows are batched.

Every public entry checks its input by one rule, in ``_rows``, naming the
first bad row.  Scalars are checked as their accepted range, so NaN
fails: lambda1 and lambda2 finite and >= 0.  saco2 and the iterative
coder also need every lambda2 w_j^2 finite, checked in ``Encoder._code``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dlamch, dppcon, dppsv, dpptrf

from .data import Dictionary
from .errors import InvalidConfigError, InvalidInputError, LinearSolveError

CONDITION_WARN_THRESHOLD = 1e8

WEIGHT_KERNELS = ("linear", "one-minus-gaussian")

CODERS = ("saco1", "saco2", "iterative")

# doubles one block of packed systems may hold: 252 at 64 x 64, 1747 at
# 24 x 24, 20 at 224 x 224
SOLVE_BLOCK_DOUBLES = 128 * 64 * 64

# the iterative coder's stop: a row converges once its KKT residual is at
# most FISTA_KKT_TOL ||D^T x||_inf, tested every FISTA_KKT_EVERY iterations
# and at the FISTA_MAX_ITER cap
FISTA_KKT_TOL = 1e-3
FISTA_KKT_EVERY = 10
FISTA_MAX_ITER = 1000


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
    # the Euclidean norm over (dx, dy), summed as np.linalg.norm sums it
    dx = atom_coords[None, :, 0] - coords[:, None, 0]
    dy = atom_coords[None, :, 1] - coords[:, None, 1]
    d = np.sqrt(dx * dx + dy * dy)
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
    """(m, p(p+1)/2) packed outer products d_j d_j^T.

    Row j is the lower triangle of d_j d_j^T in ``np.tril_indices`` order,
    which is LAPACK's upper-packed storage of that symmetric matrix, so
    ``s @ outer`` is D diag(s) D^T packed for ``dppsv``.
    """
    lo, hi = np.tril_indices(D.shape[0])
    return np.ascontiguousarray((D[lo] * D[hi]).T)


def _blocks(rows, doubles):
    """Split ``rows`` into runs whose systems, ``doubles`` each, fit in SOLVE_BLOCK_DOUBLES."""
    size = max(1, SOLVE_BLOCK_DOUBLES // doubles)
    return [rows[lo:lo + size] for lo in range(0, rows.size, size)]


def _cholesky_rows(K, V, n) -> np.ndarray:
    """Solve each packed n x n system K[r] v = V[r] by ``dppsv``, into V; returns
    the rows solved (K[r] finite, factorized, solution finite).  K may be overwritten."""
    ok = np.isfinite(K).all(axis=1)
    for r in np.flatnonzero(ok):
        sol, info = dppsv(n, K[r], V[r, :, None], overwrite_b=1)
        V[r], ok[r] = sol[:, 0], info == 0
    return ok & np.isfinite(V).all(axis=1)


def _saco2_rows(X, D, G, ridge, lambda1, outer, spectrum) -> np.ndarray:
    """saco2 codes at ``ridge`` = lambda2 w^2; ``outer`` = ``_atom_outer(D)``
    when p < m; ``spectrum`` = (lambda_min, lambda_max) of G = D^T D."""
    p, m = D.shape
    U = np.empty((len(X), m))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / ridge
    slow = ~np.isfinite(inv).all(axis=1) if p < m else np.ones(len(X), dtype=bool)
    # per row, packed K = I_p + D diag(inv) D^T; a row whose K overflows,
    # fails to factor or gives a non-finite code takes the m x m solve
    k_diag = np.arange(p) * (np.arange(p) + 3) // 2
    for blk in _blocks(np.flatnonzero(~slow), p * (p + 1) // 2):
        with np.errstate(over="ignore", invalid="ignore"):
            K = inv[blk] @ outer
            K[:, k_diag] += 1.0
            v = X[blk]
            ok = _cholesky_rows(K, v, p)
            U[blk] = inv[blk] * (v @ D)
        slow[blk] = ~ok | ~np.isfinite(U[blk]).all(axis=1)
    # the other rows solve D^T D + diag(ridge), packed the same way
    lo, hi = np.tril_indices(m)
    a_diag = np.arange(m) * (np.arange(m) + 3) // 2
    lmin, lmax = spectrum
    eps = dlamch("E")
    for blk in _blocks(np.flatnonzero(slow), m * (m + 1) // 2):
        r = ridge[blk]
        A = np.repeat(G[lo, hi][None], len(blk), axis=0)
        A[:, a_diag] += r
        # by Weyl, cond_1(A) <= m (lmax + max r) / (lmin + min r); with lmin
        # lowered by slack = m eps (lmax + max r), the rounding of eigvalsh and
        # of the ridge, a row whose bound stays below 1 / eps needs no dppcon
        slack = m * eps * (lmax + r.max(axis=1))
        rcond = np.full(len(blk), np.inf)
        for k in np.flatnonzero(2 * slack >= lmin + r.min(axis=1)):
            factor, info = dpptrf(m, A[k])
            if info == 0:
                rcond[k] = dppcon(m, factor, np.abs(G + np.diag(r[k])).sum(axis=0).max())[0]
        V = X[blk] @ D
        bad = np.flatnonzero(~_cholesky_rows(A, V, m))
        if bad.size:
            k = bad[0]
            raise LinearSolveError(f"ridge system of row {blk[k]} singular or overflowing, "
                                   f"condition estimate {np.linalg.cond(G + np.diag(r[k])):.3e}")
        for k in np.flatnonzero(rcond < eps):
            warnings.warn(f"ill-conditioned ridge system of row {blk[k]}, condition estimate "
                          f"{np.linalg.cond(G + np.diag(r[k])):.3e}", scipy.linalg.LinAlgWarning,
                          stacklevel=4)
        U[blk] = V
    return soft_threshold(U, lambda1)


def _kkt_rows(R, D, A, W, ridge, lambda1) -> np.ndarray:
    """Per row, the infinity norm of the optimality-condition violation.

    ``R`` holds each row's residual ``a D^T - x``, ``ridge`` its lambda2 w^2.
    """
    grad = R @ D + ridge * A
    thresh = lambda1 * W
    res = np.where(A != 0, np.abs(grad + thresh * np.sign(A)),
                   np.maximum(0.0, np.abs(grad) - thresh))
    return res.max(axis=1)


def _fista_rows(X, dictionary: Dictionary, W, ridge, lambda1, lmax):
    """Monotone FISTA with restart on every row at once, at ``ridge`` =
    lambda2 w^2 per row; returns (codes, converged, iterations, kkt).

    A row's step is 1 / (``lmax`` + lambda2 max_j w_j^2), with ``lmax`` the
    largest eigenvalue of D^T D; by Weyl's inequality that bound is at
    least the largest eigenvalue of D^T D + lambda2 diag(w)^2.  Each
    iteration takes the proximal-gradient step z from the momentum point
    y and moves the code a to z only when F(z) <= F(a); otherwise y
    restarts at a with no momentum, so F never increases.  F(z) - F(a)
    is summed from the differences z - a and D(z - a), not taken between
    two values of F, so its rounding error shrinks with the step: near
    the optimum the objective, not rounding, decides each restart.  The
    residual ``a D^T - x`` and the momentum point's are updated by those
    differences and the residual is recomputed from the code every
    ``FISTA_KKT_EVERY`` iterations, so rounding does not build up; an
    iteration costs two (N, m) x (m, p) products and no Gram product.
    Every ``FISTA_KKT_EVERY`` iterations and at the ``FISTA_MAX_ITER``
    cap, a row whose KKT residual is at most ``FISTA_KKT_TOL``
    ||D^T x||_inf freezes as converged.
    """
    D = dictionary.matrix
    n, m = W.shape
    lips = lmax + ridge.max(axis=1)
    A = np.zeros((n, m))
    kkt = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    # an all-zero dictionary has nothing to fit: a = 0 is optimal
    converged = lips <= 0
    rows = np.flatnonzero(~converged)
    x, w = X[rows], W[rows]
    step = 1.0 / lips[rows, None]
    thresh = step * lambda1 * w
    w2, ridged = ridge[rows], ridge.any()
    tol = FISTA_KKT_TOL * np.abs(x @ D).max(axis=1)
    a = y = np.zeros((len(rows), m))
    ra = ry = -x
    t = np.ones(len(rows))
    for it in range(1, FISTA_MAX_ITER + 1):
        if not rows.size:
            break
        z = soft_threshold(y - step * (ry @ D + w2 * y), thresh)
        dz = z - a
        dr = dz @ D.T
        rise = (np.einsum("ij,ij->i", dr, ra + 0.5 * dr)
                + lambda1 * np.einsum("ij,ij->i", w, np.abs(z) - np.abs(a)))
        if ridged:
            rise += 0.5 * np.einsum("ij,ij->i", w2 * dz, z + a)
        take = rise <= 0
        t_next = np.where(take, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)), 1.0)
        beta = np.where(take, (t - 1.0) / t_next, 0.0)[:, None]
        if not take.all():
            back = ~take
            z[back], dz[back], dr[back] = a[back], 0.0, 0.0
        a, ra, t = z, ra + dr, t_next
        if it % FISTA_KKT_EVERY == 0 or it == FISTA_MAX_ITER:
            ra = a @ D.T - x
            res = _kkt_rows(ra, D, a, w, w2, lambda1)
            A[rows], kkt[rows], iterations[rows] = a, res, it
            done = res <= tol
            if done.any():
                converged[rows[done]] = True
                keep = ~done
                rows, x, w, step, thresh, w2, tol = (
                    rows[keep], x[keep], w[keep], step[keep], thresh[keep], w2[keep], tol[keep])
                a, ra, t, dz, dr, beta = a[keep], ra[keep], t[keep], dz[keep], dr[keep], beta[keep]
        y, ry = a + beta * dz, ra + beta * dr
    return A, converged, iterations, kkt


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
        self.omega = self.sigma_lower = self._outer = self._spectrum = None
        if self.method == "saco1":
            self.omega, self.sigma_lower = _pseudo_inverse(D)
            return
        # (lambda_min, lambda_max) of D^T D: saco2's conditioning gate and
        # the iterative coder's step
        self._spectrum = np.linalg.eigvalsh(self.dictionary.gram())[[0, -1]]
        if self.method == "saco2" and D.shape[0] < D.shape[1] and self.lambda2 > 0:
            self._outer = _atom_outer(D)

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
        with np.errstate(over="ignore"):
            ridge = self.lambda2 * W * W
        _reject_rows(~np.isfinite(ridge).all(axis=1), "lambda2 * weight^2 is not finite")
        if self.method == "saco2":
            codes = _saco2_rows(X, d.matrix, d.gram(), ridge, self.lambda1, self._outer,
                                self._spectrum)
            return codes, CodingDiagnostics(n)
        A, converged, iterations, kkt = _fista_rows(X, d, W, ridge, self.lambda1,
                                                    self._spectrum[1])
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
