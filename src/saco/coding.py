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
saco1 code does not depend on how rows are batched.  saco2 walks its
rows by ``data.blocks``, p(p+1)/2 or m(m+1)/2 doubles a packed row.

Every public entry checks its arrays in ``_rows`` by ``data.finite_array``,
which names the first bad row; weights must also be >= 0.  Scalars go
through ``data.check_scalar``, so NaN and inf fail: lambda1 and lambda2
finite and >= 0.  saco2 and the iterative
coder also need every lambda2 w_j^2 finite, checked in ``Encoder._code``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dlamch, dppcon, dppsv, dpptrf

from .data import Dictionary, blocks, check_scalar, finite_array, read_only, reject_rows
from .errors import InvalidConfigError, InvalidInputError, LinearSolveError

CONDITION_WARN_THRESHOLD = 1e8

WEIGHT_KERNELS = ("linear", "one-minus-gaussian")

CODERS = ("saco1", "saco2", "iterative")

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
        check_scalar("weight_scale", self.scale, positive=True, error=InvalidConfigError)
        check_scalar("weight_epsilon", self.epsilon, error=InvalidConfigError)


def _weight_rows(coords, atom_coords, config: SpatialWeightConfig) -> np.ndarray:
    """(N, m) read-only weights from each of N query locations to each atom location."""
    # the Euclidean norm over (dx, dy), summed as np.linalg.norm sums it
    dx = atom_coords[None, :, 0] - coords[:, None, 0]
    dy = atom_coords[None, :, 1] - coords[:, None, 1]
    d = np.sqrt(dx * dx + dy * dy)
    if config.kernel == "linear":
        return read_only(config.epsilon + d / config.scale)
    return read_only(config.epsilon + 1.0 - np.exp(-(d * d) / (2.0 * config.scale * config.scale)))


def _rows(d: Dictionary, X=None, W=None, coords=None):
    """The one input check of every public entry: float64 (X, coords, W).

    Each given array holds N rows, checked by ``data.finite_array``: features
    X (N, p), locations coords (N, 2), weights W (N, m), weights also >= 0.
    """
    n, rows = None, []
    for name, a, width in (("features", X, d.feature_dim), ("coords", coords, 2),
                           ("weights", W, d.n_atoms)):
        if a is not None:
            a = finite_array(name, a, (n, width))
            n = len(a)
        rows.append(a)
    X, coords, W = rows
    if W is not None:
        reject_rows(~(W >= 0).all(axis=1), "weights must be >= 0")
    return X, coords, W


def spatial_weights(coords, dictionary: Dictionary, config: SpatialWeightConfig) -> np.ndarray:
    """(N, m) atom weights from each of (N, 2) query locations' distance to each atom."""
    return _weight_rows(_rows(dictionary, coords=coords)[1], dictionary.atom_coords, config)


def soft_threshold(u, thresh):
    """Elementwise shrinkage: sign(u) * max(0, |u| - thresh)."""
    return np.sign(u) * np.maximum(0.0, np.abs(u) - thresh)


def _pseudo_inverse(D):
    """Omega = (D^T D)^-1 D^T via QR (no explicit inverse), read-only, and its smallest
    singular value.

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
    return read_only(omega), sigma_lower


def _saco1_rows(X, omega, lambda1, W) -> np.ndarray:
    # unoptimized einsum reduces every (row, atom) pair in the same order
    # whatever the batch size, unlike a BLAS product, so a row's code does
    # not depend on the rows batched with it
    u = np.einsum("np,mp->nm", X, omega)
    return soft_threshold(u, lambda1 * W)


def _atom_outer(D) -> np.ndarray:
    """(m, p(p+1)/2) packed outer products d_j d_j^T.

    Row j is the lower triangle of d_j d_j^T in ``np.tril_indices`` order,
    which is LAPACK's upper-packed storage of that symmetric matrix, so
    ``s @ outer`` is D diag(s) D^T packed for ``dppsv``.
    """
    lo, hi = np.tril_indices(D.shape[0])
    return np.ascontiguousarray((D[lo] * D[hi]).T)


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
    fast = np.flatnonzero(~slow)
    for blk in (fast[s] for s in blocks(fast.size, p * (p + 1) // 2)):
        with np.errstate(over="ignore", invalid="ignore"):
            K = inv[blk] @ outer
            K[:, k_diag] += 1.0
            v = X[blk]
            ok = _cholesky_rows(K, v, p)
            U[blk] = inv[blk] * (v @ D)
        slow[blk] = ~ok | ~np.isfinite(U[blk]).all(axis=1)
    if not slow.any():
        return soft_threshold(U, lambda1)
    # the other rows solve D^T D + diag(ridge), packed the same way
    g_packed = G[np.tril_indices(m)]
    a_diag = np.arange(m) * (np.arange(m) + 3) // 2
    lmin, lmax = spectrum
    eps = dlamch("E")
    rows = np.flatnonzero(slow)
    for blk in (rows[s] for s in blocks(rows.size, m * (m + 1) // 2)):
        r = ridge[blk]
        A = np.repeat(g_packed[None], len(blk), axis=0)
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

    ``R`` holds each row's residual ``a D^T - x``, ``ridge`` its lambda2 w^2
    or None for zero.
    """
    grad = R @ D if ridge is None else R @ D + ridge * A
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

    An iteration makes 12 elementwise passes over (N, m) arrays and 6 over
    (N, p) ones besides its products; a ridge adds 5, skipped at lambda2 =
    0.  |z| is read from the threshold and |a| carried, and every pass
    writes by ``out=`` into per-batch workspaces (first rows: the unfrozen
    ones) in the plain update's order, so no bit of a code changes.
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
    # a, |a|, y, dz and the workspaces u, z, |z|, s over atoms; the residuals
    # ra = a D^T - x and ry, dr = dz D^T and the workspace rs over features
    a, absa, y, dz, u, z, absz, s = np.zeros((8, len(rows), m))
    ra, ry, dr, rs = np.empty((4, len(rows), D.shape[0]))
    ra[:] = ry[:] = -x
    t = np.ones(len(rows))
    for it in range(1, FISTA_MAX_ITER + 1):
        if not rows.size:
            break
        # z = soft_threshold(y - step (ry D + w2 y), thresh), absz = |z|
        np.matmul(ry, D, out=u)
        if ridged:
            u += np.multiply(w2, y, out=s)
        np.subtract(y, np.multiply(u, step, out=u), out=u)
        np.maximum(0.0, np.subtract(np.abs(u, out=absz), thresh, out=absz), out=absz)
        np.multiply(np.sign(u, out=z), absz, out=z)
        np.matmul(np.subtract(z, a, out=dz), D.T, out=dr)
        np.add(ra, np.multiply(dr, 0.5, out=rs), out=rs)
        rise = (np.einsum("ij,ij->i", dr, rs)
                + lambda1 * np.einsum("ij,ij->i", w, np.subtract(absz, absa, out=s)))
        if ridged:
            rise += 0.5 * np.einsum("ij,ij->i", np.multiply(w2, dz, out=s),
                                    np.add(z, a, out=u))
        take = rise <= 0
        t_next = np.where(take, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)), 1.0)
        beta = np.where(take, (t - 1.0) / t_next, 0.0)[:, None]
        if not take.all():
            back = ~take
            z[back], absz[back], dz[back], dr[back] = a[back], absa[back], 0.0, 0.0
        a, z, absa, absz, t = z, a, absz, absa, t_next
        ra += dr
        if it % FISTA_KKT_EVERY == 0 or it == FISTA_MAX_ITER:
            np.subtract(np.matmul(a, D.T, out=ra), x, out=ra)
            res = _kkt_rows(ra, D, a, w, w2 if ridged else None, lambda1)
            A[rows], kkt[rows], iterations[rows] = a, res, it
            done = res <= tol
            if done.any():
                converged[rows[done]] = True
                keep, k = ~done, int((~done).sum())
                rows, x, w, step, thresh, w2, tol, t, beta = (
                    v[keep] for v in (rows, x, w, step, thresh, w2, tol, t, beta))
                for v in (a, absa, dz, ra, dr):
                    v[:k] = v[keep]
                a, absa, y, dz, u, z, absz, s, ra, ry, dr, rs = (
                    v[:k] for v in (a, absa, y, dz, u, z, absz, s, ra, ry, dr, rs))
        np.add(a, np.multiply(dz, beta, out=y), out=y)
        np.add(ra, np.multiply(dr, beta, out=ry), out=ry)
    return A, converged, iterations, kkt


@dataclass
class CodingDiagnostics:
    """Convergence summary of coded rows, summed over batches with ``add``.

    Only the iterative coder iterates: the closed-form coders report
    zero iterations, no unconverged rows and a KKT residual of 0.0 (not
    measured; their codes are exact for their own objectives).
    ``row_iterations`` sums each row's iterations, the work done.
    """

    rows: int = 0
    unconverged: int = 0
    max_iterations: int = 0
    worst_kkt: float = 0.0
    row_iterations: int = 0

    def add(self, other: "CodingDiagnostics") -> None:
        self.rows += other.rows
        self.unconverged += other.unconverged
        self.max_iterations = max(self.max_iterations, other.max_iterations)
        self.row_iterations += other.row_iterations
        self.worst_kkt = max(self.worst_kkt, other.worst_kkt)


@dataclass(frozen=True)
class Encoder:
    """Codes batches of patch features against one dictionary.

    ``weights`` of None gives every atom weight 1, and ``encode`` then
    needs no locations.  A saco1 encoder holds ``omega`` (the
    pseudo-inverse, read-only) and ``sigma_lower`` (its smallest singular
    value on R^p, see ``bound_check``); it needs an under-complete, full-rank
    dictionary.  An encoder is frozen, so what it derives from its fields
    is derived once, when it is built.
    """

    dictionary: Dictionary
    method: str = "saco2"
    lambda1: float = 0.1
    lambda2: float = 1.0
    weights: SpatialWeightConfig | None = None

    def __post_init__(self):
        if self.method not in CODERS:
            raise InvalidConfigError(f"unknown coder '{self.method}'")
        for name in ("lambda1", "lambda2"):
            check_scalar(name, getattr(self, name))
        D = self.dictionary.matrix
        omega = sigma_lower = outer = spectrum = None
        if self.method == "saco1":
            omega, sigma_lower = _pseudo_inverse(D)
        else:
            # (lambda_min, lambda_max) of D^T D: saco2's conditioning gate and
            # the iterative coder's step
            spectrum = np.linalg.eigvalsh(self.dictionary.gram())[[0, -1]]
            if self.method == "saco2" and D.shape[0] < D.shape[1] and self.lambda2 > 0:
                outer = _atom_outer(D)
        vars(self).update(omega=omega, sigma_lower=sigma_lower, _outer=outer, _spectrum=spectrum)

    def code(self, X, W=None):
        """Code an (N, p) batch at explicit (N, m) weights, all ones for None.

        Returns ``(codes, diagnostics)``.
        """
        X, _, W = _rows(self.dictionary, X, W)
        return self._code(X, W)

    def encode(self, X, coords=None):
        """``code`` an (N, p) batch at the ``weights`` of its (N, 2) ``coords``."""
        d = self.dictionary
        X, coords, _ = _rows(d, X, coords=coords)
        if self.weights is None:
            return self._code(X)
        if coords is None:
            raise InvalidInputError("coords are required: the encoder weighs atoms by location")
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
        reject_rows(~np.isfinite(ridge).all(axis=1), "lambda2 * weight^2 is not finite")
        if self.method == "saco2":
            codes = _saco2_rows(X, d.matrix, d.gram(), ridge, self.lambda1, self._outer,
                                self._spectrum)
            return codes, CodingDiagnostics(n)
        A, converged, iterations, kkt = _fista_rows(X, d, W, ridge, self.lambda1,
                                                    self._spectrum[1])
        return A, CodingDiagnostics(n, int((~converged).sum()), int(iterations.max()),
                                    float(kkt.max()), int(iterations.sum()))


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
    a = finite_array("code", a, (d.n_atoms,))
    r = x - d.matrix @ a
    lhs = float(np.linalg.norm(encoder.omega @ r))
    rhs = float(encoder.sigma_lower * np.linalg.norm(r))
    return lhs, rhs
