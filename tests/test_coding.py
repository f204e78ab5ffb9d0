"""Sparse-coding solvers against closed forms and an optimality oracle."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import saco.coding as cd
from saco.data import Dictionary, Patch
from saco.errors import InvalidConfigError, InvalidInputError, LinearSolveError


def kkt_violation(x, D, a, w, lam1, lam2=0.0):
    """Independent optimality check for the weighted lasso/elastic objective.

    On the support the subgradient is pinned to -lambda1*w*sign(a); off
    the support the smooth gradient must stay inside [-lambda1*w, ...].
    """
    g = D.T @ (D @ a - x) + lam2 * (w**2) * a
    worst = 0.0
    for i in range(a.size):
        t = lam1 * w[i]
        if a[i] != 0.0:
            worst = max(worst, abs(g[i] + t * np.sign(a[i])))
        else:
            worst = max(worst, abs(g[i]) - t)
    return max(worst, 0.0)


def make_dictionary(seed, p, m, orthonormal=False):
    rng = np.random.default_rng([seed, 77])
    D = rng.normal(size=(p, m))
    if orthonormal:
        D, _ = np.linalg.qr(D)
        D = D[:, :m]
    atoms = [
        Patch(i, D[:, i], tuple(rng.uniform(size=2)), int(i % 3), 0)
        for i in range(m)
    ]
    return Dictionary(atoms)


def test_soft_threshold_frozen():
    u = np.array([0.5, -0.1, 0.2, -0.9])
    np.testing.assert_allclose(
        cd.soft_threshold(u, 0.2), [0.3, 0.0, 0.0, -0.7], atol=1e-15
    )
    # vector thresholds shrink coordinatewise
    np.testing.assert_allclose(
        cd.soft_threshold(u, np.array([0.1, 0.05, 0.3, 1.0])),
        [0.4, -0.05, 0.0, 0.0],
        atol=1e-15,
    )


class TestSaco1:
    def test_identity_dictionary_frozen(self):
        d = Dictionary([Patch(0, [1.0, 0.0], (0.2, 0.2), 0, 0),
                        Patch(1, [0.0, 1.0], (0.8, 0.8), 1, 0)])
        coder = cd.Coder.build(d, lambda1=0.2)
        a = cd.saco1(np.array([0.5, -0.1]), coder, np.ones(2))
        np.testing.assert_allclose(a, [0.3, 0.0], atol=1e-15)
        # per-atom weights scale the threshold
        a = cd.saco1(np.array([0.5, -0.1]), coder, np.array([0.5, 2.0]))
        np.testing.assert_allclose(a, [0.4, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_iterative_solver_orthonormal(self, seed):
        d = make_dictionary(seed, p=12, m=6, orthonormal=True)
        rng = np.random.default_rng([seed, 78])
        x = rng.normal(size=12)
        w = rng.uniform(0.1, 2.0, size=6)
        coder = cd.Coder.build(d, lambda1=0.15)
        direct = cd.saco1(x, coder, w)
        iterative = cd.solve_weighted_l1(x, d, w, 0.15, tol=1e-12, max_iter=5000)
        assert iterative.converged
        np.testing.assert_allclose(direct, iterative.coeffs, atol=1e-9)
        assert kkt_violation(x, d.matrix, direct, w, 0.15) < 1e-9

    def test_rejects_bad_shapes(self):
        d = make_dictionary(0, p=6, m=3)
        coder = cd.Coder.build(d, lambda1=0.1)
        with pytest.raises(InvalidInputError):
            cd.saco1(np.zeros(5), coder, np.ones(3))
        with pytest.raises(InvalidInputError):
            cd.saco1(np.zeros(6), coder, np.ones(4))
        with pytest.raises(InvalidInputError):
            cd.saco1(np.zeros(6), coder, np.array([1.0, -0.5, 1.0]))


class TestSaco2:
    def test_orthonormal_no_ridge_reduces_to_shrinkage(self):
        d = make_dictionary(1, p=10, m=4, orthonormal=True)
        rng = np.random.default_rng(5)
        x = rng.normal(size=10)
        a = cd.saco2(x, d, np.ones(4), lambda1=0.1, lambda2=0.0)
        np.testing.assert_allclose(
            a, cd.soft_threshold(d.matrix.T @ x, 0.1), atol=1e-12
        )

    def test_orthonormal_ridge_closed_form(self):
        d = make_dictionary(2, p=10, m=4, orthonormal=True)
        rng = np.random.default_rng(6)
        x = rng.normal(size=10)
        w = rng.uniform(0.2, 1.5, size=4)
        lam2 = 0.7
        a = cd.saco2(x, d, w, lambda1=0.0, lambda2=lam2)
        np.testing.assert_allclose(
            a, (d.matrix.T @ x) / (1.0 + lam2 * w**2), atol=1e-12
        )

    def test_singular_system_raises(self):
        v = [1.0, 2.0, 0.5]
        d = Dictionary([Patch(0, v, (0.1, 0.1), 0, 0),
                        Patch(1, v, (0.1, 0.1), 1, 0)])
        with pytest.raises(LinearSolveError, match="row 0 .*condition"):
            cd.saco2(np.ones(3), d, np.ones(2), lambda1=0.1, lambda2=0.0)
        # with epsilon = 0 only the query on both atoms has zero weights and
        # a singular system; the error names that row of the batch
        coords = np.array([[0.5, 0.5], [0.9, 0.2], [0.1, 0.1], [0.3, 0.8]])
        enc = cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig(epsilon=0.0))
        with pytest.raises(LinearSolveError, match="row 2 .*condition"):
            enc.encode(np.ones((4, 3)), coords)

    def test_ill_conditioned_row_warning_names_the_row(self):
        # a tiny atom orthogonal to the other: with epsilon = 0 the query on
        # it (row 2) has weight 0 and the diagonal system diag(~1, 1e-18),
        # which Cholesky solves exactly but SciPy's stacked solve reports
        # as "slice 0"
        d = Dictionary([Patch(0, [1.0, 0.0, 0.0], (0.9, 0.9), 0, 0),
                        Patch(1, [0.0, 1e-9, 0.0], (0.1, 0.1), 1, 0)])
        coords = np.array([[0.5, 0.5], [0.9, 0.2], [0.1, 0.1], [0.3, 0.8]])
        enc = cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig(epsilon=0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes, _ = enc.encode(np.ones((4, 3)), coords)
        assert [w.category for w in caught] == [scipy.linalg.LinAlgWarning]
        assert str(caught[0].message).startswith(
            "ill-conditioned ridge system of row 2, condition estimate")
        assert caught[0].filename == __file__
        assert np.isfinite(codes).all()
        # well-conditioned rows warn nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enc.encode(np.ones((3, 3)), coords[[0, 1, 3]])

    def test_rejects_negative_penalties(self):
        d = make_dictionary(3, p=6, m=3)
        with pytest.raises(InvalidInputError):
            cd.saco2(np.zeros(6), d, np.ones(3), lambda1=-0.1, lambda2=0.0)


class TestIterativeSolvers:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("lam2", [0.0, 0.3])
    def test_satisfies_optimality_conditions(self, seed, lam2):
        d = make_dictionary(seed + 50, p=9, m=7)
        rng = np.random.default_rng([seed, 79])
        x = rng.normal(size=9)
        w = rng.uniform(0.1, 2.0, size=7)
        res = cd.solve_weighted_l2_l1(x, d, w, 0.2, lam2, tol=1e-12, max_iter=20000)
        assert res.converged
        assert kkt_violation(x, d.matrix, res.coeffs, w, 0.2, lam2) < 1e-6
        assert res.kkt_residual == pytest.approx(
            kkt_violation(x, d.matrix, res.coeffs, w, 0.2, lam2), abs=1e-12
        )

    def test_objective_never_increases(self):
        d = make_dictionary(4, p=8, m=5)
        rng = np.random.default_rng(7)
        x = rng.normal(size=8)
        res = cd.solve_weighted_l1(x, d, np.ones(5), 0.3, tol=1e-10, max_iter=2000)
        assert res.converged and res.iterations > 10
        # ISTA is deterministic from a zero start, so a run capped at k
        # iterations stops at the k-th iterate of the full run; check the
        # zero start, the first 150 iterates and the last
        capped = [cd.solve_weighted_l1(x, d, np.ones(5), 0.3, tol=1e-10, max_iter=k)
                  for k in [*range(1, 151), res.iterations]]
        hist = [0.5 * x @ x] + [r.objective for r in capped]
        assert np.all(np.diff(hist) <= 1e-12)
        np.testing.assert_array_equal(capped[-1].coeffs, res.coeffs)

    def test_zero_penalty_reaches_least_squares(self):
        d = make_dictionary(5, p=8, m=4)
        rng = np.random.default_rng(8)
        target = d.matrix @ rng.normal(size=4)
        res = cd.solve_weighted_l1(target, d, np.ones(4), 0.0, tol=1e-12, max_iter=20000)
        assert np.linalg.norm(target - d.matrix @ res.coeffs) < 1e-6

    def test_huge_penalty_gives_zero_code(self):
        d = make_dictionary(6, p=8, m=4)
        rng = np.random.default_rng(9)
        res = cd.solve_weighted_l1(rng.normal(size=8), d, np.ones(4), 1e6)
        np.testing.assert_array_equal(res.coeffs, np.zeros(4))
        assert res.converged

    def test_rejects_bad_settings(self):
        d = make_dictionary(7, p=6, m=3)
        with pytest.raises(InvalidInputError):
            cd.solve_weighted_l1(np.zeros(6), d, np.ones(3), 0.1, tol=0.0)
        with pytest.raises(InvalidInputError):
            cd.solve_weighted_l1(np.zeros(6), d, np.ones(3), 0.1, max_iter=0)


class TestCoderBuild:
    def test_pseudo_inverse_identity(self):
        d = make_dictionary(10, p=9, m=5)
        coder = cd.Coder.build(d, lambda1=0.1)
        np.testing.assert_allclose(coder.omega @ d.matrix, np.eye(5), atol=1e-10)

    def test_overcomplete_rejected(self):
        d = make_dictionary(11, p=3, m=5)
        with pytest.raises(InvalidInputError, match="under-complete"):
            cd.Coder.build(d, lambda1=0.1)

    def test_ill_conditioned_warns(self):
        base = np.array([1.0, 0.0, 0.0])
        nearly = base + np.array([0.0, 1e-7, 0.0])
        d = Dictionary([Patch(0, base, (0.1, 0.1), 0, 0),
                        Patch(1, nearly, (0.9, 0.9), 1, 0)])
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            cd.Coder.build(d, lambda1=0.1)

    def test_rank_deficient_rejected(self):
        d = Dictionary([Patch(0, [0.0, 0.0], (0.1, 0.1), 0, 0),
                        Patch(1, [1.0, 0.0], (0.9, 0.9), 1, 0)])
        with pytest.raises(LinearSolveError):
            cd.Coder.build(d, lambda1=0.1)

    def test_negative_penalty_rejected(self):
        d = make_dictionary(12, p=6, m=3)
        with pytest.raises(InvalidInputError):
            cd.Coder.build(d, lambda1=-0.5)


class TestBoundCheck:
    def test_square_orthonormal_is_tight(self):
        d = make_dictionary(13, p=4, m=4, orthonormal=True)
        coder = cd.Coder.build(d, lambda1=0.1)
        rng = np.random.default_rng(10)
        x = rng.normal(size=4)
        a = rng.normal(size=4)
        lhs, rhs = cd.bound_check(x, a, coder)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert lhs == pytest.approx(np.linalg.norm(x - d.matrix @ a), rel=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_lower_bound_holds(self, seed):
        d = make_dictionary(seed + 80, p=9, m=5)
        coder = cd.Coder.build(d, lambda1=0.1)
        rng = np.random.default_rng([seed, 81])
        lhs, rhs = cd.bound_check(rng.normal(size=9), rng.normal(size=5), coder)
        assert lhs >= rhs - 1e-12
        # tall dictionaries annihilate part of the residual
        assert rhs == 0.0


class TestSpatialWeights:
    def test_linear_kernel_frozen(self):
        d = Dictionary([Patch(0, [1.0], (0.0, 0.0), 0, 0),
                        Patch(1, [2.0], (0.0, 1.0), 0, 0)])
        cfg = cd.SpatialWeightConfig(kernel="linear", epsilon=0.1, scale=0.5)
        w = cd.spatial_weights((0.0, 0.0), d, cfg)
        np.testing.assert_allclose(w, [0.1, 0.1 + 1.0 / 0.5], atol=1e-15)

    def test_gaussian_kernel_frozen(self):
        d = Dictionary([Patch(0, [1.0], (0.0, 0.0), 0, 0),
                        Patch(1, [2.0], (0.0, 1.0), 0, 0)])
        cfg = cd.SpatialWeightConfig(kernel="one-minus-gaussian", epsilon=0.0, scale=0.5)
        w = cd.spatial_weights((0.0, 0.0), d, cfg)
        np.testing.assert_allclose(w, [0.0, 1.0 - np.exp(-2.0)], atol=1e-15)

    def test_weight_grows_with_distance(self):
        d = make_dictionary(14, p=4, m=6)
        for kernel in ("linear", "one-minus-gaussian"):
            cfg = cd.SpatialWeightConfig(kernel=kernel, epsilon=0.05, scale=0.4)
            w_near = cd.spatial_weights(tuple(d.atom_coords[0]), d, cfg)
            w_far = cd.spatial_weights((-5.0, -5.0), d, cfg)
            assert w_near[0] == pytest.approx(0.05)
            assert np.all(w_far >= w_near)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            cd.SpatialWeightConfig(kernel="cubic")
        with pytest.raises(InvalidConfigError):
            cd.SpatialWeightConfig(scale=0.0)
        with pytest.raises(InvalidConfigError):
            cd.SpatialWeightConfig(epsilon=-0.1)

    def test_query_shape_checked(self):
        d = make_dictionary(15, p=4, m=3)
        with pytest.raises(InvalidInputError):
            cd.spatial_weights((0.1, 0.2, 0.3), d, cd.SpatialWeightConfig())


class TestDenseCoding:
    def test_grid_weights_match_cell_centers(self):
        d = make_dictionary(16, p=4, m=5)
        cfg = cd.SpatialWeightConfig(kernel="one-minus-gaussian", epsilon=0.1, scale=0.3)
        grid = cd.grid_weights(d, cfg, n_rows=2, n_cols=3)
        assert grid.shape == (2, 3, 5)
        for r in range(2):
            for c in range(3):
                center = ((c + 0.5) / 3, (r + 0.5) / 2)
                np.testing.assert_array_equal(
                    grid[r, c], cd.spatial_weights(center, d, cfg)
                )

    def test_grid_must_be_nonempty(self):
        d = make_dictionary(17, p=4, m=3)
        with pytest.raises(InvalidInputError):
            cd.grid_weights(d, cd.SpatialWeightConfig(), 0, 3)

    def test_dense_matches_per_cell_exactly(self):
        d = make_dictionary(18, p=6, m=4, orthonormal=True)
        coder = cd.Coder.build(d, lambda1=0.2)
        cfg = cd.SpatialWeightConfig(kernel="linear", epsilon=0.1, scale=0.5)
        rng = np.random.default_rng(11)
        fmap = rng.normal(size=(3, 4, 6))
        wf = cd.grid_weights(d, cfg, 3, 4)
        dense = cd.dense_saco1(fmap, coder, wf)
        assert dense.shape == (3, 4, 4)
        for r in range(3):
            for c in range(4):
                np.testing.assert_array_equal(
                    dense[r, c], cd.saco1(fmap[r, c], coder, wf[r, c])
                )

    def test_dense_shape_validation(self):
        d = make_dictionary(19, p=6, m=4)
        coder = cd.Coder.build(d, lambda1=0.2)
        wf = np.ones((3, 4, 4))
        with pytest.raises(InvalidInputError):
            cd.dense_saco1(np.zeros((3, 4)), coder, wf)
        with pytest.raises(InvalidInputError):
            cd.dense_saco1(np.zeros((3, 4, 5)), coder, wf)
        with pytest.raises(InvalidInputError):
            cd.dense_saco1(np.zeros((3, 4, 6)), coder, np.ones((3, 3, 4)))
        with pytest.raises(InvalidInputError):
            cd.dense_saco1(np.zeros((3, 4, 6)), coder, -wf)


def ridge_reference(X, d, W, lam1, lam2):
    """saco2 one row at a time through the m x m Cholesky solve."""
    import scipy.linalg

    return np.array([
        cd.soft_threshold(
            scipy.linalg.solve(d.gram() + lam2 * np.diag(w * w), d.matrix.T @ x,
                               assume_a="pos"),
            lam1,
        )
        for x, w in zip(X, W)
    ])


def batch_problem(seed, p=8, m=20, n=30):
    """A dictionary (over-complete at the default p < m) with n located queries."""
    d = make_dictionary(seed, p=p, m=m)
    rng = np.random.default_rng([seed, 82])
    return d, rng.normal(size=(n, p)), rng.uniform(size=(n, 2))


class TestEncoder:
    @pytest.mark.parametrize("seed, p, m", [
        *(pytest.param(s, 8, 20, id=str(s)) for s in range(4)),
        # p >= m: every row takes the stacked m x m Cholesky path
        *(pytest.param(s, 24, 12, id=f"p>=m-{s}") for s in range(2)),
    ])
    def test_push_through_matches_cholesky_reference(self, seed, p, m):
        d, X, coords = batch_problem(seed, p=p, m=m)
        # epsilon = 0 and a query on atom 3: that row has a zero weight and
        # takes the Cholesky path, the others (when p < m) the p x p
        # push-through
        coords[5] = d.atom_coords[3]
        cfg = cd.SpatialWeightConfig(kernel="linear", epsilon=0.0, scale=0.5)
        W = np.array([cd.spatial_weights(c, d, cfg) for c in coords])
        assert W[5, 3] == 0.0 and np.all(np.delete(W, 5, axis=0) > 0)
        codes, diag = cd.Encoder(d, "saco2", 0.05, 0.7, cfg).encode(X, coords)
        ref = ridge_reference(X, d, W, 0.05, 0.7)
        np.testing.assert_allclose(codes, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert (diag.rows, diag.unconverged, diag.max_iterations) == (30, 0, 0)
        # the one-row function runs the same kernel
        np.testing.assert_allclose(cd.saco2(X[0], d, W[0], 0.05, 0.7), ref[0],
                                   rtol=1e-12, atol=1e-12 * np.abs(ref[0]).max())

    @pytest.mark.parametrize("method", ["saco1", "saco2", "iterative"])
    def test_batch_slicing_does_not_change_codes(self, method):
        # saco1 needs p >= m; the push-through needs p < m
        p, m = (12, 6) if method == "saco1" else (8, 20)
        d, X, coords = batch_problem(5, p=p, m=m, n=29)
        enc = cd.Encoder(d, method, 0.1, 0.5, cd.SpatialWeightConfig(), tol=1e-12,
                         max_iter=20000)
        whole, _ = enc.encode(X, coords)
        for size in (1, 7):
            parts = np.vstack([enc.encode(X[i:i + size], coords[i:i + size])[0]
                               for i in range(0, len(X), size)])
            if method == "saco1":
                np.testing.assert_array_equal(parts, whole)
            else:
                np.testing.assert_allclose(parts, whole, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam2", [0.0, 0.4])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_batched_ista_matches_one_row_solver(self, lam2, weighted):
        d, X, coords = batch_problem(6, p=8, m=12, n=17)
        cfg = cd.SpatialWeightConfig(epsilon=0.2) if weighted else None
        codes, diag = cd.Encoder(d, "iterative", 0.2, lam2, cfg, tol=1e-12,
                                 max_iter=20000).encode(X, coords)
        W = np.array([cd.spatial_weights(c, d, cfg) for c in coords]) if weighted \
            else np.ones((17, 12))
        rows = [cd.solve_weighted_l2_l1(x, d, w, 0.2, lam2, tol=1e-12, max_iter=20000)
                for x, w in zip(X, W)]
        np.testing.assert_allclose(codes, [r.coeffs for r in rows], rtol=0, atol=1e-10)
        assert diag.unconverged == 0
        assert diag.max_iterations == max(r.iterations for r in rows)
        assert diag.worst_kkt == pytest.approx(max(r.kkt_residual for r in rows), abs=1e-12)

    def test_max_iter_one_reports_every_row_unconverged(self):
        d, X, coords = batch_problem(7)
        codes, diag = cd.Encoder(d, "iterative", 0.01, 1.0, cd.SpatialWeightConfig(),
                                 max_iter=1).encode(X, coords)
        assert (diag.rows, diag.unconverged, diag.max_iterations) == (30, 30, 1)
        assert diag.worst_kkt > 0
        total = cd.CodingDiagnostics()
        total.add(diag)
        total.add(cd.CodingDiagnostics(5))
        assert (total.rows, total.unconverged, total.max_iterations) == (35, 30, 1)
        assert total.worst_kkt == diag.worst_kkt

    def test_rejects_bad_batches(self):
        d, X, coords = batch_problem(8)
        enc = cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig())
        with pytest.raises(InvalidInputError, match="feature dim"):
            enc.encode(X[:, :5], coords)
        with pytest.raises(InvalidInputError, match="coords"):
            enc.encode(X, coords[:4])
        X[3, 2] = np.nan
        with pytest.raises(InvalidInputError, match="row 3"):
            enc.encode(X, coords)
        with pytest.raises(InvalidConfigError):
            cd.Encoder(d, "fista")
        with pytest.raises(InvalidInputError):
            cd.Encoder(d, "iterative", max_iter=0)
        # saco1 builds Omega, so over-complete dictionaries fail at build time
        with pytest.raises(InvalidInputError, match="under-complete"):
            cd.Encoder(d, "saco1")
