"""Sparse-coding solvers against closed forms and an optimality oracle."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg

import saco.coding as cd
import saco.data
from saco.data import Dictionary, Patch
from saco.errors import InvalidConfigError, InvalidInputError, LinearSolveError


def objective(x, D, a, w, lam1, lam2=0.0):
    """0.5||x - Da||^2 + 0.5 lam2 ||diag(w) a||^2 + lam1 ||diag(w) a||_1."""
    r = x - D @ a
    wa = w * a
    return 0.5 * r @ r + 0.5 * lam2 * wa @ wa + lam1 * np.abs(wa).sum()


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


@pytest.fixture
def tight_ista(monkeypatch):
    """The iterative coder stops at a KKT residual of 1e-12 ||D^T x||_inf,
    within 20000 iterations."""
    monkeypatch.setattr(cd, "FISTA_KKT_TOL", 1e-12)
    monkeypatch.setattr(cd, "FISTA_MAX_ITER", 20000)


def code_one(encoder, x, w=None):
    """One patch coded as a 1-row batch: (code, diagnostics)."""
    codes, diag = encoder.code([x], None if w is None else [w])
    return codes[0], diag


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
        coder = cd.Encoder(d, "saco1", 0.2)
        a, _ = code_one(coder, np.array([0.5, -0.1]), np.ones(2))
        np.testing.assert_allclose(a, [0.3, 0.0], atol=1e-15)
        # per-atom weights scale the threshold
        a, _ = code_one(coder, np.array([0.5, -0.1]), np.array([0.5, 2.0]))
        np.testing.assert_allclose(a, [0.4, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_iterative_solver_orthonormal(self, seed, monkeypatch):
        monkeypatch.setattr(cd, "FISTA_KKT_TOL", 1e-12)
        monkeypatch.setattr(cd, "FISTA_MAX_ITER", 5000)
        d = make_dictionary(seed, p=12, m=6, orthonormal=True)
        rng = np.random.default_rng([seed, 78])
        x = rng.normal(size=12)
        w = rng.uniform(0.1, 2.0, size=6)
        direct, _ = code_one(cd.Encoder(d, "saco1", 0.15), x, w)
        iterative, diag = code_one(cd.Encoder(d, "iterative", 0.15, 0.0), x, w)
        assert diag.unconverged == 0
        np.testing.assert_allclose(direct, iterative, atol=1e-9)
        assert kkt_violation(x, d.matrix, direct, w, 0.15) < 1e-9

    def test_rejects_bad_shapes(self):
        d = make_dictionary(0, p=6, m=3)
        coder = cd.Encoder(d, "saco1", 0.1)
        with pytest.raises(InvalidInputError):
            code_one(coder, np.zeros(5), np.ones(3))
        with pytest.raises(InvalidInputError):
            code_one(coder, np.zeros(6), np.ones(4))
        with pytest.raises(InvalidInputError):
            code_one(coder, np.zeros(6), np.array([1.0, -0.5, 1.0]))


class TestSaco2:
    def test_orthonormal_no_ridge_reduces_to_shrinkage(self):
        d = make_dictionary(1, p=10, m=4, orthonormal=True)
        rng = np.random.default_rng(5)
        x = rng.normal(size=10)
        a, _ = code_one(cd.Encoder(d, "saco2", 0.1, 0.0), x, np.ones(4))
        np.testing.assert_allclose(
            a, cd.soft_threshold(d.matrix.T @ x, 0.1), atol=1e-12
        )

    def test_orthonormal_ridge_closed_form(self):
        d = make_dictionary(2, p=10, m=4, orthonormal=True)
        rng = np.random.default_rng(6)
        x = rng.normal(size=10)
        w = rng.uniform(0.2, 1.5, size=4)
        lam2 = 0.7
        a, _ = code_one(cd.Encoder(d, "saco2", 0.0, lam2), x, w)
        np.testing.assert_allclose(
            a, (d.matrix.T @ x) / (1.0 + lam2 * w**2), atol=1e-12
        )

    def test_singular_system_raises(self):
        v = [1.0, 2.0, 0.5]
        d = Dictionary([Patch(0, v, (0.1, 0.1), 0, 0),
                        Patch(1, v, (0.1, 0.1), 1, 0)])
        with pytest.raises(LinearSolveError, match="row 0 .*condition"):
            code_one(cd.Encoder(d, "saco2", 0.1, 0.0), np.ones(3), np.ones(2))
        # with epsilon = 0 only the query on both atoms has zero weights and
        # a singular system; the error names that row of the batch
        coords = np.array([[0.5, 0.5], [0.9, 0.2], [0.1, 0.1], [0.3, 0.8]])
        enc = cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig(epsilon=0.0))
        with pytest.raises(LinearSolveError, match="row 2 .*condition"):
            enc.encode(np.ones((4, 3)), coords)

    def test_ill_conditioned_row_warning_names_the_row(self):
        # a tiny atom orthogonal to the other: with epsilon = 0 the query on
        # it (row 2) has weight 0 and the diagonal system diag(~1, 1e-18),
        # which Cholesky solves exactly and dppcon reports at rcond ~1e-19
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

    def test_every_ill_conditioned_row_warns_naming_it(self):
        # the tiny atom of the test above, queried at rows 1 and 3 of one block
        d = Dictionary([Patch(0, [1.0, 0.0, 0.0], (0.9, 0.9), 0, 0),
                        Patch(1, [0.0, 1e-9, 0.0], (0.1, 0.1), 1, 0)])
        coords = np.array([[0.5, 0.5], [0.1, 0.1], [0.9, 0.2], [0.1, 0.1]])
        enc = cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig(epsilon=0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            enc.encode(np.ones((4, 3)), coords)
        assert [w.category for w in caught] == [scipy.linalg.LinAlgWarning] * 2
        assert [str(w.message).split(",")[0] for w in caught] == [
            "ill-conditioned ridge system of row 1", "ill-conditioned ridge system of row 3"]

    def test_conditioning_gate_skips_only_rows_dppcon_would_pass(self, monkeypatch):
        # nearly singular dictionaries and tiny ridges put rows on both sides
        # of the Weyl bound; every row it clears must have rcond >= eps
        checked = []

        def spy(n, ap, *args, **kwargs):
            checked.append(n)
            return scipy.linalg.lapack.dpptrf(n, ap, *args, **kwargs)

        monkeypatch.setattr(cd, "dpptrf", spy)
        eps = scipy.linalg.lapack.dlamch("E")
        p, m = 8, 6
        lo, hi = np.tril_indices(m)
        cleared = gated = 0
        for seed in range(4):
            rng = np.random.default_rng([seed, 5])
            u, _ = np.linalg.qr(rng.normal(size=(p, m)))
            v, _ = np.linalg.qr(rng.normal(size=(m, m)))
            D = u @ np.diag(np.logspace(0, -rng.uniform(6, 9), m)) @ v.T
            d = Dictionary([Patch(i, D[:, i], (0.5, 0.5), 0, 0) for i in range(m)])
            for lam2 in np.logspace(-17, -12, 6):
                enc = cd.Encoder(d, "saco2", 0.0, lam2)
                for w in rng.uniform(0.5, 2.0, size=(10, m)):
                    checked.clear()
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                        try:
                            code_one(enc, rng.normal(size=p), w)
                        except LinearSolveError:
                            assert checked, "a row the bound cleared failed"
                    if checked:
                        gated += 1
                        continue
                    cleared += 1
                    A = d.gram() + np.diag(lam2 * w * w)
                    factor, info = scipy.linalg.lapack.dpptrf(m, A[lo, hi])
                    rcond, _ = scipy.linalg.lapack.dppcon(m, factor, np.abs(A).sum(axis=0).max())
                    assert info == 0 and rcond >= eps
        assert cleared > 50 and gated > 50

    def test_rejects_negative_penalties(self):
        d = make_dictionary(3, p=6, m=3)
        with pytest.raises(InvalidInputError):
            cd.Encoder(d, "saco2", -0.1, 0.0)


class TestIterativeSolvers:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("lam2", [0.0, 0.3])
    def test_satisfies_optimality_conditions(self, seed, lam2, tight_ista):
        d = make_dictionary(seed + 50, p=9, m=7)
        rng = np.random.default_rng([seed, 79])
        x = rng.normal(size=9)
        w = rng.uniform(0.1, 2.0, size=7)
        a, diag = code_one(cd.Encoder(d, "iterative", 0.2, lam2), x, w)
        assert diag.unconverged == 0
        assert kkt_violation(x, d.matrix, a, w, 0.2, lam2) < 1e-6
        assert diag.worst_kkt == pytest.approx(
            kkt_violation(x, d.matrix, a, w, 0.2, lam2), abs=1e-12
        )

    def test_objective_never_increases(self, monkeypatch):
        d = make_dictionary(4, p=8, m=5)
        rng = np.random.default_rng(7)
        x = rng.normal(size=8)
        w = np.ones(5)
        enc = cd.Encoder(d, "iterative", 0.3, 0.0)
        monkeypatch.setattr(cd, "FISTA_KKT_TOL", 1e-10)
        monkeypatch.setattr(cd, "FISTA_MAX_ITER", 2000)
        a, diag = code_one(enc, x, w)
        assert diag.unconverged == 0 and diag.max_iterations > 10
        # FISTA is deterministic from a zero start, so a run capped at k
        # iterations stops at the k-th iterate of the full run; check the
        # zero start, the first 150 iterates and the last
        capped = []
        for k in [*range(1, 151), diag.max_iterations]:
            monkeypatch.setattr(cd, "FISTA_MAX_ITER", k)
            capped.append(code_one(enc, x, w)[0])
        hist = [0.5 * x @ x] + [objective(x, d.matrix, c, w, 0.3) for c in capped]
        assert np.all(np.diff(hist) <= 1e-12)
        np.testing.assert_array_equal(capped[-1], a)

    def test_zero_penalty_reaches_least_squares(self, tight_ista):
        d = make_dictionary(5, p=8, m=4)
        rng = np.random.default_rng(8)
        target = d.matrix @ rng.normal(size=4)
        a, _ = code_one(cd.Encoder(d, "iterative", 0.0, 0.0), target, np.ones(4))
        assert np.linalg.norm(target - d.matrix @ a) < 1e-6

    def test_huge_penalty_gives_zero_code(self):
        d = make_dictionary(6, p=8, m=4)
        rng = np.random.default_rng(9)
        a, diag = code_one(cd.Encoder(d, "iterative", 1e6, 0.0), rng.normal(size=8), np.ones(4))
        np.testing.assert_array_equal(a, np.zeros(4))
        assert diag.unconverged == 0

    def test_correlated_atoms_converge_below_plain_ista(self):
        # 48 atoms in 16 dimensions drawn around 6 shared directions, as
        # patch dictionaries are: D^T D is singular and badly conditioned
        # on each support, so a plain ISTA's 1000 iterations stop short
        rng = np.random.default_rng(11)
        p, m, lam1 = 16, 48, 0.01
        D = rng.normal(size=(p, 6))[:, rng.integers(0, 6, size=m)] + 0.3 * rng.normal(size=(p, m))
        D /= np.linalg.norm(D, axis=0)
        d = Dictionary([Patch(i, D[:, i], (0.5, 0.5), i % 3, 0) for i in range(m)])
        X = rng.normal(size=(40, p))
        codes, diag = cd.Encoder(d, "iterative", lam1, 0.0).code(X)
        assert diag.rows == 40 and diag.unconverged == 0
        tol = cd.FISTA_KKT_TOL * np.abs(X @ D).max(axis=1)
        kkt = [kkt_violation(x, D, a, np.ones(m), lam1) for x, a in zip(X, codes)]
        assert np.all(kkt <= tol * (1 + 1e-9))
        # reference: ISTA from zero, step 1 / lambda_max(D^T D), 1000 iterations
        step = 1.0 / np.linalg.eigvalsh(D.T @ D)[-1]
        ista = np.zeros((40, m))
        for _ in range(1000):
            ista = cd.soft_threshold(ista - step * (ista @ D.T - X) @ D, step * lam1)
        w = np.ones(m)
        for x, a, ref in zip(X, codes, ista):
            assert objective(x, D, a, w, lam1) <= objective(x, D, ref, w, lam1)


class TestCoderBuild:
    def test_pseudo_inverse_identity(self):
        d = make_dictionary(10, p=9, m=5)
        coder = cd.Encoder(d, "saco1", 0.1)
        np.testing.assert_allclose(coder.omega @ d.matrix, np.eye(5), atol=1e-10)

    def test_overcomplete_rejected(self):
        d = make_dictionary(11, p=3, m=5)
        with pytest.raises(InvalidInputError, match="under-complete"):
            cd.Encoder(d, "saco1", 0.1)

    def test_ill_conditioned_warns(self):
        base = np.array([1.0, 0.0, 0.0])
        nearly = base + np.array([0.0, 1e-7, 0.0])
        d = Dictionary([Patch(0, base, (0.1, 0.1), 0, 0),
                        Patch(1, nearly, (0.9, 0.9), 1, 0)])
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            cd.Encoder(d, "saco1", 0.1)

    @pytest.mark.parametrize("condition, warns", [(1.5e8, True), (0.5e8, False)])
    def test_condition_warning_threshold(self, condition, warns):
        # D = diag(1, s) is full rank with cond(D^T D) = 1 / s^2; the warning
        # starts above CONDITION_WARN_THRESHOLD = 1e8
        s = condition ** -0.5
        d = Dictionary([Patch(0, [1.0, 0.0], (0.1, 0.1), 0, 0),
                        Patch(1, [0.0, s], (0.9, 0.9), 1, 0)])
        if warns:
            with pytest.warns(RuntimeWarning, match="ill-conditioned dictionary"):
                cd.Encoder(d, "saco1", 0.1)
        else:
            cd.Encoder(d, "saco1", 0.1)  # a stray RuntimeWarning fails the test

    def test_rank_deficient_rejected(self):
        d = Dictionary([Patch(0, [0.0, 0.0], (0.1, 0.1), 0, 0),
                        Patch(1, [1.0, 0.0], (0.9, 0.9), 1, 0)])
        with pytest.raises(LinearSolveError):
            cd.Encoder(d, "saco1", 0.1)

    def test_negative_penalty_rejected(self):
        d = make_dictionary(12, p=6, m=3)
        with pytest.raises(InvalidInputError):
            cd.Encoder(d, "saco1", -0.5)


class TestBoundCheck:
    def test_square_orthonormal_is_tight(self):
        d = make_dictionary(13, p=4, m=4, orthonormal=True)
        coder = cd.Encoder(d, "saco1", 0.1)
        rng = np.random.default_rng(10)
        x = rng.normal(size=4)
        a = rng.normal(size=4)
        lhs, rhs = cd.bound_check(x, a, coder)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert lhs == pytest.approx(np.linalg.norm(x - d.matrix @ a), rel=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_lower_bound_holds(self, seed):
        d = make_dictionary(seed + 80, p=9, m=5)
        coder = cd.Encoder(d, "saco1", 0.1)
        rng = np.random.default_rng([seed, 81])
        lhs, rhs = cd.bound_check(rng.normal(size=9), rng.normal(size=5), coder)
        assert lhs >= rhs - 1e-12
        # tall dictionaries annihilate part of the residual
        assert rhs == 0.0

    @pytest.mark.parametrize("a", [np.zeros(4), np.array([0.0, np.nan, 0.0])])
    def test_rejects_bad_code(self, a):
        coder = cd.Encoder(make_dictionary(13, p=4, m=3), "saco1", 0.1)
        with pytest.raises(InvalidInputError, match="code"):
            cd.bound_check(np.ones(4), a, coder)

    def test_needs_a_saco1_encoder(self):
        coder = cd.Encoder(make_dictionary(13, p=4, m=3), "saco2", 0.1)
        with pytest.raises(InvalidInputError, match="bound_check needs a saco1 encoder, got saco2"):
            cd.bound_check(np.ones(4), np.zeros(3), coder)


class TestSpatialWeights:
    def test_linear_kernel_frozen(self):
        d = Dictionary([Patch(0, [1.0], (0.0, 0.0), 0, 0),
                        Patch(1, [2.0], (0.0, 1.0), 0, 0)])
        cfg = cd.SpatialWeightConfig(kernel="linear", epsilon=0.1, scale=0.5)
        w = cd.spatial_weights([(0.0, 0.0)], d, cfg)
        np.testing.assert_allclose(w, [[0.1, 0.1 + 1.0 / 0.5]], atol=1e-15)

    def test_gaussian_kernel_frozen(self):
        d = Dictionary([Patch(0, [1.0], (0.0, 0.0), 0, 0),
                        Patch(1, [2.0], (0.0, 1.0), 0, 0)])
        cfg = cd.SpatialWeightConfig(kernel="one-minus-gaussian", epsilon=0.0, scale=0.5)
        w = cd.spatial_weights([(0.0, 0.0)], d, cfg)
        np.testing.assert_allclose(w, [[0.0, 1.0 - np.exp(-2.0)]], atol=1e-15)

    def test_weight_grows_with_distance(self):
        d = make_dictionary(14, p=4, m=6)
        for kernel in ("linear", "one-minus-gaussian"):
            cfg = cd.SpatialWeightConfig(kernel=kernel, epsilon=0.05, scale=0.4)
            w_near, w_far = cd.spatial_weights([d.atom_coords[0], (-5.0, -5.0)], d, cfg)
            assert w_near[0] == pytest.approx(0.05)
            assert np.all(w_far >= w_near)

    @pytest.mark.parametrize("kernel", cd.WEIGHT_KERNELS)
    def test_weights_equal_the_norm_form(self, kernel):
        d = make_dictionary(15, p=4, m=9)
        coords = np.random.default_rng(15).uniform(-1.0, 2.0, size=(40, 2))
        cfg = cd.SpatialWeightConfig(kernel=kernel, epsilon=0.05, scale=0.3)
        dist = np.linalg.norm(d.atom_coords[None, :, :] - coords[:, None, :], axis=2)
        if kernel == "linear":
            ref = cfg.epsilon + dist / cfg.scale
        else:
            ref = cfg.epsilon + 1.0 - np.exp(-(dist * dist) / (2.0 * cfg.scale * cfg.scale))
        np.testing.assert_array_equal(cd.spatial_weights(coords, d, cfg), ref)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            cd.SpatialWeightConfig(kernel="cubic")
        for scale in (0.0, float("inf")):
            with pytest.raises(InvalidConfigError):
                cd.SpatialWeightConfig(scale=scale)
        with pytest.raises(InvalidConfigError):
            cd.SpatialWeightConfig(epsilon=-0.1)

    def test_query_shape_checked(self):
        d = make_dictionary(15, p=4, m=3)
        with pytest.raises(InvalidInputError):
            cd.spatial_weights([(0.1, 0.2, 0.3)], d, cd.SpatialWeightConfig())
        # locations come as (N, 2) rows, one location too
        with pytest.raises(InvalidInputError,
                           match=re.escape("coords must have shape (*, 2), got (2,)")):
            cd.spatial_weights((0.1, 0.2), d, cd.SpatialWeightConfig())


def grid_centers(n_rows, n_cols):
    """(n_rows * n_cols, 2) grid cell centers in C order: cell (r, c) at
    ((c + 0.5)/n_cols, (r + 0.5)/n_rows)."""
    xs, ys = np.meshgrid((np.arange(n_cols) + 0.5) / n_cols, (np.arange(n_rows) + 0.5) / n_rows)
    return np.column_stack([xs.ravel(), ys.ravel()])


class TestDenseCoding:
    """A dense (H, W, p) feature map is coded as its H*W cells' rows."""

    def test_dense_matches_per_cell_exactly(self):
        d = make_dictionary(18, p=6, m=4, orthonormal=True)
        coder = cd.Encoder(d, "saco1", 0.2)
        cfg = cd.SpatialWeightConfig(kernel="linear", epsilon=0.1, scale=0.5)
        rng = np.random.default_rng(11)
        fmap = rng.normal(size=(3, 4, 6))
        wf = cd.spatial_weights(grid_centers(3, 4), d, cfg).reshape(3, 4, 4)
        dense = coder.code(fmap.reshape(-1, 6), wf.reshape(-1, 4))[0].reshape(3, 4, 4)
        assert dense.shape == (3, 4, 4)
        for r in range(3):
            for c in range(4):
                np.testing.assert_array_equal(
                    dense[r, c], code_one(coder, fmap[r, c], wf[r, c])[0]
                )

    def test_dense_shape_validation(self):
        d = make_dictionary(19, p=6, m=4)
        coder = cd.Encoder(d, "saco1", 0.2)
        wf = np.ones((3, 4, 4))
        with pytest.raises(InvalidInputError):
            coder.code(np.zeros((3, 4)).reshape(-1, 6), wf.reshape(-1, 4))
        with pytest.raises(InvalidInputError):
            coder.code(np.zeros((3, 4, 5)).reshape(-1, 6), wf.reshape(-1, 4))
        with pytest.raises(InvalidInputError):
            coder.code(np.zeros((3, 4, 6)).reshape(-1, 6), np.ones((3, 3, 4)).reshape(-1, 4))
        with pytest.raises(InvalidInputError):
            coder.code(np.zeros((3, 4, 6)).reshape(-1, 6), -wf.reshape(-1, 4))


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
        W = cd.spatial_weights(coords, d, cfg)
        assert W[5, 3] == 0.0 and np.all(np.delete(W, 5, axis=0) > 0)
        codes, diag = cd.Encoder(d, "saco2", 0.05, 0.7, cfg).encode(X, coords)
        ref = ridge_reference(X, d, W, 0.05, 0.7)
        np.testing.assert_allclose(codes, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert (diag.rows, diag.unconverged, diag.max_iterations) == (30, 0, 0)
        # one row at explicit weights runs the same kernel
        np.testing.assert_allclose(code_one(cd.Encoder(d, "saco2", 0.05, 0.7), X[0], W[0])[0],
                                   ref[0], rtol=1e-12, atol=1e-12 * np.abs(ref[0]).max())

    def test_ridge_path_matches_reference_over_blocks(self):
        # p >= m: every row takes the packed m x m solve, over more rows
        # than one BLOCK_DOUBLES block holds
        p, m = 64, 24
        n = saco.data.BLOCK_DOUBLES // (m * (m + 1) // 2) + 20
        d, X, coords = batch_problem(12, p=p, m=m, n=n)
        cfg = cd.SpatialWeightConfig()
        codes, _ = cd.Encoder(d, "saco2", 0.05, 0.7, cfg).encode(X, coords)
        ref = ridge_reference(X, d, cd.spatial_weights(coords, d, cfg), 0.05, 0.7)
        np.testing.assert_allclose(codes, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_atom_outer_packs_each_outer_product(self):
        D = make_dictionary(10, p=5, m=7).matrix
        outer = cd._atom_outer(D)
        assert outer.shape == (7, 15)
        lo, hi = np.tril_indices(5)
        for j in range(7):
            full = np.zeros((5, 5))
            full[lo, hi] = full[hi, lo] = outer[j]
            np.testing.assert_array_equal(full, np.outer(D[:, j], D[:, j]))

    def test_push_through_at_pipeline_shape_matches_reference(self):
        # p = 64 features and m = 128 atoms, with more rows than one
        # BLOCK_DOUBLES block of packed systems holds
        p, m = 64, 128
        n = saco.data.BLOCK_DOUBLES // (p * (p + 1) // 2) + 20
        d, X, coords = batch_problem(11, p=p, m=m, n=n)
        cfg = cd.SpatialWeightConfig()
        codes, _ = cd.Encoder(d, "saco2", 0.05, 0.7, cfg).encode(X, coords)
        ref = ridge_reference(X, d, cd.spatial_weights(coords, d, cfg), 0.05, 0.7)
        np.testing.assert_allclose(codes, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("cols, w1, failure", [
        # 1 / w^2 = 1e308 is finite, but K's first diagonal entry overflows
        # while its other entries stay finite
        ([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 1e-154, "overflow"),
        # K = 1e300 [[1, 1], [1, 1]] after rounding: Cholesky fails
        ([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], 1e-150, "info"),
    ])
    def test_failed_push_through_row_takes_the_cholesky_path(self, monkeypatch, cols, w1,
                                                             failure):
        d = Dictionary([Patch(i, c, (0.1 * i, 0.2), i % 2, 0) for i, c in enumerate(cols)])
        X = np.array([[1.0, 1.0], [0.3, -2.0], [1.5, 0.5]])
        W = np.array([[1.0, 0.5, 2.0], [w1, 1.0, 1.0], [0.7, 0.7, 0.7]])
        infos = []

        def spy(*args, **kwargs):
            out = scipy.linalg.lapack.dppsv(*args, **kwargs)
            infos.append(out[1])
            return out

        monkeypatch.setattr(cd, "dppsv", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes, _ = cd.Encoder(d, "saco2", 0.0, 1.0).code(X, W)
        # an overflowing K never reaches dppsv; a failed factorization reports
        # it; the last call solves row 1's m x m system
        assert infos == ([0, 0, 0] if failure == "overflow" else [0, 2, 0, 0])
        np.testing.assert_allclose(codes, ridge_reference(X, d, W, 0.0, 1.0), rtol=1e-12)

    def test_failed_push_through_row_is_named_when_cholesky_fails_too(self):
        # atoms 0 and 2 coincide and both weigh 1e-154 in row 1: K overflows,
        # and D^T D + lambda2 diag(w)^2 is singular after rounding
        d = Dictionary([Patch(i, c, (0.1 * i, 0.2), i % 2, 0)
                        for i, c in enumerate([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])])
        W = np.array([[1.0, 0.5, 2.0], [1e-154, 1.0, 1e-154], [0.7, 0.7, 0.7]])
        with pytest.raises(LinearSolveError, match="ridge system of row 1 singular"):
            cd.Encoder(d, "saco2", 0.0, 1.0).code(np.ones((3, 2)), W)

    @pytest.mark.parametrize("method", ["saco1", "saco2", "iterative"])
    def test_batch_slicing_does_not_change_codes(self, method, tight_ista):
        # saco1 needs p >= m; the push-through needs p < m
        p, m = (12, 6) if method == "saco1" else (8, 20)
        d, X, coords = batch_problem(5, p=p, m=m, n=29)
        enc = cd.Encoder(d, method, 0.1, 0.5, cd.SpatialWeightConfig())
        whole, _ = enc.encode(X, coords)
        for size in (1, 7):
            parts = np.vstack([enc.encode(X[i:i + size], coords[i:i + size])[0]
                               for i in range(0, len(X), size)])
            if method == "saco1":
                np.testing.assert_array_equal(parts, whole)
            else:
                np.testing.assert_allclose(parts, whole, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", ["saco1", "saco2", "iterative"])
    def test_an_empty_batch_gives_no_codes(self, method):
        p, m = (12, 6) if method == "saco1" else (8, 20)
        d, X, coords = batch_problem(5, p=p, m=m, n=29)
        enc = cd.Encoder(d, method, 0.1, 0.5, cd.SpatialWeightConfig())
        for codes, diag in (enc.encode(X[:0], coords[:0]), enc.code(X[:0])):
            assert codes.shape == (0, m)
            assert diag == cd.CodingDiagnostics()

    @pytest.mark.parametrize("lam2", [0.0, 0.4])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_batched_ista_matches_one_row_solver(self, lam2, weighted, tight_ista):
        d, X, coords = batch_problem(6, p=8, m=12, n=17)
        cfg = cd.SpatialWeightConfig(epsilon=0.2) if weighted else None
        codes, diag = cd.Encoder(d, "iterative", 0.2, lam2, cfg).encode(X, coords)
        W = cd.spatial_weights(coords, d, cfg) if weighted else np.ones((17, 12))
        one = cd.Encoder(d, "iterative", 0.2, lam2)
        rows = [code_one(one, x, w) for x, w in zip(X, W)]
        np.testing.assert_allclose(codes, [a for a, _ in rows], rtol=0, atol=1e-10)
        assert diag.unconverged == 0
        assert diag.max_iterations == max(r.max_iterations for _, r in rows)
        assert diag.worst_kkt == pytest.approx(max(r.worst_kkt for _, r in rows), abs=1e-12)

    def test_explicit_weights_with_ridge_get_their_own_step(self, tight_ista):
        # with lambda2 > 0 the FISTA step depends on the weights: reusing the
        # all-ones step overshoots at weights up to 10 and never converges
        d, X, _ = batch_problem(9, p=8, m=12, n=10)
        W = np.random.default_rng(9).uniform(0.5, 10.0, size=(10, 12))
        enc = cd.Encoder(d, "iterative", 0.2, 1.0)
        codes, diag = enc.code(X, W)
        assert diag.unconverged == 0
        assert max(kkt_violation(x, d.matrix, a, w, 0.2, 1.0)
                   for x, w, a in zip(X, W, codes)) < 1e-6
        np.testing.assert_allclose(codes, [code_one(enc, x, w)[0] for x, w in zip(X, W)],
                                   rtol=0, atol=1e-10)

    def test_max_iter_one_reports_every_row_unconverged(self, monkeypatch):
        d, X, coords = batch_problem(7)
        monkeypatch.setattr(cd, "FISTA_MAX_ITER", 1)
        codes, diag = cd.Encoder(d, "iterative", 0.01, 1.0,
                                 cd.SpatialWeightConfig()).encode(X, coords)
        assert (diag.rows, diag.unconverged, diag.max_iterations) == (30, 30, 1)
        assert diag.worst_kkt > 0
        total = cd.CodingDiagnostics()
        total.add(diag)
        total.add(cd.CodingDiagnostics(5))
        assert (total.rows, total.unconverged, total.max_iterations) == (35, 30, 1)
        assert total.worst_kkt == diag.worst_kkt

    @pytest.mark.parametrize("method", ["saco2", "iterative"])
    def test_overflowing_ridge_rejected_naming_the_row(self, method):
        # lambda2 w^2 overflows at a finite weight: explicit weights of 1e200,
        # or locations at weight_scale 1e-160 off the atoms' common location
        rng = np.random.default_rng(13)
        d = Dictionary([Patch(i, rng.normal(size=8), (0.5, 0.5), i % 2, 0) for i in range(4)])
        X = rng.normal(size=(3, 8))
        W = np.ones((3, 4))
        W[2, 1] = 1e200
        with pytest.raises(InvalidInputError, match="row 2: lambda2"):
            cd.Encoder(d, method, 0.1, 1.0).code(X, W)
        coords = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9]])
        enc = cd.Encoder(d, method, 0.1, 1.0, cd.SpatialWeightConfig(epsilon=0.0, scale=1e-160))
        with pytest.raises(InvalidInputError, match="row 2: lambda2"):
            enc.encode(X, coords)
        # saco1 has no ridge: it codes the same batch
        assert np.isfinite(cd.Encoder(d, "saco1", 0.1, 1.0).code(X, W)[0]).all()

    def test_rejects_bad_batches(self):
        d, X, coords = batch_problem(8)
        enc = cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig())
        with pytest.raises(InvalidInputError,
                           match=re.escape("features must have shape (*, 8), got (30, 5)")):
            enc.encode(X[:, :5], coords)
        with pytest.raises(InvalidInputError, match="coords"):
            enc.encode(X, coords[:4])
        with pytest.raises(InvalidInputError, match="weights"):
            enc.code(X, np.ones((4, 20)))
        X[3, 2] = np.nan
        with pytest.raises(InvalidInputError, match="row 3"):
            enc.encode(X, coords)
        with pytest.raises(InvalidConfigError):
            cd.Encoder(d, "fista")
        # saco1 builds Omega, so over-complete dictionaries fail at build time
        with pytest.raises(InvalidInputError, match="under-complete"):
            cd.Encoder(d, "saco1")

    def test_encode_checks_coords_with_and_without_weights(self):
        d, X, coords = batch_problem(8, n=3)
        with pytest.raises(InvalidInputError, match="coords are required"):
            cd.Encoder(d, "saco2", 0.1, 1.0, cd.SpatialWeightConfig()).encode(X)
        uniform = cd.Encoder(d, "saco2", 0.1, 1.0)
        with pytest.raises(InvalidInputError,
                           match=re.escape("coords must have shape (3, 2), got (2, 2)")):
            uniform.encode(X, coords[:2])
        coords[1, 0] = np.inf
        with pytest.raises(InvalidInputError,
                           match="coords: non-finite value inf at row 1, column 0"):
            uniform.encode(X, coords)
        # coords that pass the check leave a uniform code as it was
        coords[1, 0] = 0.5
        assert uniform.encode(X, coords)[0].tobytes() == uniform.encode(X)[0].tobytes()


# -- one input rule behind every entry ---------------------------------------

SCALARS = {"lambda1": 0.1, "lambda2": 1.0, "weight_scale": 0.5, "weight_epsilon": 0.1}


def _weights(s):
    return cd.SpatialWeightConfig("linear", s["weight_epsilon"], s["weight_scale"])


def _encode(method):
    return lambda d, X, W, C, s: cd.Encoder(d, method, s["lambda1"], s["lambda2"],
                                            _weights(s)).encode(X, C)


def _code(method):
    return lambda d, X, W, C, s: cd.Encoder(d, method, s["lambda1"], s["lambda2"]).code(X, W)


# entry -> (the row the table corrupts, the inputs it reads, a call on a
# 4-row batch X (4, p), weights W (4, m), locations C (4, 2) and SCALARS);
# an entry named by its coder codes X at the explicit weights W, and the
# one-row entries read row 0
ENTRIES = {
    **{f"Encoder.encode[{m}]": (2, "X C lambda1 lambda2 weight_scale weight_epsilon",
                                _encode(m)) for m in cd.CODERS},
    **{m: (2, "X W lambda1 lambda2", _code(m)) for m in cd.CODERS},
    # the one-patch weighted l1 and l2-l1 problems as a one-row batch, and
    # dense saco1 as a 2 x 2 feature map coded cell by cell in C order
    "solve_weighted_l1": (0, "X W lambda1", lambda d, X, W, C, s: cd.Encoder(
        d, "iterative", s["lambda1"], 0.0).code(X[:1], W[:1])),
    "solve_weighted_l2_l1": (0, "X W lambda1 lambda2", lambda d, X, W, C, s: cd.Encoder(
        d, "iterative", s["lambda1"], s["lambda2"]).code(X[:1], W[:1])),
    "dense_saco1": (2, "X W lambda1", lambda d, X, W, C, s: cd.Encoder(
        d, "saco1", s["lambda1"]).code(X.reshape(2, 2, -1).reshape(4, -1),
                                       W.reshape(2, 2, -1).reshape(4, -1))),
    "bound_check": (0, "X lambda1", lambda d, X, W, C, s: cd.bound_check(
        X[0], np.zeros(d.n_atoms), cd.Encoder(d, "saco1", s["lambda1"]))),
    "spatial_weights": (2, "C weight_scale weight_epsilon",
                        lambda d, X, W, C, s: cd.spatial_weights(C, d, _weights(s))),
}

# column -> (the input it corrupts, the bad value)
BAD_INPUTS = {
    "nan feature": ("X", np.nan), "inf feature": ("X", np.inf), "nan weight": ("W", np.nan),
    "negative weight": ("W", -1.0), "inf weight": ("W", np.inf), "nan location": ("C", np.nan),
    **{f"nan {name}": (name, np.nan) for name in SCALARS},
    **{f"inf {name}": (name, np.inf) for name in SCALARS},
    **{f"bool {name}": (name, True) for name in SCALARS},
    **{f"str {name}": (name, "x") for name in SCALARS},
    **{f"None {name}": (name, None) for name in SCALARS},
}


@pytest.mark.parametrize("entry,column", [
    (entry, column) for entry, (_, reads, _) in ENTRIES.items()
    for column, (what, _) in BAD_INPUTS.items() if what in reads.split()
])
def test_every_entry_rejects_bad_input_naming_the_row(entry, column):
    row, _, call = ENTRIES[entry]
    what, value = BAD_INPUTS[column]
    d = make_dictionary(21, p=6, m=3)
    rng = np.random.default_rng(21)
    arrays = {"X": rng.normal(size=(4, 6)), "W": rng.uniform(0.5, 2.0, size=(4, 3)),
              "C": rng.uniform(size=(4, 2))}
    scalars = dict(SCALARS)
    if what in arrays:
        arrays[what][row, 1] = value
        error, match = InvalidInputError, f"row {row}"
    else:
        scalars[what] = value
        error = InvalidConfigError if what.startswith("weight_") else InvalidInputError
        match = what
    with pytest.raises(error, match=match):
        call(d, arrays["X"], arrays["W"], arrays["C"], scalars)
