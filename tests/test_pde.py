"""Parametric diffusion pipeline: P1 assembly on the chessboard problem,
high-fidelity and reduced solves, the exact parameter-to-operator networks,
the composed solution-map network, and error reporting."""

import csv
import dataclasses
import functools
import json

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from requnet import (
    DimensionMismatch,
    EmptySnapshotSet,
    InvalidArgument,
    NonFiniteEntry,
    Network,
    SingularSystem,
    affine_network,
    assemble_affine_system,
    assemble_load,
    b_network,
    build_reduced_basis,
    complexity,
    contraction_network,
    evaluate_error,
    load_reduced_network,
    matr,
    neumann_length,
    realize,
    realize_batch,
    reduced_solve,
    requ,
    save_reduced_network,
    series_plan,
    solution_errors,
    solution_network,
    solve_high_fidelity,
    vec,
    write_error_csv,
)
from requnet import pde
from requnet.matrixnets import _chebyshev_plan
from requnet.pde import _g_norm, _g_norms


@pytest.fixture(scope="module")
def sys9():
    return assemble_affine_system(9, 2, 0.1)


@pytest.fixture(scope="module")
def rb9(sys9):
    rng = np.random.default_rng(303)
    return build_reduced_basis(sys9, rng.uniform(0, 1, (8, 4)))


def reduced_operator(rb, y):
    return rb.theta[0] + sum(yi * ti for yi, ti in zip(y, rb.theta[1:]))


def certified_margin(rb):
    """1 - max |1 - lam mu| over mu in the Weyl interval [lo, hi] of the
    reduced operators on the box, from dense eigenvalues of the pieces."""
    neg = sum(min(np.linalg.eigvalsh(t).min(), 0.0) for t in rb.theta[1:])
    lo = np.linalg.eigvalsh(rb.theta[0]).min() + neg
    hi = np.linalg.eigvalsh(sum(rb.theta)).max() - neg
    return 1.0 - max(abs(1.0 - rb.lam * lo), abs(1.0 - rb.lam * hi))


# -------------------------------------------------------------------- assembly


def test_assembly_shapes_grid33():
    sys = assemble_affine_system(33, 3, 0.1)
    assert sys.D == 1089 and sys.p == 9
    assert sys.B0.shape == (1089, 1089) and sys.G.shape == (1089, 1089)
    assert len(sys.Bs) == 9 and sys.f.shape == (1089,)


def test_partition_of_unity(sys9):
    total = sum(B.toarray() for B in sys9.Bs)
    assert np.array_equal(total, sys9.G.toarray())
    assert np.array_equal(sys9.B0.toarray(), 0.1 * sys9.G.toarray())


def test_single_subdomain_covers_everything():
    sys = assemble_affine_system(5, 1, 0.3)
    assert sys.p == 1
    np.testing.assert_allclose(sys.Bs[0].toarray(), sys.G.toarray(), rtol=0, atol=1e-13)


def test_parametric_operator_is_spd(sys9):
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = rng.uniform(0, 1, sys9.p)
        B = (sys9.B0 + sum(yi * Bi for yi, Bi in zip(y, sys9.Bs))).toarray()
        np.testing.assert_allclose(B, B.T, rtol=0, atol=1e-13)
        np.linalg.cholesky(B)


def test_assembly_rejects_bad_args():
    for grid_n, s, mu in [
        (2, 1, 0.1), (9, 0, 0.1), (9, 2, 0.0), (9, 2, -1.0),
        (np.inf, 2, 0.1), (np.nan, 2, 0.1), (9.0, 2, 0.1), (9, True, 0.1), (9, 2.0, 0.1),
    ]:
        with pytest.raises(InvalidArgument):
            assemble_affine_system(grid_n, s, mu)
    for grid_n in (2, np.inf, np.nan, 9.0, True):
        with pytest.raises(InvalidArgument):
            assemble_load(grid_n, lambda x, y: np.ones_like(x))


def test_constant_load_gives_h_squared():
    # every interior hat integrates to exactly h^2 on the uniform mesh
    for grid_n in (3, 9):
        f = assemble_load(grid_n, lambda x, y: np.ones_like(x))
        h = 1.0 / (grid_n + 1)
        np.testing.assert_allclose(f, h * h, rtol=0, atol=1e-15)


def test_builtin_load_is_the_affine_one(sys9):
    f = assemble_load(9, lambda x, y: 20.0 + 10.0 * x - 5.0 * y)
    assert (f == sys9.f).all()


# -------------------------------------------------------------- solve


def test_solution_scales_reciprocally_single_subdomain():
    # s = 1 makes B_y = (mu + y) K, so (mu + y) u(y) is y-independent
    sys = assemble_affine_system(7, 1, 0.1)
    base = 0.6 * solve_high_fidelity(sys, np.array([0.5]))
    for y in [0.0, 0.25, 1.0]:
        np.testing.assert_allclose(
            (0.1 + y) * solve_high_fidelity(sys, np.array([y])), base, rtol=1e-10
        )


def test_high_fidelity_residual(sys9):
    rng = np.random.default_rng(21)
    fnorm = np.linalg.norm(sys9.f)
    for _ in range(20):
        y = rng.uniform(0, 1, 4)
        B = sys9.B0 + sum(yi * Bi for yi, Bi in zip(y, sys9.Bs))
        u = solve_high_fidelity(sys9, y)
        assert np.linalg.norm(B @ u - sys9.f) <= 1e-10 * fnorm


def test_transpose_reflection_symmetry():
    # the mesh diagonal (i,j)-(i+1,j+1) is invariant under swapping x and y,
    # so a swap-symmetric load and coefficient give a swap-symmetric solution
    grid_n, s = 9, 2
    sys = assemble_affine_system(grid_n, s, 0.1)
    sys = dataclasses.replace(sys, f=assemble_load(grid_n, lambda x, y: x + y))
    y = np.array([0.7, 0.3, 0.3, 0.9])  # y[r*s+c] == y[c*s+r]
    u = solve_high_fidelity(sys, y).reshape(grid_n, grid_n)
    np.testing.assert_allclose(u, u.T, rtol=1e-10, atol=1e-14)


def test_manufactured_solution_second_order():
    # u = sin(pi x) sin(pi y), coefficient pinned to 1 via mu + y = 1;
    # nodal error 0.0375 at h=1/8 and 0.0096 at h=1/16, ratio ~3.9
    errs = []
    for grid_n in (7, 15):
        sys = assemble_affine_system(grid_n, 1, 0.1)
        f = assemble_load(
            grid_n, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        sys = dataclasses.replace(sys, f=f)
        u = solve_high_fidelity(sys, np.array([0.9]))
        h = 1.0 / (grid_n + 1)
        exact = np.array(
            [
                np.sin(np.pi * ix * h) * np.sin(np.pi * iy * h)
                for iy in range(1, grid_n + 1)
                for ix in range(1, grid_n + 1)
            ]
        )
        errs.append(np.abs(u - exact).max())
    assert errs[0] < 0.04 and errs[1] < 0.01
    assert errs[0] / errs[1] > 3.5


def test_solve_rejects_wrong_parameter_shape(sys9):
    with pytest.raises(DimensionMismatch):
        solve_high_fidelity(sys9, np.zeros(3))


def test_solve_rejects_non_finite_parameter(sys9, rb9):
    for bad in (np.nan, np.inf, -np.inf):
        y = np.array([0.5, bad, 0.5, 0.5])
        for solve, system in ((solve_high_fidelity, sys9), (reduced_solve, rb9)):
            with pytest.raises(InvalidArgument):
                solve(system, y)


def test_solve_matches_dense_oracle(sys9):
    corners = np.array(np.meshgrid(*[(0.0, 1.0)] * 4)).reshape(4, -1).T
    random = np.random.default_rng(23).uniform(0, 1, (8, 4))
    for y in np.vstack([corners, random]):
        B = sys9.B0 + sum(yi * Bi for yi, Bi in zip(y, sys9.Bs))
        want = np.linalg.solve(B.toarray(), sys9.f)
        np.testing.assert_allclose(solve_high_fidelity(sys9, y), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.5 + 1j, 0.5, 0.5, 0.5]),
        [0.5j, 0.5, 0.5, 0.5],
        ["abc", "0.5", "0.5", "0.5"],
        ["0.5", "0.5", "0.5", "0.5"],
        [0.5, None, 0.5, 0.5],
    ],
)
def test_solve_rejects_non_real_parameter(sys9, rb9, bad):
    for solve, system in ((solve_high_fidelity, sys9), (reduced_solve, rb9)):
        with pytest.raises(InvalidArgument):
            solve(system, bad)


@pytest.mark.parametrize("grid_n", [3, 9, 33])
def test_gram_half_bandwidth_is_grid_n(grid_n):
    sys = assemble_affine_system(grid_n, 2, 0.1)
    shape, pieces = sys._band_plan
    assert shape == (grid_n + 1, grid_n * grid_n) and len(pieces) == 5
    for pos, vals in pieces:
        assert len(np.unique(pos)) == len(pos) == len(vals)
    ab = np.zeros(shape)
    ab.reshape(-1)[pieces[0][0]] = pieces[0][1]
    # row grid_n - k holds the k-th superdiagonal of B0 = mu G, padded at the front
    for k in range(grid_n + 1):
        assert np.array_equal(ab[grid_n - k, k:], sys.mu * sys.G.diagonal(k))
        assert not ab[grid_n - k, :k].any()


@functools.lru_cache(maxsize=None)
def _system(grid_n, s):
    return assemble_affine_system(grid_n, s, 0.1)


def _csr_sum_solve(sys, y):
    """The banded solve with B_y formed as the CSR sum B0 + y_1 Bs[0] + ...,
    its upper triangle scattered into LAPACK band storage."""
    B = sys.B0
    for yi, Bi in zip(y, sys.Bs):
        B = B + yi * Bi
    U = sp.triu(B.tocsr(), format="coo")
    bw = int((U.col - U.row).max(initial=0))
    ab = np.zeros((bw + 1, sys.D))
    ab[bw + U.row - U.col, U.col] = U.data
    return sla.solveh_banded(ab, sys.f, check_finite=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_solve_is_byte_identical_to_the_csr_sum(data):
    grid_n, s = data.draw(st.integers(3, 33)), data.draw(st.integers(1, 3))
    sys = _system(grid_n, s)
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(-sys.mu / 2, 1.0))
    y = np.array(data.draw(st.lists(entry, min_size=sys.p, max_size=sys.p)))
    assert solve_high_fidelity(sys, y).tobytes() == _csr_sum_solve(sys, y).tobytes()


@pytest.mark.parametrize("grid_n", [33, 57])
def test_snapshots_match_sparse_lu(grid_n):
    sys = assemble_affine_system(grid_n, 3, 0.1)
    random = np.random.default_rng(29).uniform(0, 1, (2, 9))
    params = np.vstack([np.zeros(9), np.ones(9), random])
    for y in params:
        B = sys.B0 + sum(yi * Bi for yi, Bi in zip(y, sys.Bs))
        want = spla.splu(B.tocsc()).solve(sys.f)
        u = solve_high_fidelity(sys, y)
        assert np.linalg.norm(u - want) <= 1e-12 * np.linalg.norm(want)


def test_solve_rejects_asymmetric_operator(sys9):
    kink = sp.csr_matrix(([1e-3], ([0], [1])), shape=(sys9.D, sys9.D))
    sys = dataclasses.replace(sys9, B0=(sys9.B0 + kink).tocsr())
    with pytest.raises(InvalidArgument):
        solve_high_fidelity(sys, np.full(4, 0.5))


def test_asymmetric_piece_raises_where_its_parameter_is_zero(sys9):
    y = np.array([0.0, 0.5, 0.5, 0.5])
    solve_high_fidelity(sys9, y)
    # the replaced system plans its own band; y_1 = 0 does not hide the kink
    kink = sp.csr_matrix(([1e-3], ([0], [1])), shape=(sys9.D, sys9.D))
    sys = dataclasses.replace(sys9, Bs=((sys9.Bs[0] + kink).tocsr(), *sys9.Bs[1:]))
    with pytest.raises(InvalidArgument):
        solve_high_fidelity(sys, y)


def test_solve_rejects_operator_not_positive_definite(sys9):
    # mu + y_1 = -0.4 < 0 on the first subdomain: symmetric but indefinite
    with pytest.raises(SingularSystem):
        solve_high_fidelity(sys9, np.array([-0.5, 0.5, 0.5, 0.5]))


# -------------------------------------------------------- build_reduced_basis


def test_single_snapshot_normalized():
    sys = assemble_affine_system(5, 1, 0.5)
    rb = build_reduced_basis(sys, np.array([[0.4]]))
    assert rb.d == 1
    gram = rb.V.T @ sys.G @ rb.V
    np.testing.assert_allclose(gram, [[1.0]], rtol=0, atol=1e-12)


def test_basis_orthonormal_and_constants(sys9, rb9):
    assert rb9.d == 8
    gram = rb9.V.T @ sys9.G @ rb9.V
    np.testing.assert_allclose(gram, np.eye(8), rtol=0, atol=1e-10)
    assert rb9.alpha == 1.1
    assert rb9.beta == 0.1
    assert rb9.lam == 2.0 / (rb9.alpha + rb9.beta)
    assert rb9.delta == certified_margin(rb9)
    assert rb9.delta == pytest.approx(2.0 * rb9.beta / (rb9.alpha + rb9.beta), rel=1e-12)
    assert rb9.p == 4
    assert rb9.theta[0].shape == (8, 8) and len(rb9.theta) == 5


def test_duplicate_snapshot_dropped(sys9):
    y = np.full((1, 4), 0.5)
    rb = build_reduced_basis(sys9, np.vstack([y, y]))
    assert rb.d == 1
    assert 0.0 <= rb.truncation_sup < 1e-12


def test_coarse_drop_tol_truncates(sys9):
    rng = np.random.default_rng(303)
    rb = build_reduced_basis(sys9, rng.uniform(0, 1, (8, 4)), drop_tol=0.5)
    assert rb.d < 8
    assert rb.truncation_sup > 0.0


def test_basis_rejects_bad_snapshots(sys9):
    with pytest.raises(EmptySnapshotSet):
        build_reduced_basis(sys9, np.zeros((0, 4)))
    with pytest.raises(DimensionMismatch):
        build_reduced_basis(sys9, np.zeros((3, 3)))


def test_basis_size_bounded_by_snapshots(sys9):
    rng = np.random.default_rng(5)
    rb = build_reduced_basis(sys9, rng.uniform(0, 1, (3, 4)))
    assert rb.d <= 3


@pytest.fixture(scope="module")
def snapshots33():
    """Snapshot matrix (one column each) of 40 parameters at grid 33, 3 x 3."""
    sys = assemble_affine_system(33, 3, 0.1)
    params = np.random.default_rng(404).uniform(0, 1, (40, 9))
    return sys, params, np.column_stack([solve_high_fidelity(sys, y) for y in params])


def _g_residuals(G, V, U):
    """Dense-Cholesky G-norms of the columns of U after G-orthogonal
    projection onto span(V), with the projector from V's own Gram matrix."""
    L = np.linalg.cholesky(G.toarray())
    R = U - V @ np.linalg.solve(V.T @ (G @ V), V.T @ (G @ U))
    return np.linalg.norm(L.T @ R, axis=0)


def _draw_order_dimension(G, U, drop_tol):
    """Basis size of Gram-Schmidt in draw order: keep each snapshot whose
    G-norm residual against the kept ones is at least drop_tol times the
    largest snapshot G-norm."""
    L = np.linalg.cholesky(G.toarray())
    W = L.T @ U  # the G-inner product becomes the Euclidean one
    norms = np.linalg.norm(W, axis=0)
    Q = np.zeros((W.shape[0], 0))
    for w in W.T:
        for _ in range(2):
            w = w - Q @ (Q.T @ w)
        if np.linalg.norm(w) >= drop_tol * norms.max():
            Q = np.column_stack([Q, w / np.linalg.norm(w)])
    return Q.shape[1]


@pytest.mark.parametrize("drop_tol", [5e-2, 2e-2, 1e-2])
def test_greedy_truncation_sup_is_the_largest_projection_residual(snapshots33, drop_tol):
    sys, params, U = snapshots33
    rb = build_reduced_basis(sys, params, drop_tol)
    residuals = _g_residuals(sys.G, rb.V, U)
    scale = _g_residuals(sys.G, np.zeros((sys.D, 0)), U).max()
    assert rb.truncation_sup == pytest.approx(residuals.max(), rel=1e-9)
    assert rb.truncation_sup < drop_tol * scale * (1 + 1e-9)


@pytest.mark.parametrize("drop_tol", [5e-2, 2e-2, 1e-2])
def test_greedy_basis_no_larger_than_draw_order(snapshots33, drop_tol):
    sys, params, U = snapshots33
    rb = build_reduced_basis(sys, params, drop_tol)
    assert rb.d <= _draw_order_dimension(sys.G, U, drop_tol)
    gram = rb.V.T @ (sys.G @ rb.V)
    np.testing.assert_allclose(gram, np.eye(rb.d), rtol=0, atol=1e-10)


def test_greedy_takes_the_largest_residual_first(sys9):
    """The first basis vector is the snapshot of largest G-norm (here the
    second drawn), normalized; two equal snapshots give one basis vector."""
    params = np.array([[0.9, 0.1, 0.5, 0.3], [0.0, 0.2, 0.0, 0.1], [0.5, 0.9, 0.2, 0.7]])
    U = np.column_stack([solve_high_fidelity(sys9, y) for y in params])
    norms = _g_residuals(sys9.G, np.zeros((sys9.D, 0)), U)
    assert np.argmax(norms) == 1
    rb = build_reduced_basis(sys9, params, drop_tol=0.0)
    first = U[:, 1] / norms[1]
    np.testing.assert_allclose(rb.V[:, 0], first, rtol=0, atol=1e-12 * np.abs(first).max())
    twin = build_reduced_basis(sys9, params[[1, 1]], drop_tol=1e-8)
    assert twin.d == 1 and twin.truncation_sup < 1e-12


# ------------------------------------------------------------- reduced_solve


def test_reduced_residual_and_isometry(sys9, rb9):
    rng = np.random.default_rng(31)
    for _ in range(10):
        y = rng.uniform(0, 1, 4)
        u = reduced_solve(rb9, y)
        assert np.linalg.norm(reduced_operator(rb9, y) @ u - rb9.f_rb) <= 1e-12 * (
            1 + np.linalg.norm(rb9.f_rb)
        )
    # G-orthonormal columns make V an isometry from coefficients to G-norm
    c = rng.standard_normal(rb9.d)
    lifted = rb9.V @ c
    g_norm = np.sqrt(lifted @ (sys9.G @ lifted))
    assert g_norm == pytest.approx(np.linalg.norm(c), rel=1e-10)


def test_reduced_solution_quasi_optimal(sys9, rb9):
    # Galerkin in the G-inner product: error at most (alpha/beta) times the
    # best-approximation error from the reduced space
    rng = np.random.default_rng(41)
    G = sys9.G
    for _ in range(10):
        y = rng.uniform(0, 1, 4)
        u = solve_high_fidelity(sys9, y)
        lifted = rb9.V @ reduced_solve(rb9, y)
        diff = u - lifted
        proj = u - rb9.V @ (rb9.V.T @ (G @ u))
        lhs = np.sqrt(diff @ (G @ diff))
        best = np.sqrt(proj @ (G @ proj))
        assert lhs <= (rb9.alpha / rb9.beta) * best + 1e-9


def test_reduced_operator_spectrum_sandwich(sys9, rb9):
    # coefficient bounds survive Galerkin projection: eigenvalues of B^rb_y
    # lie in [beta, alpha], so ||I - lam B^rb_y||_2 <= 1 - delta on the box
    rng = np.random.default_rng(51)
    eye = np.eye(rb9.d)
    for _ in range(100):
        y = rng.uniform(0, 1, 4)
        th = reduced_operator(rb9, y)
        eigs = np.linalg.eigvalsh(th)
        assert eigs.min() >= rb9.beta - 1e-9
        assert eigs.max() <= rb9.alpha + 1e-9
        assert np.linalg.norm(eye - rb9.lam * th, 2) <= 1.0 - rb9.delta + 1e-9


def _rounding(rb):
    """d ulps of 1: the rounding of forming I - lam B^rb_y and of its
    computed spectral norm, against which the exact-arithmetic margin
    cannot be checked."""
    return rb.d * np.finfo(float).eps


def test_reduced_contraction_is_plus_minus_one_minus_delta_at_the_ends(rb9):
    """theta[0] = mu V^T G V and the sum of all pieces is (mu + 1) V^T G V,
    so at y = 0 and y = 1 the contraction is +(1 - delta) I and -(1 - delta) I
    up to rounding: the worst cases over the box, where the certified
    margin is tight, so the norm holds only up to the d ulps that forming
    and measuring the contraction in floating point may add."""
    net = contraction_network(rb9)
    eye = np.eye(rb9.d)
    for y, sign in ((np.zeros(4), 1.0), (np.ones(4), -1.0)):
        got = matr(realize(net, y), rb9.d, rb9.d)
        np.testing.assert_allclose(got, sign * (1.0 - rb9.delta) * eye, rtol=0, atol=1e-14)
        assert np.linalg.norm(got, 2) <= 1.0 - rb9.delta + _rounding(rb9)


def test_certified_margin_holds_at_every_corner_and_within(rb9):
    """At every one of the 2^p corners of the box and at random interior
    points, ||I - lam B^rb_y||_2 <= 1 - delta, and both solution networks
    stay within the Neumann share 0.9 eps of the reduced solve."""
    eps = 1e-3
    rb_net, h_net = solution_network(rb9, eps, 1.01 * np.linalg.norm(rb9.f_rb))
    L = np.linalg.cholesky(pde.assemble_affine_system(9, 2, 0.1).G.toarray())
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 4, indexing="ij")).reshape(4, -1).T
    ys = np.vstack([corners, np.random.default_rng(171).uniform(0, 1, (20, 4))])
    contraction = contraction_network(rb9)
    for y in ys:
        got = matr(realize(contraction, y), rb9.d, rb9.d)
        assert np.linalg.norm(got, 2) <= 1.0 - rb9.delta + _rounding(rb9)
        u = reduced_solve(rb9, y)
        assert np.linalg.norm(realize(rb_net, y) - u) <= 0.9 * eps
        assert np.linalg.norm(L.T @ (realize(h_net, y) - rb9.V @ u)) <= 0.9 * eps


def test_margin_certified_from_the_pieces_not_assumed(rb9):
    """delta reads the reduced pieces: a negative eigenvalue in a
    parameter piece widens the Weyl interval and shrinks the margin, and an
    operator with no certified margin in (0, 1) raises."""
    bump = 1e-3 * np.eye(rb9.d)
    shifted = dataclasses.replace(rb9, theta=(rb9.theta[0], rb9.theta[1] - bump, *rb9.theta[2:]))
    assert shifted.delta == certified_margin(shifted)
    assert shifted.delta < rb9.delta - 1e-4
    singular = dataclasses.replace(rb9, theta=(0.0 * rb9.theta[0], *rb9.theta[1:]))
    with pytest.raises(InvalidArgument):
        singular.delta
    with pytest.raises(InvalidArgument):
        solution_network(singular, 1e-3, 1.01 * np.linalg.norm(rb9.f_rb))


def test_theta_is_exactly_symmetric(tmp_path, rb9):
    """ReducedBasis keeps each piece's symmetric part, so the reduced
    operator is exactly symmetric however the basis was made: built, loaded
    from a document whose theta is asymmetric in its last bit, or replaced;
    a piece that is already symmetric is kept bit for bit."""

    def symmetric(rb):
        return all(np.array_equal(t, t.T) for t in rb.theta)

    assert symmetric(rb9)
    kept = dataclasses.replace(rb9)
    assert all(np.array_equal(a, b) for a, b in zip(kept.theta, rb9.theta))
    path = tmp_path / "rb.json"
    save_reduced_network(path, affine_network(sp.csr_matrix((rb9.d, rb9.p)), rb9.f_rb), rb9)
    doc = json.loads(path.read_text())
    t = np.array(doc["reduced_basis"]["theta"][1])
    t[0, 1] = np.nextafter(t[0, 1], np.inf)
    doc["reduced_basis"]["theta"][1] = t.tolist()
    path.write_text(json.dumps(doc))
    _, loaded = load_reduced_network(path)
    assert symmetric(loaded)
    assert loaded.theta[1][0, 1] == loaded.theta[1][1, 0] == (t[0, 1] + t[1, 0]) / 2
    assert symmetric(dataclasses.replace(rb9, theta=(rb9.theta[0], t, *rb9.theta[2:])))


# ------------------------------------------------- parameter-to-operator nets


def test_b_network_zero_parameter_exact(rb9):
    # Theta y is exactly zero at y = 0, leaving the bias vec(lam * theta_0)
    # bit for bit
    net = b_network(rb9)
    out = realize(net, np.zeros(4))
    assert (out == vec(rb9.lam * rb9.theta[0])).all()


def test_b_network_matches_reduced_operator(rb9):
    net = b_network(rb9)
    rng = np.random.default_rng(61)
    for y in [np.eye(4)[0], rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)]:
        want = vec(rb9.lam * reduced_operator(rb9, y))
        np.testing.assert_allclose(realize(net, y), want, rtol=1e-12, atol=1e-15)


def test_b_network_complexity(rb9):
    rep = complexity(b_network(rb9))
    p, d = rb9.p, rb9.d
    assert rep.depth == 1
    assert rep.total_nnz == sum(np.count_nonzero(ti) for ti in rb9.theta)
    assert rep.total_nnz <= (p + 1) * d * d


def _hand_built_operator_layers(rb):
    """b_network written out directly: one affine layer whose column i is
    the column-major vec(lam * theta_i), bias vec(lam * theta_0)."""
    A = np.stack([(rb.lam * ti).T.ravel() for ti in rb.theta[1:]], axis=1)
    return [(sp.csr_matrix(A), (rb.lam * rb.theta[0]).T.ravel())]


def assert_same_layers(net, want):
    assert len(net.layers) == len(want)
    for (A, b), (A_want, b_want) in zip(net.layers, want):
        A_want.sort_indices()
        assert A.shape == A_want.shape
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, key), getattr(A_want, key)), key
        assert np.array_equal(b, b_want)


def test_b_network_weights_are_the_gadget_formula(rb9):
    assert_same_layers(b_network(rb9), _hand_built_operator_layers(rb9))


def test_contraction_network_weights_negate_b_network(rb9):
    [(A, b)] = _hand_built_operator_layers(rb9)
    want = [(-A, vec(np.eye(rb9.d)) - b)]
    assert_same_layers(contraction_network(rb9), want)


def test_contraction_network_matches_and_contracts(rb9):
    net = contraction_network(rb9)
    rng = np.random.default_rng(81)
    for _ in range(10):
        y = rng.uniform(0, 1, 4)
        want = np.eye(rb9.d) - rb9.lam * reduced_operator(rb9, y)
        got = matr(realize(net, y), rb9.d, rb9.d)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(got, 2) <= 1.0 - rb9.delta + _rounding(rb9)


# ------------------------------------------------------------------- rb_net


def _series_plan(rb, eps, C_f):
    """The doubling plan solution_network compiles at (eps, C_f)."""
    return _chebyshev_plan(min(0.9 * eps / C_f / rb.lam, 0.9), rb.delta)


def _chebyshev_iteration(lam, f, R, c):
    """lam f^T prod_k c_k (Q_k + I), Q_0 = R, Q_{k+1} = c_k Q_k^2 - (c_k - 1) I,
    by plain numpy products."""
    W, Q, eye = lam * f, R, np.eye(len(f))
    for ck in c:
        W, Q = ck * (W @ (Q + eye)), ck * (Q @ Q) - (ck - 1.0) * eye
    return W


def test_series_plan_is_the_chebyshev_plan_at_the_series_tolerance(rb9):
    for eps in (0.5, 1e-3, 1e-6):
        C_f = 1.01 * np.linalg.norm(rb9.f_rb)
        assert series_plan(rb9, eps, C_f) == _series_plan(rb9, eps, C_f)
        assert series_plan(rb9, eps, C_f).l <= neumann_length(min(0.9 * eps / C_f / rb9.lam, 0.9), rb9.delta).l


def test_rb_net_scalar_chebyshev_iteration():
    # s = 1 with one snapshot: the reduced operator is exactly mu + y, so
    # rb_net must compute lam f_rb prod_k c_k (q_k + 1), q_0 = 1 - lam (mu + y),
    # which is f_rb (1 - q_l)/(mu + y) ~ f_rb/(mu + y)
    sys = assemble_affine_system(5, 1, 0.5)
    rb = build_reduced_basis(sys, np.array([[0.3]]))
    np.testing.assert_allclose(rb.theta[0], [[0.5]], rtol=1e-12)
    np.testing.assert_allclose(rb.theta[1], [[1.0]], rtol=1e-12)
    eps, C_f = 1e-4, 1.01 * abs(rb.f_rb[0])
    rb_net, _ = solution_network(rb, eps, C_f)
    plan = _series_plan(rb, eps, C_f)
    assert plan.l >= 2 and rb_net.depth == 2 * plan.l + 1
    for y in np.linspace(0.0, 1.0, 100):
        got = realize(rb_net, [y])[0]
        assert abs(got - rb.f_rb[0] / (0.5 + y)) <= 0.9 * eps
        q = np.array([[1 - rb.lam * (0.5 + y)]])
        np.testing.assert_allclose(got, _chebyshev_iteration(rb.lam, rb.f_rb, q, plan.c)[0], rtol=1e-12)


def test_rb_net_depth_and_error_budget(rb9):
    """rb_net has depth 2l + 1 and stays within lam r_l/delta |f_rb| of
    B_y^-1 f_rb, r_l the plan's certified bound on ||Q_l||_2, which the
    length rule keeps below 0.9 eps."""
    eps, C_f = 1e-3, 1.01 * np.linalg.norm(rb9.f_rb)
    rb_net, _ = solution_network(rb9, eps, C_f)
    plan = _series_plan(rb9, eps, C_f)
    assert complexity(rb_net).depth == 2 * plan.l + 1
    tail = rb9.lam * plan.bound / rb9.delta * np.linalg.norm(rb9.f_rb)
    assert tail <= 0.9 * eps
    rng = np.random.default_rng(91)
    for _ in range(10):
        y = rng.uniform(0, 1, 4)
        want = np.linalg.solve(reduced_operator(rb9, y), rb9.f_rb)
        assert np.linalg.norm(realize(rb_net, y) - want) <= tail * (1 + 1e-9)


def test_rb_net_matches_the_chebyshev_recursion(rb9):
    """rb_net computes lam f_rb^T prod_k c_k (Q_k + I) on the contraction
    R_y, by the recursion in numpy; every stage's depth is pinned."""
    eps, C_f = 1e-3, 1.01 * np.linalg.norm(rb9.f_rb)
    rb_net, h_net = solution_network(rb9, eps, C_f)
    plan = _series_plan(rb9, eps, C_f)
    depths = [net.depth for net in (contraction_network(rb9), rb_net, h_net)]
    assert depths == [1, 2 * plan.l + 1, 2 * plan.l + 2]
    rng = np.random.default_rng(75)
    for _ in range(10):
        y = rng.uniform(0, 1, 4)
        R = np.eye(rb9.d) - rb9.lam * reduced_operator(rb9, y)
        want = _chebyshev_iteration(rb9.lam, rb9.f_rb, R, plan.c)
        np.testing.assert_allclose(realize(rb_net, y), want, rtol=1e-12)


# ----------------------------------------------------------- solution_network


def test_solution_network_end_to_end(sys9, rb9):
    eps = 1e-3
    C_f = 1.01 * np.linalg.norm(rb9.f_rb)
    rb_net, h_net = solution_network(rb9, eps, C_f)
    assert rb_net.input_dim == 4 and rb_net.output_dim == rb9.d
    assert h_net.output_dim == sys9.D
    L = np.linalg.cholesky(sys9.G.toarray())
    rng = np.random.default_rng(101)
    for _ in range(20):
        y = rng.uniform(0, 1, 4)
        u = reduced_solve(rb9, y)
        assert np.linalg.norm(realize(rb_net, y) - u) <= eps
        diff = realize(h_net, y) - rb9.V @ u
        assert np.linalg.norm(L.T @ diff) <= eps


def test_solution_network_depth_relation(rb9):
    eps = 1e-3
    C_f = 1.01 * np.linalg.norm(rb9.f_rb)
    rb_net, h_net = solution_network(rb9, eps, C_f)
    l = _chebyshev_plan(min(0.9 * eps / C_f / rb9.lam, 0.9), rb9.delta).l
    assert complexity(rb_net).depth == 2 * l + 1
    assert complexity(h_net).depth == 2 * l + 2


def test_solution_network_shares_prefix(rb9):
    """h_net extends rb_net's prefix by the very same layer objects, so one
    evaluation of that prefix gives both outputs bit for bit."""
    rb_net, h_net = solution_network(rb9, 1e-3, 1.01 * np.linalg.norm(rb9.f_rb))
    assert h_net.depth == rb_net.depth + 1
    for layer, again in zip(rb_net._layers[:-1], h_net._layers[:-2]):
        assert layer is again
    Y = np.random.default_rng(7).uniform(0, 1, (4, 40))
    shared = requ(realize_batch(Network(rb_net.layers[:-1]), Y, chunk=16))
    rb_head = realize_batch(Network(rb_net.layers[-1:]), shared)
    h_head = realize_batch(Network(h_net.layers[-2:]), shared)
    assert np.array_equal(rb_head, realize_batch(rb_net, Y, chunk=16))
    assert np.array_equal(h_head, realize_batch(h_net, Y, chunk=16))


def test_rb_net_middle_joins_share_one_weight_matrix(rb9):
    """rb_net's joins into the repeated Chebyshev stage hold one stored
    matrix beside their own biases, and its lifted view lifts it once."""
    C_f = 1.01 * np.linalg.norm(rb9.f_rb)
    plan = series_plan(rb9, 1e-3, C_f)
    assert plan.l == 5 and len(set(plan.c)) == 5
    rb_net, _ = solution_network(rb9, 1e-3, C_f)
    joins = [2 * k + 3 for k in range(plan.l - 2)]  # behind the contraction layer
    assert len({id(rb_net._layers[k][0]) for k in joins}) == 1
    assert len({rb_net._layers[k][1].tobytes() for k in joins}) == plan.l - 2
    view = rb_net.layers
    assert len({id(view[k][0]) for k in joins}) == 1


def test_solution_network_meets_every_budget(rb9):
    rng = np.random.default_rng(111)
    ys = rng.uniform(0, 1, (10, 4))
    C_f = 1.01 * np.linalg.norm(rb9.f_rb)
    for eps in [0.5, 1e-2, 1e-4]:
        rb_net, _ = solution_network(rb9, eps, C_f)
        worst = max(
            np.linalg.norm(realize(rb_net, y) - reduced_solve(rb9, y)) for y in ys
        )
        assert worst <= eps


def test_solution_network_validates_args(rb9):
    f_norm = np.linalg.norm(rb9.f_rb)
    with pytest.raises(InvalidArgument):
        solution_network(rb9, 1e-3, 0.5 * f_norm)
    with pytest.raises(InvalidArgument):
        solution_network(rb9, 1e-3, 0.0)
    for eps in [1.5, 0.0, 1.0, -0.5, np.nan]:
        with pytest.raises(InvalidArgument):
            solution_network(rb9, eps, 2 * f_norm)


# ------------------------------------------------------------- evaluate_error


def test_evaluate_error_exact_outputs_are_zero(sys9, rb9):
    params = np.random.default_rng(121).uniform(0, 1, (5, 4))
    exact = np.column_stack([reduced_solve(rb9, y) for y in params])
    dummy, _ = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    rep = evaluate_error(
        rb9, dummy, params, sys9.G, "euclidean-rb", target_eps=0.5, outputs=exact
    )
    assert rep.worst_case == 0.0
    assert rep.mode == "euclidean-rb"
    assert rep.err_g_h is None and rep.err_rel_g is None
    assert rep.target_eps == 0.5
    assert rep.rb_truncation == rb9.truncation_sup


def test_evaluate_error_relative_of_zero_outputs(sys9, rb9):
    params = np.random.default_rng(131).uniform(0, 1, (4, 4))
    _, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    zeros = np.zeros((sys9.D, 4))
    rep = evaluate_error(rb9, h_net, params, sys9.G, "relative-g", outputs=zeros)
    np.testing.assert_allclose(rep.err_rel_g, 1.0, rtol=1e-12)
    assert rep.worst_case == pytest.approx(1.0, rel=1e-12)


def test_evaluate_error_modes_agree_on_shared_outputs(sys9, rb9):
    params = np.random.default_rng(141).uniform(0, 1, (6, 4))
    _, h_net = solution_network(rb9, 1e-2, 1.01 * np.linalg.norm(rb9.f_rb))
    from requnet import realize_batch

    outs = realize_batch(h_net, params.T, chunk=4)
    rep_abs = evaluate_error(rb9, h_net, params, sys9.G, "g-norm-h", outputs=outs)
    rep_fresh = evaluate_error(rb9, h_net, params, sys9.G, "g-norm-h")
    np.testing.assert_allclose(rep_abs.err_g_h, rep_fresh.err_g_h, rtol=1e-12)
    assert rep_abs.worst_case <= 1e-2


def test_error_columns_match_the_modes_with_one_check_and_solve(sys9, rb9, monkeypatch):
    rb_net, h_net = solution_network(rb9, 1e-3, 1.01 * np.linalg.norm(rb9.f_rb))
    params = np.random.default_rng(8).uniform(0, 1, (40, rb9.p))  # more than one chunk
    out_rb, out_h = realize_batch(rb_net, params.T), realize_batch(h_net, params.T)
    want = (
        evaluate_error(rb9, rb_net, params, sys9.G, "euclidean-rb", outputs=out_rb).err_euclid_rb,
        evaluate_error(rb9, h_net, params, sys9.G, "g-norm-h", outputs=out_h).err_g_h,
        evaluate_error(rb9, h_net, params, sys9.G, "relative-g", outputs=out_h).err_rel_g,
    )
    each = [reduced_solve(rb9, y).tobytes() for y in params]
    calls = []  # (name, result) of each call
    for name in ("_check_gram", "reduced_solve", "_reduced_solves"):
        real = getattr(pde, name)
        spy = lambda *a, real=real, name=name: calls.append((name, real(*a))) or calls[-1][1]
        monkeypatch.setattr(pde, name, spy)
    got_rb, got_h, got = solution_errors(rb9, rb_net, h_net, params, sys9.G)
    assert [name for name, _ in calls] == ["_reduced_solves", "_check_gram"]
    # one stacked solve, each row the bytes of that parameter's reduced_solve
    assert [u.tobytes() for u in calls[0][1]] == each
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # the shared prefix, evaluated once, gives each network's own outputs
    assert got_rb.tobytes() == out_rb.tobytes() and got_h.tobytes() == out_h.tobytes()


def test_solution_errors_takes_one_pair_of_its_basis(sys9, rb9):
    C_f = 1.01 * np.linalg.norm(rb9.f_rb)
    rb_net, h_net = solution_network(rb9, 1e-3, C_f)
    other_rb, other_h = solution_network(rb9, 1e-3, C_f)  # equal weights, other layer objects
    params = np.random.default_rng(10).uniform(0, 1, (3, rb9.p))
    solution_errors(rb9, rb_net, h_net, params, sys9.G)
    short = dataclasses.replace(rb9, V=rb9.V[:-1])  # h_net emits a row more than V has
    for rb, net_rb, net_h in [
        (rb9, rb_net, other_h), (rb9, other_rb, h_net), (rb9, h_net, rb_net), (short, rb_net, h_net)
    ]:
        with pytest.raises(InvalidArgument, match="not a solution_network pair"):
            solution_errors(rb, net_rb, net_h, params, sys9.G)
    with pytest.raises(InvalidArgument, match="at least one test parameter"):
        solution_errors(rb9, rb_net, h_net, np.zeros((0, rb9.p)), sys9.G)
    with pytest.raises(DimensionMismatch):
        solution_errors(rb9, rb_net, h_net, params[:, 1:], sys9.G)


def test_stacked_reduced_solve_runs_in_chunks_with_a_stacked_right_hand_side(rb9, monkeypatch):
    C = pde._SOLVE_CHUNK
    params = np.random.default_rng(9).uniform(0, 1, (2 * C + 22, rb9.p))
    each = [reduced_solve(rb9, y).tobytes() for y in params]
    shapes = []  # (a.shape, b.shape) of each LAPACK call
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append((a.shape, b.shape)) or real(a, b))
    got = pde._reduced_solves(rb9, params)
    assert [a for a, _ in shapes] == [(n, rb9.d, rb9.d) for n in (C, C, 22)]
    # b has as many dimensions as a, which numpy 1.x and 2.x both read as a stack of columns
    assert all(b == (1, rb9.d, 1) for _, b in shapes)
    assert [u.tobytes() for u in got] == each


def test_stacked_reduced_solve_raises_on_one_singular_operator(rb9):
    # theta[0] + 1 * (-theta[0]) is exactly zero at the second parameter only
    rb = dataclasses.replace(rb9, theta=(rb9.theta[0], -rb9.theta[0], *rb9.theta[2:]))
    params = np.array([[0.5, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    reduced_solve(rb, params[0])
    for solve in (lambda: reduced_solve(rb, params[1]), lambda: pde._reduced_solves(rb, params)):
        with pytest.raises(SingularSystem):
            solve()
    rb_net, _ = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    with pytest.raises(SingularSystem):
        evaluate_error(rb, rb_net, params, None, "euclidean-rb", outputs=np.zeros((rb.d, 2)))


def test_evaluate_error_validation(sys9, rb9):
    params = np.zeros((2, 4))
    rb_net, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    with pytest.raises(InvalidArgument):
        evaluate_error(rb9, rb_net, params, sys9.G, "no-such-mode")
    with pytest.raises(DimensionMismatch):
        evaluate_error(rb9, rb_net, params, sys9.G, "g-norm-h")
    with pytest.raises(DimensionMismatch):
        evaluate_error(rb9, h_net, params, sys9.G, "euclidean-rb")
    with pytest.raises(DimensionMismatch):
        evaluate_error(rb9, rb_net, np.zeros((2, 3)), sys9.G, "euclidean-rb")
    # given outputs skip realize_batch's input check; the reduced solve rejects NaN
    params[1, 2] = np.nan
    for net, mode in ((rb_net, "euclidean-rb"), (h_net, "g-norm-h"), (h_net, "relative-g")):
        with pytest.raises(InvalidArgument):
            evaluate_error(rb9, net, params, sys9.G, mode, outputs=np.zeros((net.output_dim, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_error_rejects_non_finite_outputs(sys9, rb9, bad):
    params = np.random.default_rng(151).uniform(0, 1, (3, 4))
    rb_net, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    for net, mode in ((rb_net, "euclidean-rb"), (h_net, "g-norm-h"), (h_net, "relative-g")):
        outputs = np.zeros((net.output_dim, 3))
        outputs[-1, 1] = bad
        with pytest.raises(NonFiniteEntry):
            evaluate_error(rb9, net, params, sys9.G, mode, outputs=outputs)


def test_evaluate_error_g_norms_match_cholesky_oracle(sys9, rb9):
    params = np.random.default_rng(131).uniform(0, 1, (6, 4))
    lifted = rb9.V @ np.column_stack([reduced_solve(rb9, y) for y in params])
    outs = lifted + np.random.default_rng(132).normal(0.0, 1e-3, lifted.shape)
    _, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    L = np.linalg.cholesky(sys9.G.toarray())
    want_abs = np.linalg.norm(L.T @ (lifted - outs), axis=0)
    want_rel = want_abs / np.linalg.norm(L.T @ lifted, axis=0)
    rep_abs = evaluate_error(rb9, h_net, params, sys9.G, "g-norm-h", outputs=outs)
    rep_rel = evaluate_error(rb9, h_net, params, sys9.G, "relative-g", outputs=outs)
    np.testing.assert_allclose(rep_abs.err_g_h, want_abs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep_rel.err_rel_g, want_rel, rtol=1e-12, atol=0)


def test_g_norms_match_the_column_loop_byte_for_byte(sys9, rb9):
    params = np.random.default_rng(133).uniform(0, 1, (64, 4))
    lifted = rb9.V @ np.column_stack([reduced_solve(rb9, y) for y in params])
    noise = np.random.default_rng(134).normal(0.0, 1e-3, lifted.shape)
    for E in (lifted, noise, lifted[:, :1]):
        want = np.array([_g_norm(sys9.G, e) for e in E.T])
        assert _g_norms(sys9.G, E).tobytes() == want.tobytes()


def test_parameter_sets_reject_non_real(sys9, rb9):
    bad = np.full((2, 4), 0.5 + 1j)
    with pytest.raises(InvalidArgument):
        build_reduced_basis(sys9, bad)
    rb_net, _ = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    with pytest.raises(InvalidArgument):
        evaluate_error(rb9, rb_net, bad, sys9.G, "euclidean-rb", outputs=np.zeros((rb9.d, 2)))


def test_evaluate_error_rejects_empty_test_set(sys9, rb9):
    rb_net, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    for net, mode in ((rb_net, "euclidean-rb"), (h_net, "g-norm-h"), (h_net, "relative-g")):
        with pytest.raises(InvalidArgument):
            evaluate_error(rb9, net, np.zeros((0, 4)), sys9.G, mode)


def _not_positive_definite(G, kind):
    D = G.shape[0]
    if kind == "negated":
        return -G
    if kind == "indefinite":
        return (G - sp.identity(D)).tocsr()
    if kind == "singular":
        keep = sp.diags(np.r_[np.ones(5), 0.0, np.ones(D - 6)])
        return (keep @ G @ keep).tocsr()
    # Indefinite with a zero diagonal entry, so a diagonal pivot vanishes.
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return sp.block_diag([swap, sp.identity(D - 2)], format="csr")


@pytest.mark.parametrize("mode", ["g-norm-h", "relative-g"])
@pytest.mark.parametrize("kind", ["negated", "indefinite", "singular", "zero-diagonal"])
def test_evaluate_error_rejects_gram_not_positive_definite(sys9, rb9, mode, kind):
    params = np.random.default_rng(141).uniform(0, 1, (3, 4))
    lifted = rb9.V @ np.column_stack([reduced_solve(rb9, y) for y in params])
    _, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    bad = _not_positive_definite(sys9.G, kind)
    with pytest.raises(SingularSystem):
        evaluate_error(rb9, h_net, params, bad, mode, outputs=0.5 * lifted)


class _NoDenseCSR(sp.csr_matrix):
    def toarray(self, *args, **kwargs):
        raise AssertionError("G was densified")

    def todense(self, *args, **kwargs):
        raise AssertionError("G was densified")


def test_evaluate_error_never_densifies_gram(sys9, rb9):
    params = np.random.default_rng(151).uniform(0, 1, (3, 4))
    lifted = rb9.V @ np.column_stack([reduced_solve(rb9, y) for y in params])
    _, h_net = solution_network(rb9, 0.5, 1.01 * np.linalg.norm(rb9.f_rb))
    G = _NoDenseCSR(sys9.G)
    for mode in ["g-norm-h", "relative-g"]:
        rep = evaluate_error(rb9, h_net, params, G, mode, outputs=0.5 * lifted)
        ref = evaluate_error(rb9, h_net, params, sys9.G, mode, outputs=0.5 * lifted)
        assert rep.worst_case == ref.worst_case > 0.0


# ----------------------------------------------------------------------- IO


def test_write_error_csv_layout(tmp_path):
    path = tmp_path / "errors.csv"
    params = np.array([[0.25, 0.5], [0.75, 1.0]])
    write_error_csv(path, params, [1e-3, 2e-3], [3e-3, 4e-3], [5e-3, 6e-3])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y_1", "y_2", "err_euclid_rb", "err_g_h", "err_rel_g"]
    assert len(rows) == 4
    assert rows[1] == ["0.25", "0.5", "0.001", "0.003", "0.005"]
    assert rows[3][0] == "MAX" and rows[3][1] == ""
    assert [float(v) for v in rows[3][2:]] == [2e-3, 4e-3, 6e-3]


def test_write_error_csv_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        write_error_csv("/tmp/never.csv", np.zeros((2, 1)), [0.1], [0.1, 0.2], [0.3, 0.4])


def test_write_error_csv_rejects_empty(tmp_path):
    path = tmp_path / "errors.csv"
    with pytest.raises(InvalidArgument):
        write_error_csv(path, np.zeros((0, 2)), [], [], [])
    assert not path.exists()


def test_save_load_reduced_round_trip(tmp_path):
    sys = assemble_affine_system(5, 1, 0.5)
    rb = build_reduced_basis(sys, np.array([[0.3]]))
    rb_net, _ = solution_network(rb, 1e-2, 1.01 * np.linalg.norm(rb.f_rb))
    path = tmp_path / "solution.json"
    save_reduced_network(path, rb_net, rb)

    net2, rb2 = load_reduced_network(path)
    assert (rb2.V == rb.V).all()
    assert all((a == b).all() for a, b in zip(rb2.theta, rb.theta))
    assert (rb2.f_rb == rb.f_rb).all()
    assert rb2.alpha == rb.alpha and rb2.beta == rb.beta
    assert rb2.lam == 2.0 / (rb2.alpha + rb2.beta)
    assert rb2.truncation_sup == rb.truncation_sup
    for y in np.linspace(0, 1, 7):
        assert (realize(net2, [y]) == realize(rb_net, [y])).all()


def test_save_load_reduced_keeps_the_stored_layers(tmp_path, rb9):
    path = tmp_path / "solution.json"
    for net in solution_network(rb9, 1e-3, 1.01 * np.linalg.norm(rb9.f_rb)):
        save_reduced_network(path, net, rb9)
        loaded, _ = load_reduced_network(path)
        assert loaded.depth == net.depth
        for (A, b, tag), (A_want, b_want, tag_want) in zip(loaded._layers, net._layers):
            assert tag == tag_want and A.shape == A_want.shape
            assert A.data.tobytes() == A_want.data.tobytes()
            assert np.array_equal(A.indices, A_want.indices)
            assert np.array_equal(A.indptr, A_want.indptr)
            assert b.tobytes() == b_want.tobytes()


def test_load_reduced_network_without_truncation_sup(tmp_path, sys9):
    rng = np.random.default_rng(303)
    rb = build_reduced_basis(sys9, rng.uniform(0, 1, (8, 4)), drop_tol=0.5)
    assert rb.truncation_sup > 0.0
    path = tmp_path / "solution.json"
    save_reduced_network(path, affine_network(sp.csr_matrix((rb.d, rb.p)), rb.f_rb), rb)
    assert load_reduced_network(path)[1].truncation_sup == rb.truncation_sup

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["reduced_basis"]["truncation_sup"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    net2, rb2 = load_reduced_network(path)
    assert rb2.truncation_sup is None
    assert (rb2.V == rb.V).all() and (rb2.f_rb == rb.f_rb).all()


@pytest.mark.parametrize("text", [b"{not json", b"", b"\xff\xfe{}"])
def test_load_reduced_network_rejects_non_json(tmp_path, text):
    path = tmp_path / "solution.json"
    path.write_bytes(text)
    with pytest.raises(InvalidArgument, match="malformed"):
        load_reduced_network(path)


# A reduced-network file in the dense row-major layer layout written before
# layers were stored as CSR arrays; such files must keep loading.
DENSE_REDUCED_DOC = (
    '{"input_dim": 1, "layers": [{"rows": 2, "cols": 1, "A": [1.0, -1.0], '
    '"b": [0.0, 0.1]}, {"rows": 1, "cols": 2, "A": [0.25, 0.0], '
    '"b": [3.96805425182854]}], "reduced_basis": {"V": [[0.6], [0.8]], '
    '"theta": [[[0.5000000000000002]], [[1.0000000000000004]]], '
    '"f_rb": [3.96805425182854], "alpha": 1.5, "beta": 0.5, "truncation_sup": 0.0}}'
)


def test_dense_reduced_document_still_loads(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(DENSE_REDUCED_DOC)
    net, rb = load_reduced_network(path)
    assert np.array_equal(net.layers[0][0].toarray(), [[1.0], [-1.0]])
    assert np.array_equal(net.layers[0][1], [0.0, 0.1])
    assert np.array_equal(net.layers[1][0].toarray(), [[0.25, 0.0]])
    assert np.array_equal(net.layers[1][1], [3.96805425182854])
    assert complexity(net).layer_nnz == (3, 2)
    assert np.array_equal(rb.V, [[0.6], [0.8]]) and rb.d == 1
    assert rb.theta[0][0, 0] == 0.5000000000000002
    assert rb.theta[1][0, 0] == 1.0000000000000004
    assert (rb.alpha, rb.beta, rb.lam, rb.truncation_sup) == (1.5, 0.5, 1.0, 0.0)
    assert realize(net, [2.0])[0] == 0.25 * 2.0**2 + 3.96805425182854


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("reduced_basis"),
        lambda doc: doc["reduced_basis"].pop("V"),
        lambda doc: doc["reduced_basis"].pop("alpha"),
        lambda doc: doc["reduced_basis"].update(V=[0.6, 0.8]),
        lambda doc: doc["reduced_basis"].update(theta=3),
        lambda doc: doc["reduced_basis"].update(f_rb="f"),
        lambda doc: doc.update(reduced_basis=[1.0]),
        lambda doc: doc["layers"][0].pop("b"),
    ],
    ids=["no-payload", "no-V", "no-alpha", "V-1d", "theta-3", "f_rb-text", "payload-list", "no-b"],
)
def test_load_reduced_rejects_malformed_document(tmp_path, edit):
    doc = json.loads(DENSE_REDUCED_DOC)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgument):
        load_reduced_network(path)


def _poisoned(a, value):
    a = np.array(a)
    a.flat[a.size // 2] = value
    return a


@pytest.mark.parametrize(
    "edit",
    [
        lambda rb: dict(V=rb.V[:, :, None]),
        lambda rb: dict(theta=rb.theta[:1]),
        lambda rb: dict(theta=tuple(t[:3, :3] for t in rb.theta)),
        lambda rb: dict(theta=tuple(t[:1] for t in rb.theta)),  # t + t^T would broadcast to d x d
        lambda rb: dict(f_rb=rb.f_rb[:-1]),
        lambda rb: dict(theta=rb.theta[:2]),
        lambda rb: dict(V=rb.V[:-1]),
        lambda rb: dict(V=_poisoned(rb.V, np.nan)),
        lambda rb: dict(theta=(_poisoned(rb.theta[0], np.inf),) + rb.theta[1:]),
        lambda rb: dict(f_rb=_poisoned(rb.f_rb, -np.inf)),
        lambda rb: dict(alpha=np.nan),
        lambda rb: dict(beta=np.inf),
        lambda rb: dict(truncation_sup=np.nan),
        lambda rb: dict(truncation_sup=np.inf),
        lambda rb: dict(alpha=-rb.beta),
        lambda rb: dict(alpha=5e-324, beta=0.0),
        lambda rb: dict(alpha=1e-323, beta=5e-324),  # 0 < beta < alpha, lam = inf
        lambda rb: dict(beta=rb.alpha),
        lambda rb: dict(beta=rb.alpha + 1.0),
        lambda rb: dict(beta=-rb.beta),
    ],
    ids=[
        "V-3d", "theta-one-entry", "theta-3x3", "theta-one-row", "f_rb-short", "p-mismatch",
        "V-one-row-fewer", "V-nan", "theta-inf", "f_rb-minus-inf", "alpha-nan", "beta-inf", "truncation_sup-nan",
        "truncation_sup-inf", "alpha-plus-beta-zero", "alpha-tiny-beta-zero", "lam-inf", "beta-equals-alpha",
        "beta-above-alpha", "beta-negative",
    ],
)
def test_load_reduced_rejects_inconsistent_payload(tmp_path, rb9, edit):
    """Each payload parses, but disagrees with itself or with the network
    (p = 4 inputs to D outputs), or holds a non-finite number."""
    net = affine_network(np.ones((rb9.V.shape[0], rb9.p)))
    path = tmp_path / "inconsistent.json"
    save_reduced_network(path, net, rb9)
    assert load_reduced_network(path)[1].d == rb9.d
    save_reduced_network(path, net, dataclasses.replace(rb9, **edit(rb9)))
    with pytest.raises(InvalidArgument):
        load_reduced_network(path)
