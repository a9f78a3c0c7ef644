"""Parametric diffusion on the unit square, reduced bases, and the
network constructions that approximate the parameter-to-solution map.

The model problem is a chessboard-coefficient diffusion: (0,1)^2 is split
into an s-by-s grid of subdomains, the diffusion coefficient is
a_y(x) = mu + sum_i y_i on subdomain i with y in [0,1]^p, p = s^2, and the
right-hand side is f(x) = 20 + 10 x1 - 5 x2.  Discretization uses P1
finite elements on a uniform right-triangle mesh with homogeneous
Dirichlet boundary.  The Gram matrix G is the unit-coefficient stiffness
matrix (the H^1_0 seminorm), which makes beta = mu and alpha = mu + 1
exact spectral bounds for every parametric operator in the box.

The reduced basis is the strong greedy over the snapshots: each step
takes the snapshot whose G-norm residual against the current basis is
largest, until every residual is below drop_tol times the largest
snapshot norm.

The network side is affine -> doubling chain: one exact layer for the
contraction R_y = I - lam * B^rb_y with the optimal Richardson scaling
lam = 2/(alpha + beta), then the chain of matrixnets carrying the row
lam f_rb^T through the Chebyshev semi-iteration on the symmetric R_y, so
the load rides in the chain's state and no inverse matrix is formed.  The
epsilon ledger has two entries: the operator layer is exact, so the
truncated iteration gets (1 - _ROUNDING_SHARE) epsilon = 0.9 epsilon, and
the rest is held back for the rounding of the evaluation in floating
point.  The iteration runs at the margin delta that ReducedBasis
certifies from its own pieces, so the end-to-end error against the
reduced solve stays below 0.9 epsilon in exact arithmetic.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .calculus import affine_network, concat, sparse_concat
from .errors import (
    DimensionMismatch,
    EmptySnapshotSet,
    InvalidArgument,
    NonFiniteEntry,
    SingularSystem,
)
from .matrixnets import _doubling_plan, _neumann_chain, vec
from .network import _evaluate, _is_size, _network_doc, _network_from_doc, _read_doc, realize_batch

__all__ = [
    "AffineSystem",
    "ReducedBasis",
    "ErrorReport",
    "assemble_affine_system",
    "assemble_load",
    "solve_high_fidelity",
    "build_reduced_basis",
    "reduced_solve",
    "b_network",
    "contraction_network",
    "series_plan",
    "solution_network",
    "evaluate_error",
    "solution_errors",
    "write_error_csv",
    "save_reduced_network",
    "load_reduced_network",
]


@dataclass(frozen=True)
class AffineSystem:
    """Assembled affine-parametric system B_y = B0 + sum_i y_i Bs[i].

    B0 is the shift part (mu times the unit stiffness matrix), Bs[i] the
    stiffness restricted to subdomain i; their sum over all i equals the
    unit stiffness matrix G, which doubles as the Gram matrix of the
    H^1_0 seminorm.  All matrices are D x D CSR over the interior nodes.
    """

    grid_n: int
    s: int
    mu: float
    D: int
    p: int
    B0: sp.csr_matrix
    Bs: tuple
    f: np.ndarray
    G: sp.csr_matrix

    @functools.cached_property
    def _band_plan(self):
        """B_y's LAPACK upper band storage, planned once per system.

        Returns ((bw + 1, D), pieces): bw is the largest j - i over the
        stored entries of all pieces (grid_n for the row-major node
        numbering), and pieces holds, for B0, Bs[0], ..., Bs[p-1] in turn,
        the flat positions in that storage of the piece's upper-triangle
        entries (B[i, j] sits at row bw + i - j of column j) and their
        values.  Positions are unique within a piece.  Each piece must be
        exactly symmetric, since only the upper band is read; one that is
        not raises InvalidArgument.
        """
        uppers = []
        for k, B in enumerate((self.B0, *self.Bs)):
            if (B != B.T).nnz:
                name = "B0" if k == 0 else f"Bs[{k - 1}]"
                raise InvalidArgument(f"high-fidelity operator piece {name} is not symmetric")
            U = sp.triu(B, format="coo")
            U.sum_duplicates()
            uppers.append(U)
        bw = max(int((U.col - U.row).max(initial=0)) for U in uppers)
        shape = (bw + 1, self.D)
        pieces = tuple(
            (np.ravel_multi_index((bw + U.row - U.col, U.col), shape), U.data) for U in uppers
        )
        return shape, pieces


@dataclass(frozen=True)
class ReducedBasis:
    """G-orthonormal reduced basis and the reduced-space components.

    theta[0] = V^T B0 V and theta[i] = V^T Bs[i-1] V, kept exactly
    symmetric (each piece t is stored as (t + t^T)/2, which is t itself
    when t is symmetric), so the reduced operator at parameter y is the
    symmetric theta[0] + sum_i y_i theta[i].  alpha and
    beta are the coefficient sup/inf.  Derived: d; lam = 2/(alpha + beta),
    the optimal Richardson scaling, which makes I - lam*B a contraction of
    margin 2 beta/(alpha + beta) when the reduced spectrum lies in
    [beta, alpha]; and delta, that margin as certified from theta itself
    (see delta).  truncation_sup is the largest G-norm residual of any
    snapshot against span(V) when the greedy stopped (None when the basis
    was loaded from a document that does not record it).
    """

    V: np.ndarray
    theta: tuple
    f_rb: np.ndarray
    alpha: float
    beta: float
    truncation_sup: float | None = 0.0

    def __post_init__(self):
        # exactly symmetric pieces, as solution_network and delta (eigvalsh
        # reads one triangle) need; a non-square piece is left for the shape check
        sym = tuple(
            (t + t.T) / 2 if t.shape == t.T.shape else t for t in map(np.asarray, self.theta)
        )
        object.__setattr__(self, "theta", sym)

    @property
    def p(self):
        return len(self.theta) - 1

    @property
    def d(self):
        return self.V.shape[1]

    @property
    def lam(self):
        return 2.0 / (self.alpha + self.beta)

    @functools.cached_property
    def delta(self):
        """Certified margin: ||I - lam B^rb_y||_2 <= 1 - delta on the box.

        By Weyl's inequality, with n = sum_i min(lambda_min(theta[i]), 0)
        (0 in exact arithmetic, as each theta[i] is PSD), every eigenvalue
        of B^rb_y for y in [0, 1]^p lies in [lo, hi], lo = lambda_min(theta[0])
        + n and hi = lambda_max(theta[0] + ... + theta[p]) - n, so
        delta = 1 - max(|1 - lam lo|, |1 - lam hi|).  This reads the rounded
        reduced pieces rather than assuming [beta, alpha]: lambda_min(theta[0])
        can fall below beta in the last bits.  A delta outside (0, 1)
        raises InvalidArgument.
        """
        eigs = [np.linalg.eigvalsh(t) for t in self.theta]
        neg = sum(min(float(e[0]), 0.0) for e in eigs[1:])
        lo = float(eigs[0][0]) + neg
        hi = float(np.linalg.eigvalsh(sum(self.theta))[-1]) - neg
        delta = 1.0 - max(abs(1.0 - self.lam * lo), abs(1.0 - self.lam * hi))
        if not 0.0 < delta < 1.0:
            raise InvalidArgument(
                f"reduced spectrum bounds [{lo:.6g}, {hi:.6g}] certify no contraction "
                f"margin in (0, 1) at lam = {self.lam:.6g} (got {delta:.6g})"
            )
        return delta


@dataclass(frozen=True)
class ErrorReport:
    """Per-parameter network errors against the reduced solve.

    Exactly one of the three error columns is populated, matching `mode`;
    worst_case is its maximum.  rb_truncation carries the reduced-basis
    truncation residual through to the report for context.
    """

    params: np.ndarray
    mode: str
    err_euclid_rb: np.ndarray | None
    err_g_h: np.ndarray | None
    err_rel_g: np.ndarray | None
    worst_case: float
    target_eps: float | None
    rb_truncation: float | None


def _default_load(x, y):
    return 20.0 + 10.0 * x - 5.0 * y


def _mesh_triangles(grid_n):
    """Vertex grid-index triples for the two triangles of every cell.

    Cells are unit squares of the (grid_n+1)^2 grid; each splits along the
    (i,j)-(i+1,j+1) diagonal.  Returns two (ncells, 3, 2) integer arrays.
    """
    side = grid_n + 1
    cx, cy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    cx = cx.ravel()
    cy = cy.ravel()

    def verts(*corners):
        return np.stack(
            [np.stack([cx + dx, cy + dy], axis=1) for dx, dy in corners], axis=1
        )

    lower = verts((0, 0), (1, 0), (1, 1))
    upper = verts((0, 0), (1, 1), (0, 1))
    return lower, upper


def _local_stiffness(tri_xy):
    """Exact P1 stiffness of one triangle with vertex coordinates (3, 2)."""
    x = tri_xy[:, 0]
    y = tri_xy[:, 1]
    area = 0.5 * abs((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area), area


def _dof_index(verts, grid_n):
    """Interior-node numbering (row-major by y then x); boundary -> -1."""
    ix = verts[..., 0]
    iy = verts[..., 1]
    interior = (ix >= 1) & (ix <= grid_n) & (iy >= 1) & (iy <= grid_n)
    return np.where(interior, (iy - 1) * grid_n + (ix - 1), -1)


def _stiffness_coo(dofs, kloc, D):
    """Accumulate one constant local matrix over many triangles (CSR)."""
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = np.tile(kloc.ravel(), dofs.shape[0])
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(D, D))
    return mat.tocsr()


def _check_grid(grid_n):
    if not _is_size(grid_n, 3):
        raise InvalidArgument(f"grid_n must be an integer >= 3, got {grid_n}")


def _validate_system_args(grid_n, s, mu):
    _check_grid(grid_n)
    if not _is_size(s):
        raise InvalidArgument(f"chessboard side s must be an integer >= 1, got {s}")
    if not np.isfinite(mu) or mu <= 0:
        raise InvalidArgument(f"shift mu must be positive, got {mu}")


def assemble_load(grid_n, func):
    """Interior load vector for a callable f(x, y) on the same P1 mesh.

    Uses the exact quadrature for linear integrands, area/12 * (2 f_a +
    f_b + f_c) against each hat; for non-linear f this is the usual
    vertex-based approximation.  func must accept numpy arrays.
    """
    _check_grid(grid_n)
    h = 1.0 / (grid_n + 1)
    D = grid_n * grid_n
    f = np.zeros(D)
    for tris in _mesh_triangles(grid_n):
        dofs = _dof_index(tris, grid_n)
        xy = tris * h
        fv = func(xy[:, :, 0], xy[:, :, 1])
        _, area = _local_stiffness(xy[0])
        weights = area / 12.0 * (fv + fv.sum(axis=1, keepdims=True))
        for a in range(3):
            keep = dofs[:, a] >= 0
            np.add.at(f, dofs[keep, a], weights[keep, a])
    return f


def assemble_affine_system(grid_n, s, mu):
    """P1 assembly of the chessboard-coefficient diffusion problem.

    grid_n x grid_n interior nodes, s x s coefficient subdomains, shift
    mu > 0.  Each element contributes to the subdomain containing its
    centroid.  Returns the unit stiffness both as the Gram matrix G and,
    scaled by mu, as the parameter-independent part B0.
    """
    _validate_system_args(grid_n, s, mu)
    grid_n, s = int(grid_n), int(s)
    h = 1.0 / (grid_n + 1)
    D = grid_n * grid_n
    p = s * s

    sub_parts = [[] for _ in range(p)]
    for tris in _mesh_triangles(grid_n):
        dofs = _dof_index(tris, grid_n)
        xy = tris * h
        kloc, _ = _local_stiffness(xy[0])
        centroid = xy.mean(axis=1)
        col = np.clip((centroid[:, 0] * s).astype(int), 0, s - 1)
        row = np.clip((centroid[:, 1] * s).astype(int), 0, s - 1)
        sub = row * s + col
        for i in range(p):
            sub_parts[i].append(_stiffness_coo(dofs[sub == i], kloc, D))

    Bs = tuple((a + b).tocsr() for a, b in sub_parts)
    # local entries are 0, +-1/2 or 1, so the subdomain sum is exact
    K = sum(Bs)
    f = assemble_load(grid_n, _default_load)
    return AffineSystem(
        grid_n=grid_n,
        s=s,
        mu=float(mu),
        D=D,
        p=p,
        B0=(mu * K).tocsr(),
        Bs=Bs,
        f=f,
        G=K,
    )


def _real(a, what):
    """a as a float64 array; complex, text or object entries raise
    InvalidArgument instead of being cast (or parsed) to real numbers."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise InvalidArgument(f"{what} must be real numbers, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _parameter(y, p):
    """One parameter of either solve: a real, finite vector of length p."""
    y = _real(y, "parameter")
    if y.shape != (p,):
        raise DimensionMismatch(f"parameter has shape {y.shape}, expected ({p},)")
    if not np.isfinite(y).all():
        raise InvalidArgument("parameter has non-finite entries")
    return y


def _parameters(Y, p, what, empty):
    """A set of parameters: a real (n, p) matrix with n >= 1, where a vector
    reads as n rows if p == 1.  No entries at all raise `empty`, another
    shape DimensionMismatch."""
    Y = _real(Y, f"{what} parameters")
    if Y.ndim == 1 and p == 1:
        Y = Y.reshape(-1, 1)
    if Y.size == 0:
        raise empty(f"need at least one {what} parameter")
    if Y.ndim != 2 or Y.shape[1] != p:
        raise DimensionMismatch(f"{what} parameters have shape {Y.shape}, expected (*, {p})")
    return Y


def solve_high_fidelity(sys, y):
    """Banded Cholesky solve of B_y u = f at one parameter.

    B_y's upper band is scattered from the system's band plan, B0's values
    first and then y_i times those of Bs[i-1], in the order of the sum
    B0 + y_1 Bs[0] + ... .  An asymmetric piece raises InvalidArgument at
    any parameter; a B_y that is not positive definite (mu + y_i < 0 on
    some subdomain, say) raises SingularSystem.  Costs O(D * bw^2) time and
    (bw + 1) * D doubles with bw the half-bandwidth.
    """
    import scipy.linalg as sla  # imported on first use: only the snapshot solves need it

    y = _parameter(y, sys.p)
    shape, ((pos, vals), *terms) = sys._band_plan
    ab = np.zeros(shape)
    band = ab.reshape(-1)
    band[pos] = vals
    for yi, (pos, vals) in zip(y, terms):
        band[pos] += yi * vals
    try:
        u = sla.solveh_banded(ab, sys.f, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"high-fidelity operator is not positive definite: {exc}"
        ) from exc
    if not np.isfinite(u).all():
        raise SingularSystem("high-fidelity solve produced non-finite values")
    return u


def _g_norms(G, E, GE=None):
    """G-norm sqrt(e^T G e) of every column e of E (rounding below zero
    reads as 0), GE = G @ E unless given: one reduction over E * GE.

    einsum adds the rows of a C-ordered batch of two or more columns in
    order, the same order for every column; a lone column would be summed
    as one contiguous dot instead, so it is summed beside a copy of itself.
    A column's norm thus has the same bits alone as in any batch.
    """
    if GE is None:
        GE = G @ E
    n = E.shape[1]
    if n == 1:
        E, GE = np.repeat(E, 2, axis=1), np.repeat(GE, 2, axis=1)
    sq = np.einsum("ij,ij->j", np.ascontiguousarray(E), np.ascontiguousarray(GE))[:n]
    return np.sqrt(np.maximum(sq, 0.0))


def _g_norm(G, v):
    """_g_norms of one vector."""
    return float(_g_norms(G, v[:, None])[0])


def build_reduced_basis(sys, snapshot_params, drop_tol=1e-8):
    """Snapshot solves plus the strong greedy in the G-inner product.

    With R the snapshots (one column each), every step takes the first
    column of largest G-norm residual, orthonormalizes it against the
    basis (one more projection pass, a re-orthogonalization that keeps
    V^T G V at the 1e-10 level even when snapshots are numerically
    dependent) and removes the new vector v from every column,
    R <- R - v (G v)^T R, and from G R the same way: one BLAS-2 step per
    basis vector, at most one vector per snapshot.  It stops when the
    largest residual falls below drop_tol times the largest snapshot G-norm
    (or to zero); that final largest residual, over all snapshots, is
    truncation_sup.
    """
    params = _parameters(snapshot_params, sys.p, "snapshot", EmptySnapshotSet)
    if not (np.isfinite(drop_tol) and drop_tol >= 0):
        raise InvalidArgument(f"drop_tol must be a nonnegative real, got {drop_tol}")

    from scipy.linalg.blas import dger  # loaded with scipy.linalg by the solves

    G = sys.G
    R = np.column_stack([solve_high_fidelity(sys, y) for y in params])
    GR = G @ R
    norms = _g_norms(G, R, GR)
    floor = drop_tol * norms.max()
    D, n = R.shape
    V, GV = np.empty((D, n)), np.empty((D, n))  # v and G v of the d basis vectors
    d = 0
    while d < n:  # one basis vector per snapshot at most
        j = int(np.argmax(norms))  # the first of the largest residuals
        if norms[j] < floor or norms[j] == 0.0:
            break
        v = R[:, j] - V[:, :d] @ (GV[:, :d].T @ R[:, j])
        v /= _g_norm(G, v)
        V[:, d], GV[:, d] = v, G @ v
        c = GV[:, d] @ R
        # R -= v c^T and GR -= (G v) c^T as rank-1 updates in place on the
        # Fortran-ordered R^T and GR^T, with no D x n temporary
        dger(-1.0, c, v, a=R.T, overwrite_a=True)
        dger(-1.0, c, GV[:, d], a=GR.T, overwrite_a=True)
        d += 1
        norms = _g_norms(G, R, GR)

    if d == 0:
        raise EmptySnapshotSet(
            "every snapshot fell below drop_tol; no basis vector survives"
        )
    V = np.ascontiguousarray(V[:, :d])
    # einsum, unlike a threaded GEMM, sums in an order free of the thread count
    theta = tuple(np.einsum("ki,kj->ij", V, B @ V) for B in (sys.B0, *sys.Bs))
    return ReducedBasis(
        V=V,
        theta=theta,
        f_rb=V.T @ sys.f,
        alpha=sys.mu + 1.0,
        beta=sys.mu,
        truncation_sup=float(norms.max()),
    )


_SOLVE_CHUNK = 64  # operators per stacked solve, so its memory is O(64 d^2) at any n


def _reduced_solves(rb, Y):
    """Direct solves of the d x d reduced systems at the rows of Y (n x p),
    stacked _SOLVE_CHUNK at a time: each operator theta[0] + y_1 theta[1]
    + ... is formed with the additions in the order of that sum."""
    if not np.isfinite(Y).all():
        raise InvalidArgument("parameter has non-finite entries")
    out = np.empty((len(Y), rb.d))
    f = rb.f_rb[None, :, None]  # as many dimensions as the stack: numpy 1.x and 2.x agree
    for s in range(0, len(Y), _SOLVE_CHUNK):
        rows = Y[s : s + _SOLVE_CHUNK]
        th = np.repeat(rb.theta[0][None], len(rows), axis=0)
        for yi, ti in zip(rows.T, rb.theta[1:]):
            th += yi[:, None, None] * ti
        try:
            out[s : s + len(rows)] = np.linalg.solve(th, f)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"reduced operator is singular: {exc}") from exc
    return out


def reduced_solve(rb, y):
    """Direct solve of the d x d reduced system at one parameter."""
    return _reduced_solves(rb, _parameter(y, rb.p)[None])[0]


def b_network(rb):
    """Affine layer mapping y to vec(lam * B^rb_y) exactly.

    y -> Theta y + vec(lam*theta_0), with columns vec(lam*theta_i); depth
    1 and at most (p + 1) d^2 nonzeros.
    """
    Theta = np.column_stack([vec(rb.lam * ti) for ti in rb.theta[1:]])
    return affine_network(Theta, vec(rb.lam * rb.theta[0]))


def contraction_network(rb):
    """Affine layer mapping y to vec(I - lam * B^rb_y) exactly.

    b_network followed by v -> vec I - v; the output is the Neumann-series
    contraction, with spectral norm at most 1 - delta over the box.
    """
    flip = affine_network(-sp.eye(rb.d * rb.d, format="csr"), vec(np.eye(rb.d)))
    return concat(flip, b_network(rb))


# Share of epsilon that solution_network keeps back for the rounding of the
# evaluation in floating point; the truncated iteration gets the rest.
_ROUNDING_SHARE = 0.1


def series_plan(rb, epsilon, C_f):
    """The doubling plan solution_network(rb, epsilon, C_f) compiles: a
    matrixnets.DoublingPlan with the length l, the stage scalars c and
    the certified bound r_l >= ||Q_l||_2.

    The output B_y^-1 (I - Q_l) f_rb misses B_y^-1 f_rb by at most
    |B_y^-1|_2 r_l C_f <= lam r_l C_f/delta, so the plan runs at tolerance
    0.9 epsilon/(lam C_f) and margin rb.delta; the clamp at 0.9 keeps the
    tolerance in (0, 1) and only ever lowers it.
    """
    if not (np.isfinite(epsilon) and 0.0 < epsilon < 1.0):
        raise InvalidArgument(f"epsilon must lie in (0, 1), got {epsilon}")
    f_norm = float(np.linalg.norm(rb.f_rb))
    if not (np.isfinite(C_f) and C_f > 0 and C_f >= f_norm):
        raise InvalidArgument(
            f"C_f must be positive and at least |f_rb| = {f_norm:.6g}, got {C_f}"
        )
    tol = min((1.0 - _ROUNDING_SHARE) * epsilon / C_f / rb.lam, 0.9)
    return _doubling_plan(tol, rb.delta, True)


def solution_network(rb, epsilon, C_f):
    """End-to-end solution-map networks (reduced and high-fidelity).

    rb_net is the doubling chain on the contraction R_y = I - lam B^rb_y
    with X = lam f_rb^T and the scalars of series_plan: Q_0 = R_y,
    Q_{k+1} = c_k Q_k^2 - (c_k - 1) I, so it computes
    lam f_rb^T (I - Q_l)(I - R_y)^-1 = (B_y^-1 (I - Q_l) f_rb)^T, as
    ReducedBasis keeps R_y exactly symmetric; Q_l is, up to the rounding
    of the stored c_k, the Chebyshev polynomial of degree 2^l on
    [-(1 - delta), 1 - delta] scaled to 1 at 1, and ||Q_l||_2 <= r_l.
    h_net lifts it through V.  The epsilon ledger: the operator layer is
    exact, so the iteration runs at tolerance 0.9 epsilon/(lam C_f) at the
    certified margin rb.delta, and the other 0.1 epsilon (_ROUNDING_SHARE)
    is held back for rounding.  The reduced output thus stays within
    0.9 epsilon of reduced_solve (Euclidean) in exact arithmetic, and the
    lifted output within 0.9 epsilon in the G-norm by G-orthonormality of
    V.  rb_net has depth 2l + 1 (2 at l = 1), h_net one more.

    h_net._layers[:-2] are the very stored layers of rb_net._layers[:-1],
    so solution_errors evaluates that shared prefix once for both.
    """
    plan = series_plan(rb, epsilon, C_f)
    chain = _neumann_chain(rb.d, plan.c, rb.lam * rb.f_rb[None, :])
    rb_net = sparse_concat(chain, contraction_network(rb))
    h_net = sparse_concat(affine_network(sp.csr_matrix(rb.V)), rb_net)
    return rb_net, h_net


def _check_gram(G):
    """Raise SingularSystem unless the symmetric G is positive definite.

    Sparse LU with diagonal pivots only: G is positive definite exactly
    when every pivot is positive and none had to be swapped for an
    off-diagonal one (a zero diagonal pivot means a singular leading
    block).  SuperLU reports a zero column as exactly singular.
    """
    import scipy.sparse.linalg as spla  # imported on first use: only this check needs it

    try:
        lu = spla.splu(
            sp.csc_matrix(G),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystem(f"Gram matrix is not positive definite: {exc}") from exc
    if not ((lu.perm_r == lu.perm_c).all() and (lu.U.diagonal() > 0).all()):
        raise SingularSystem("Gram matrix is not positive definite")


_MODES = ("euclidean-rb", "g-norm-h", "relative-g")
_EVAL_CHUNK = 16


def evaluate_error(rb, net, test_params, G, mode, target_eps=None, outputs=None):
    """Per-parameter error of a solution network against reduced_solve.

    Modes: "euclidean-rb" compares a reduced-output network with the
    reduced solution in the Euclidean norm; "g-norm-h" and "relative-g"
    compare a high-fidelity-output network with the lifted solution V u
    in the G-norm (absolute resp. relative).  G-norms are computed as
    sqrt(e^T G e) with the sparse G; a G that is not positive definite
    (indefinite or singular) raises SingularSystem, checked by a sparse
    LU factorization.  `outputs` may carry precomputed network outputs
    (one column per parameter) to avoid re-evaluating the same network
    across modes.
    """
    if mode not in _MODES:
        raise InvalidArgument(f"mode must be one of {_MODES}, got {mode!r}")
    params = _parameters(test_params, rb.p, "test", InvalidArgument)
    if net.input_dim != rb.p:
        raise DimensionMismatch(
            f"network consumes {net.input_dim} inputs, parameters have {rb.p}"
        )
    expected_out = rb.d if mode == "euclidean-rb" else rb.V.shape[0]
    if net.output_dim != expected_out:
        raise DimensionMismatch(
            f"network emits {net.output_dim} outputs, mode {mode!r} needs {expected_out}"
        )

    if outputs is None:
        outputs = realize_batch(net, params.T, chunk=_EVAL_CHUNK)
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.shape != (expected_out, params.shape[0]):
        raise DimensionMismatch(
            f"outputs have shape {outputs.shape}, expected {(expected_out, params.shape[0])}"
        )
    if not np.isfinite(outputs).all():
        raise NonFiniteEntry("outputs hold NaN or infinite entries")

    k = _MODES.index(mode)
    columns = _error_columns(rb, params, G, *((outputs, None) if k == 0 else (None, outputs)))
    errors = columns[k]
    return ErrorReport(
        params=params,
        mode=mode,
        err_euclid_rb=errors if k == 0 else None,
        err_g_h=errors if k == 1 else None,
        err_rel_g=errors if k == 2 else None,
        worst_case=float(errors.max()),
        target_eps=None if target_eps is None else float(target_eps),
        rb_truncation=rb.truncation_sup,
    )


def solution_errors(rb, rb_net, h_net, test_params, G):
    """Both outputs of a solution_network pair at the test parameters (n x p)
    and their errors, (out_rb, out_h, (err_euclid_rb, err_g_h, err_rel_g)),
    each column bit for bit that of evaluate_error's mode.  h_net's stored
    layers but its last two must be rb_net's but its last, as solution_network
    builds them (else InvalidArgument): that prefix is evaluated once, then
    each head, and the reduced systems are solved and G checked once."""
    params = _parameters(test_params, rb.p, "test", InvalidArgument)
    shared, prefix = rb_net._layers[:-1], h_net._layers[:-2]
    same = len(prefix) == len(shared) and all(a is b for a, b in zip(prefix, shared))
    widths = (rb_net.input_dim, rb_net.output_dim, h_net.output_dim)
    if not same or widths != (rb.p, rb.d, rb.V.shape[0]):
        raise InvalidArgument("rb_net and h_net are not a solution_network pair of this basis")
    X = _evaluate(shared, params.T, _EVAL_CHUNK)
    out_rb, out_h = _evaluate(rb_net._layers[-1:], X), _evaluate(h_net._layers[-2:], X)
    return out_rb, out_h, _error_columns(rb, params, G, out_rb, out_h)


def _error_columns(rb, params, G, out_rb, out_h):
    """The error columns (err_euclid_rb, err_g_h, err_rel_g) against the
    reduced solutions u_rb, solved in stacks: the Euclidean one of
    reduced outputs out_rb, and after one check of G the absolute and
    relative G-norm ones of high-fidelity outputs out_h (one column per
    parameter each).  A column whose outputs are not given is None."""
    u_rb = np.ascontiguousarray(_reduced_solves(rb, params).T)
    err_euclid = err_g = err_rel = None
    if out_rb is not None:
        err_euclid = np.linalg.norm(u_rb - out_rb, axis=0)
    if out_h is not None:
        _check_gram(G)
        lifted = rb.V @ u_rb
        err_g = _g_norms(G, lifted - out_h)
        err_rel = err_g / _g_norms(G, lifted)
    return err_euclid, err_g, err_rel


def write_error_csv(path, params, err_euclid_rb, err_g_h, err_rel_g):
    """Error table: one row per parameter, then a MAX row.

    Columns: y_1..y_p, err_euclid_rb, err_g_h, err_rel_g; the final row
    has MAX in the first cell and the column maxima in the error cells.
    """
    params = np.asarray(params, dtype=np.float64)
    cols = [np.asarray(c, dtype=np.float64) for c in (err_euclid_rb, err_g_h, err_rel_g)]
    n, p = params.shape
    for c in cols:
        if c.shape != (n,):
            raise DimensionMismatch(
                f"error column has shape {c.shape}, expected ({n},)"
            )
    if n == 0:
        raise InvalidArgument("need at least one row of errors")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"y_{i + 1}" for i in range(p)] + ["err_euclid_rb", "err_g_h", "err_rel_g"]
        )
        for k in range(n):
            writer.writerow(
                [repr(float(v)) for v in params[k]] + [repr(float(c[k])) for c in cols]
            )
        writer.writerow(["MAX"] + [""] * (p - 1) + [repr(float(c.max())) for c in cols])


def save_reduced_network(path, net, rb):
    """Network JSON plus a top-level reduced_basis payload."""
    doc = _network_doc(net)
    doc["reduced_basis"] = {
        "V": rb.V.tolist(),
        "theta": [np.asarray(t).tolist() for t in rb.theta],
        "f_rb": rb.f_rb.tolist(),
        "alpha": rb.alpha,
        "beta": rb.beta,
        "truncation_sup": rb.truncation_sup,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def load_reduced_network(path):
    """Read a (network, reduced basis) pair written by save_reduced_network."""
    doc = _read_doc(path)
    net = _network_from_doc(doc)
    try:
        payload = doc["reduced_basis"]
        V = np.asarray(payload["V"], dtype=np.float64)
        # Documents written before truncation_sup was stored load with None.
        truncation_sup = payload.get("truncation_sup")
        rb = ReducedBasis(
            V=V,
            theta=tuple(np.asarray(t, dtype=np.float64) for t in payload["theta"]),
            f_rb=np.asarray(payload["f_rb"], dtype=np.float64),
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
            truncation_sup=None if truncation_sup is None else float(truncation_sup),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"malformed reduced-basis document: {exc!r}") from exc
    _check_reduced_payload(net, rb)
    return net, rb


def _check_reduced_payload(net, rb):
    """Raise InvalidArgument unless V is D x d, theta holds p + 1 >= 2
    d x d matrices, f_rb has length d, net maps p inputs to d or D, V, theta,
    f_rb, alpha, beta and truncation_sup (unless None) are finite, and
    0 < beta < alpha, the bounds lam = 2/(alpha + beta) and its margin
    2 beta/(alpha + beta) in (0, 1) need, with lam finite (alpha + beta
    can be too small to invert)."""
    shapes = {t.shape for t in rb.theta}
    ok = rb.V.ndim == 2 and shapes == {(rb.d, rb.d)} and rb.f_rb.shape == (rb.d,)
    if not (ok and net.input_dim == rb.p and net.output_dim in (rb.d, rb.V.shape[0])):
        raise InvalidArgument(
            f"inconsistent reduced network: V {rb.V.shape}, theta {sorted(shapes)}, "
            f"f_rb {rb.f_rb.shape}, network {net.input_dim} -> {net.output_dim} values"
        )
    sup = 0.0 if rb.truncation_sup is None else rb.truncation_sup
    if not all(np.isfinite(a).all() for a in (rb.V, *rb.theta, rb.f_rb, rb.alpha, rb.beta, sup)):
        raise InvalidArgument("reduced-basis payload has non-finite entries")
    if not 0.0 < rb.beta < rb.alpha:
        raise InvalidArgument(
            f"reduced-basis payload needs 0 < beta < alpha, got beta {rb.beta!r}, alpha {rb.alpha!r}"
        )
    if not np.isfinite(rb.lam):
        raise InvalidArgument(
            f"reduced-basis payload gives lam = 2/(alpha + beta) = {rb.lam!r} "
            f"(alpha {rb.alpha!r}, beta {rb.beta!r})"
        )
