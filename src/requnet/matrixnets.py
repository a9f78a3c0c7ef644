"""Networks that perform exact matrix arithmetic, and the doubling
chains that approximate inverses with them.

Matrices enter and leave networks flattened column-major (vec / matr).
One application of the 4-unit product gadget computes x*y exactly, so a
2-layer network computes a full matrix product A @ B exactly; squaring,
dyadic powers A^(2^j), and the partial sums

    sum_{k=0}^{2^l - 1} A^k  =  prod_{i=0}^{l-1} (A^(2^i) + I)

follow by composition.  For ||A||_2 <= 1 - delta the partial sum is within
(1-delta)^(2^l)/delta of (I - A)^{-1}; neumann_length picks the smallest l
whose bound, certified in exact arithmetic, is at most a requested epsilon.

One chain evaluates X times such a product for a constant n x d X: it
carries (W_k, Q_k) through l stages, each a product beside a squaring, so
the count is linear in l.  With stage scalars c_k it is the doubling

    Q_0 = A,  Q_{k+1} = c_k Q_k^2 - (c_k - 1) I,  W_{k+1} = c_k W_k (Q_k + I),

and I - Q_{k+1} = c_k (I - Q_k^2) gives W_l = X (I - Q_l)(I - A)^{-1}.
All c_k = 1 is the Neumann product (Q_k = A^(2^k)): the inversion network
takes it at X = I, (96l - 120)d^3 + O(l d^2) nonzeros at depth 2l + 1.
For a symmetric A the scalars of _doubling_plan make Q_l a scaled
Chebyshev polynomial of degree 2^l (Golub & Varga 1961), which needs
l ~ log2(log(1/epsilon)/sqrt(delta)) stages instead of
log2(log(1/epsilon)/delta); the pde solution map runs it at a row X,
(48l - 72)d^3 + O(l d^2) nonzeros.  calculus._sparse_chain alone lays the
stages out, taking the scalars as junctions x -> c_k x + t_k between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .calculus import (
    BETA1,
    GAMMA1,
    OMEGA1,
    _sparse_chain,
    affine_network,
    concat,
    extend,
    parallelize,
)
from .errors import ConvergenceFailure, DimensionMismatch, InvalidArgument, NonFiniteEntry
from .network import Network, _is_size, _seal

__all__ = [
    "vec",
    "matr",
    "scalar_product_network",
    "mult_network",
    "square_network",
    "power_network",
    "DoublingPlan",
    "neumann_length",
    "inversion_network",
    "neumann_partial_sum_oracle",
    "spectral_norm",
]


def vec(A):
    """Flatten a d x l matrix column-major: (A_11, ..., A_d1, A_12, ...)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch("vec expects a matrix")
    return A.ravel(order="F")


def matr(v, d, l):
    """Inverse of vec: reshape a length-d*l vector to d x l, column-major."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != d * l:
        raise DimensionMismatch(f"need a vector of length {d * l}, got {v.shape}")
    return v.reshape((d, l), order="F")


def scalar_product_network():
    """2-layer network computing (x, y) -> x*y exactly for all reals.

    Layer 1 forms the four combinations +-x +- y; layer 2 combines their
    squares as ((x+y)^2 - (x-y)^2)/4 = x*y.  8 + 4 nonzeros.
    """
    return mult_network(1, 1, 1)


def mult_network(d, n, l):
    """2-layer network computing (vec A, vec B) -> vec(A @ B) exactly,
    for A of shape d x n and B of shape n x l.

    One product gadget per scalar term A_ik * B_kj (stored as two units):
    4*d*n*l hidden units, first-layer nonzeros exactly 8*d*n*l, last 4*d*n*l.
    """
    if not all(map(_is_size, (d, n, l))):
        raise InvalidArgument(f"need integers d, n, l >= 1, got {(d, n, l)}")
    dl = d * l
    # one gadget per (output m = j*d + i, summand k): rows (x + y, x - y) of
    # x = A_ik and y = B_kj, each row storing the columns of x and y
    mm = np.repeat(np.arange(dl), n)
    kk = np.tile(np.arange(n), dl)
    cols = np.stack([kk * d + mm % d, d * n + (mm // d) * n + kk], axis=1)
    gadget = np.stack([OMEGA1[0::2], GAMMA1[0::2]], axis=1).ravel()
    h = 2 * dl * n
    data, idx = np.tile(gadget, dl * n), np.repeat(cols, 2, axis=0).ravel()
    A1 = sp.csr_matrix((data, idx, np.arange(0, 2 * h + 1, 2)), shape=(h, n * (d + l)))
    ptr = np.arange(0, h + 1, 2 * n)  # output m sums its n gadgets
    A2 = sp.csr_matrix((np.tile(BETA1[0::2], dl * n), np.arange(h), ptr), shape=(dl, h))
    hidden, out = _seal(A1, np.zeros(h)) + ("square",), _seal(A2, np.zeros(dl)) + (None,)
    return Network._trusted([hidden, out])


def _copies(cols, width):
    """0/1 CSR matrix whose row i reads input cols[i], from its arrays."""
    rows = len(cols)
    ptr = np.arange(rows + 1, dtype=np.int32)
    return sp.csr_matrix((np.ones(rows), cols.astype(np.int32), ptr), shape=(rows, width))


def _duplicator(n):
    """Affine layer x -> (x; x)."""
    return affine_network(_copies(np.tile(np.arange(n), 2), n), np.zeros(2 * n))


def square_network(d):
    """2-layer network computing vec A -> vec(A @ A) exactly (A is d x d)."""
    return concat(mult_network(d, d, d), _duplicator(d * d))


def power_network(d, j):
    """Network computing vec A -> vec(A^(2^j)) exactly by repeated squaring.

    Depth exactly 2j; nonzeros at most 64*j*d^3.
    """
    if not _is_size(j):  # square_network checks d
        raise InvalidArgument(f"need an integer j >= 1, got {j!r}")
    return _sparse_chain([square_network(d)] * j)


@dataclass(frozen=True)
class DoublingPlan:
    """A certified doubling chain at tolerance epsilon and margin delta: c
    holds the stored stage scalars c_k, k < l, and bound a certified
    r_l >= ||Q_l||_2, with bound/delta <= epsilon."""

    epsilon: float
    delta: float
    l: int
    c: tuple
    bound: float


def neumann_length(epsilon, delta):
    """The Neumann product's plan, for any A with ||A||_2 <= 1 - delta:
    _doubling_plan with all c_k = 1, so r_l >= (1-delta)^(2^l)."""
    return _doubling_plan(epsilon, delta, False)


def _round_up(num, den):
    """The least double >= num/den, for integers num >= 0 and den > 0."""
    x = num / den  # correctly rounded
    n, m = x.as_integer_ratio()
    return x if n * den >= num * m else math.nextafter(x, math.inf)


def _next_bound(c, r):
    """max(c - 1, c r^2 - (c - 1)), rounded up: a bound on ||c Q^2 - (c-1) I||_2
    for a symmetric Q with ||Q||_2 <= r and c >= 1, as c Q^2 - (c-1) I has its
    spectrum in [-(c - 1), c r^2 - (c - 1)]; at c = 1, r^2 bounds ||Q^2||_2
    for any Q by submultiplicativity.  Evaluated exactly in integers."""
    (cn, cd), (rn, rd) = c.as_integer_ratio(), r.as_integer_ratio()
    low = (cn - cd) * rd * rd  # c - 1 over the denominator cd rd^2
    return _round_up(max(low, cn * rn * rn - low), cd * rd * rd)


def _doubling_plan(epsilon, delta, symmetric):
    """The shortest doubling chain certified to epsilon at margin delta,
    both in (0, 1).

    From r_0 = 1 - delta, rounded up, stage k stores c_k: 1, or for a
    symmetric A 2/(2 - r_k^2) in [1, 2], where in exact arithmetic
    r_l = 1/T_{2^l}(1/(1 - delta)).  r_{k+1} = _next_bound(c_k, r_k) is
    computed for the stored float c_k, so the certificate covers the
    weights the network holds.  The error (I - A)^{-1} Q_l is at most
    r_l/delta, and l is the smallest with r_l/delta <= epsilon.  At l = 1
    the chain is its affine first layer, with no dyadic weight to carry
    c_0 exactly, so that plan stores c_0 = 1.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgument(f"epsilon must be in (0,1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise InvalidArgument(f"delta must be in (0,1), got {delta}")
    if 1.0 - delta == 1.0 or delta * epsilon == 0.0:  # no margin or no tolerance left
        raise InvalidArgument(f"delta {delta!r} is too small for double precision")
    epsilon, delta = float(epsilon), float(delta)
    (en, ed), (dn, dd) = epsilon.as_integer_ratio(), delta.as_integer_ratio()

    def certified(r):  # r <= epsilon * delta, exactly
        rn, rd = r.as_integer_ratio()
        return rn * ed * dd <= en * dn * rd

    r = _round_up(dd - dn, dd)
    if certified(_next_bound(1.0, r)):
        return DoublingPlan(epsilon, delta, 1, (1.0,), _next_bound(1.0, r))
    c = []
    while len(c) < 2 or not certified(r):
        c.append(2.0 / (2.0 - r * r) if symmetric else 1.0)
        r, prev = _next_bound(c[-1], r), r
        if r >= prev:  # rounding stalls the bound above epsilon * delta
            raise InvalidArgument(
                f"epsilon {epsilon!r} at delta {delta!r} is too small for double precision"
            )
    return DoublingPlan(epsilon, delta, len(c), tuple(c), r)


def _inversion_nnz_exact(d, l):
    """Exact nonzero count of inversion_network at dimension d, length l."""
    if l == 1:
        return 32 * d**2 - 2 * d
    return (96 * l - 120) * d**3 + (12 * l + 20) * d**2 + (40 - 24 * l) * d


def _inversion_nnz_bound(d, l):
    """Polynomial weight bound of the inversion construction (exact at l = 1)."""
    if l == 1:
        return _inversion_nnz_exact(d, 1)
    return (32 * l * l + 60 * l - 80) * d**3 + (40 * l * l - 44 * l - 112) * d**2


def _carry_start(d, X):
    """Affine layer vec A -> vec(X (A + I)) = (I_d kron X) vec A + vec X for
    an n x d X, the block diagonal built from X's nonzeros."""
    n = X.shape[0]
    i, k = np.nonzero(X)  # row by row, columns ascending
    ptr = np.concatenate(([0], np.cumsum(np.tile(np.bincount(i, minlength=n), d))))
    cols = k + d * np.arange(d)[:, None]
    A = sp.csr_matrix(
        (np.tile(X[i, k], d), cols.ravel().astype(np.int32), ptr.astype(np.int32)),
        shape=(n * d, d * d),
    )
    return affine_network(A, vec(X))


def _split(n, d, keep_q):
    """Affine layer (vec W, vec Q) -> (vec W, vec(Q + I)), W n x d and Q
    d x d, followed by a second copy of vec Q when keep_q."""
    nd, dd = n * d, d * d
    cols = np.arange(nd + dd)
    if keep_q:
        cols = np.concatenate([cols, cols[nd:]])
    b = np.zeros(len(cols))
    b[nd : nd + dd] = vec(np.eye(d))
    return affine_network(_copies(cols, nd + dd), b)


def _neumann_chain(d, c, X):
    """Network vec A -> vec W_l for A d x d, a constant n x d X and stage
    scalars c = (c_0, ..., c_{l-1}): W_0 = X, Q_0 = A and

        W_{k+1} = c_k W_k (Q_k + I),  Q_{k+1} = c_k Q_k^2 - (c_k - 1) I,

    so W_l = X (I - Q_l)(I - A)^{-1}; all c_k = 1 gives X prod_{k<l} (A^(2^k) + I).

    The affine first layer vec A -> vec(X (A + I)) itself at l = 1, where
    c_0 must be 1; else l depth-2 stages, each the product of its row by
    Q + I beside the squaring of Q, the last without the squaring.  Stage k
    emits (U, S) = (W_k (Q_k + I), Q_k^2), and the junction after it is
    (U, S) -> (c_k U, c_k S + (1 - c_k) I) = (W_{k+1}, Q_{k+1}); the last
    readout carries c_{l-1}.  One product network (the squaring's when
    n = d), squaring and duplicator are built per call and shared by all
    stages.
    """
    l, first = len(c), _carry_start(d, X)
    if l == 1:
        if c[0] != 1.0:
            raise InvalidArgument("a one-stage chain has no weight to carry c_0")
        return first
    n = X.shape[0]
    mult, duplicate = mult_network(d, d, d), _duplicator(d * d)
    carry = mult if n == d else mult_network(n, d, d)
    square = concat(mult, duplicate)  # square_network(d) from the shared parts
    start = concat(parallelize([first, square]), duplicate)
    stage = concat(parallelize([carry, square]), _split(n, d, keep_q=True))
    last = concat(carry, _split(n, d, keep_q=False))
    eye_q = np.concatenate([np.zeros(n * d), vec(np.eye(d))])  # I in the Q part of (W, Q)
    junctions = [(ck, (1.0 - ck) * eye_q) for ck in c[:-1]] + [(c[-1], 0.0)]
    return _sparse_chain([start] + [stage] * (l - 2) + [last], junctions)


def inversion_network(d, epsilon, delta):
    """Network mapping vec A -> approximately vec((I - A)^{-1}).

    Computes the exact partial sum sum_{k < 2^l} A^k in factored form
    prod_i (A^(2^i) + I), with l the least that neumann_length certifies, so
    for every A with ||A||_2 <= 1 - delta the spectral-norm error is at most
    (1-delta)^(2^l)/delta <= epsilon.  The chain at X = I and all c_k = 1,
    padded to depth exactly 2l + 1; nonzeros, exactly (_inversion_nnz_exact):
    (96l - 120)d^3 + (12l + 20)d^2 + (40 - 24l)d for l >= 2, 32d^2 - 2d
    for l = 1.
    """
    if not _is_size(d):
        raise InvalidArgument(f"need an integer d >= 1, got {d!r}")
    plan = neumann_length(epsilon, delta)
    return extend(_neumann_chain(d, plan.c, np.eye(d)), 2 * plan.l + 1)


def neumann_partial_sum_oracle(A, l):
    """sum_{k=0}^{2^l - 1} A^k by direct term accumulation, as an
    independent check of the factored form the network encodes."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("need a square matrix")
    if not _is_size(l):
        raise InvalidArgument(f"need an integer l >= 1, got {l!r}")
    total = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for _ in range(2**l - 1):
        term = term @ A
        total += term
    return total


def spectral_norm(A, tol=1e-12, max_iter=100000):
    """Largest singular value by power iteration on A^T A.

    Deterministic start vector (1, ..., 1)/sqrt(n); if the iterate ever
    collapses to zero the iteration restarts from successive basis vectors.
    Raises NonFiniteEntry at once if A^T A holds NaN or infinite entries,
    and ConvergenceFailure if the relative change in the Rayleigh quotient
    still exceeds tol at the iteration cap.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or 0 in A.shape:
        raise DimensionMismatch(f"spectral_norm expects a nonempty matrix, got {A.shape}")
    n = A.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # raised on below instead
        M = A.T @ A
    if not np.isfinite(M).all():
        raise NonFiniteEntry("A^T A holds NaN or infinite entries (A does, or they overflow)")

    def start(k):
        if k == 0:
            return np.full(n, 1.0 / math.sqrt(n))
        e = np.zeros(n)
        e[k - 1] = 1.0
        return e

    tried = 0
    v = start(tried)
    est = 0.0
    for _ in range(max_iter):
        w = M @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            tried += 1
            if tried > n:
                return 0.0
            v = start(tried)
            est = 0.0
            continue
        v = w / norm_w
        new_est = float(v @ (M @ v))
        if abs(new_est - est) <= tol * new_est:
            return math.sqrt(new_est)
        est = new_est
    raise ConvergenceFailure(
        f"power iteration did not converge within {max_iter} iterations"
    )
