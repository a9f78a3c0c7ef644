"""Networks that perform exact matrix arithmetic, and the Neumann-series
approximate inverse built from them.

Matrices enter and leave networks flattened column-major (vec / matr).
One application of the 4-unit product gadget computes x*y exactly, so a
2-layer network computes a full matrix product A @ B exactly; squaring,
dyadic powers A^(2^j), and the partial sums

    sum_{k=0}^{2^l - 1} A^k  =  prod_{i=0}^{l-1} (A^(2^i) + I)

follow by composition.  For ||A||_2 <= 1 - delta the partial sum is within
(1-delta)^(2^l)/delta of (I - A)^{-1}, which the length rule neumann_length
drives below a requested epsilon.

One Neumann chain evaluates X times the product for a constant n x d X:
it carries (X P_k, Q_k) = (X prod_{i<k} (A^(2^i) + I), A^(2^k)) through l
stages, each a product beside a squaring, so the count is linear in l.
The inversion network takes X = I, (96l - 120)d^3 + O(l d^2) nonzeros at
depth 2l + 1; the pde solution map a row, (48l - 72)d^3 + O(l d^2).
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
    "NeumannPlan",
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


def _duplicator(n):
    """Affine layer x -> (x; x)."""
    eye = sp.eye(n, format="csr")
    return affine_network(sp.vstack([eye, eye], format="csr"), np.zeros(2 * n))


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
class NeumannPlan:
    """Partial-sum length for the Neumann inverse: the smallest dyadic
    l with (1-delta)^(2^l)/delta <= epsilon, via the closed form
    l = ceil(log2(log_{1-delta}(delta*epsilon) + 1))."""

    epsilon: float
    delta: float
    l: int


def neumann_length(epsilon, delta):
    """Closed-form partial-sum length; epsilon, delta must lie in (0, 1)."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgument(f"epsilon must be in (0,1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise InvalidArgument(f"delta must be in (0,1), got {delta}")
    if 1.0 - delta == 1.0 or delta * epsilon == 0.0:  # log would be 0 or -inf
        raise InvalidArgument(f"delta {delta!r} is too small for double precision")
    terms = math.log(delta * epsilon) / math.log(1.0 - delta)
    l = math.ceil(math.log2(terms + 1.0))
    return NeumannPlan(epsilon=float(epsilon), delta=float(delta), l=int(l))


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


def _shift_by_identity(d):
    """Affine layer vec M -> vec(M + I)."""
    dd = d * d
    return affine_network(sp.eye(dd, format="csr"), vec(np.eye(d)))


def _split(n, d, keep_q):
    """Affine layer (vec W, vec Q) -> (vec W, vec(Q + I)), W n x d and Q
    d x d, followed by a second copy of vec Q when keep_q."""
    nd, dd = n * d, d * d
    rows = [sp.eye(nd + dd, format="csr")]
    if keep_q:
        rows.append(sp.eye(dd, nd + dd, k=nd, format="csr"))
    A = sp.vstack(rows, format="csr")
    b = np.zeros(A.shape[0])
    b[nd : nd + dd] = vec(np.eye(d))
    return affine_network(A, b)


def _neumann_chain(d, l, first):
    """Network vec A -> vec(X prod_{i<l} (A^(2^i) + I)) for A d x d, given
    the affine network first: vec A -> vec(X (A + I)), X constant n x d.

    first itself at l = 1; else l depth-2 stages carrying
    (vec X P_k, vec Q_k), P_k = prod_{i<k} (A^(2^i) + I) and Q_k = A^(2^k):
    the product of X P_k by Q_k + I beside square_network on Q_k, the last
    without the squaring.  One product network (the squaring's when n = d),
    squaring and duplicator are built per call and shared by all stages.
    """
    if l == 1:
        return first
    n = first.output_dim // d
    mult, duplicate = mult_network(d, d, d), _duplicator(d * d)
    carry = mult if n == d else mult_network(n, d, d)
    square = concat(mult, duplicate)  # square_network(d) from the shared parts
    start = concat(parallelize([first, square]), duplicate)
    stage = concat(parallelize([carry, square]), _split(n, d, keep_q=True))
    last = concat(carry, _split(n, d, keep_q=False))
    return _sparse_chain([start] + [stage] * (l - 2) + [last])


def inversion_network(d, epsilon, delta):
    """Network mapping vec A -> approximately vec((I - A)^{-1}).

    Computes the exact partial sum sum_{k < 2^l} A^k in factored form
    prod_i (A^(2^i) + I), with l = neumann_length(epsilon, delta).l, so for
    every A with ||A||_2 <= 1 - delta the spectral-norm error is at most
    (1-delta)^(2^l)/delta <= epsilon.  The Neumann chain at X = I, padded to
    depth exactly 2l + 1; nonzeros, exactly (_inversion_nnz_exact):
    (96l - 120)d^3 + (12l + 20)d^2 + (40 - 24l)d for l >= 2, 32d^2 - 2d
    for l = 1.
    """
    if not _is_size(d):
        raise InvalidArgument(f"need an integer d >= 1, got {d!r}")
    l = neumann_length(epsilon, delta).l
    return extend(_neumann_chain(d, l, _shift_by_identity(d)), 2 * l + 1)


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
