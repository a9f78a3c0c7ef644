"""Structural operations on rectified-quadratic networks.

The calculus rests on one 4-unit gadget: with

    omega1 = (1, -1, 1, -1),  gamma1 = (1, -1, -1, 1),  beta1 = (1, 1, -1, -1)/4

every real x satisfies x = beta1 . sigma2(omega1 * x + gamma1), because
sigma2(s) + sigma2(-s) = s^2 collapses the four squares to
((x+1)^2 - (x-1)^2)/4.  Networks store its even units (x + 1, x - 1)
squared, weighted (1, -1)/4 (the [0::2] entries); `layers` and the
nonzero counts report all four.  extend stacks the gadget per output
coordinate after a network's own layers; identity networks and sparse
composition are extend applied to the affine identity and to the inner
factor.  The operations' depth and nonzero counts obey exact formulas:

    concat:        depth L1 + L2 - 1 (boundary affine maps fused)
    sparse_concat: depth L1 + L2     (the inner factor extended by one layer)
    extend:        pad to a requested depth with gadget layers after phi's own
    parallelize:   block-diagonal stacking on disjoint input lanes
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyList, InvalidArgument
from .network import Network, _is_size, _lift, _seal, _seal_bias

__all__ = [
    "OMEGA1",
    "GAMMA1",
    "BETA1",
    "concat",
    "identity_network",
    "sparse_concat",
    "extend",
    "parallelize",
    "affine_network",
]

OMEGA1 = np.array([1.0, -1.0, 1.0, -1.0])
GAMMA1 = np.array([1.0, -1.0, -1.0, 1.0])
BETA1 = np.array([0.25, 0.25, -0.25, -0.25])


def concat(phi1, phi2):
    """Compose phi1 after phi2 by fusing phi1's first affine layer with
    phi2's last: realize(result, x) = realize(phi1, realize(phi2, x)).

    Exact (the fused boundary is affine-after-affine); depth L1 + L2 - 1.
    """
    if phi1.input_dim != phi2.output_dim:
        raise DimensionMismatch(
            f"cannot compose: {phi1.input_dim} inputs after {phi2.output_dim} outputs"
        )
    A1, b1, tag = phi1._layers[0]
    AL, bL, _ = phi2._layers[-1]
    # the stored form of the lifted product, as negation is exact
    fused = _seal(A1 @ AL, A1 @ bL + b1) + (tag,)
    return Network._trusted(phi2._layers[:-1] + (fused,) + phi1._layers[1:])


def identity_network(n, L):
    """Network of depth L computing the identity on R^n exactly.

    L = 1 is the affine identity; L >= 2 threads each coordinate through
    the 4-unit gadget L-1 times, for exactly 20nL - 28n nonzeros.
    """
    if not (_is_size(n) and _is_size(L)):
        raise InvalidArgument(f"need n >= 1 and L >= 1, got n={n}, L={L}")
    return extend(affine_network(sp.eye(n, format="csr")), L)


def sparse_concat(phi1, phi2):
    """Compose phi1 after phi2 extended by one gadget layer.

    Depth L1 + L2; keeps each factor's interior weights untouched, so the
    result's nonzero count is M1 + M2 plus boundary terms bounded by
    4*M_first(phi1) + 4*M_last(phi2) + 4*out_dim(phi2).
    """
    return concat(phi1, extend(phi2, phi2.depth + 1))


def extend(phi, L):
    """Pad phi to depth L (same realization) with gadget layers after its own.

    With W (2n x n), Gamma (2n) and B (n x 2n) stacking the stored gadget per
    output coordinate and k = L - depth(phi), phi's last affine map (A, b)
    becomes (W A, W b + Gamma), followed by k - 1 layers (W B, Gamma) and a
    final (B, 0): each output passes through the gadget k times.
    """
    if not _is_size(L, phi.depth):
        raise InvalidArgument(f"cannot extend depth {phi.depth} network to {L!r}")
    k = L - phi.depth
    if k == 0:
        return phi
    n = phi.output_dim
    ptr = np.arange(2 * n + 1)
    W = sp.csr_matrix((np.tile(OMEGA1[0::2], n), ptr[:-1] // 2, ptr), shape=(2 * n, n))
    B = sp.csr_matrix((np.tile(BETA1[0::2], n), ptr[:-1], ptr[::2]), shape=(n, 2 * n))
    Gamma = np.tile(GAMMA1[0::2], n)
    A, b, _ = phi._layers[-1]
    first = _seal(W @ A, W @ b + Gamma) + ("square",)
    middle = (_seal(W @ B, Gamma) + ("square",),) * (k - 1) if k > 1 else ()
    last = _seal(B, np.zeros(n)) + (None,)
    return Network._trusted(phi._layers[:-1] + (first,) + middle + (last,))


def _sparse_chain(stages, junctions=None):
    """sparse_concat(stages[-1], ... sparse_concat(stages[1], stages[0])) for
    stages of depth >= 2, with junctions[k] = (c, t), one per stage if
    given, mapping stage k's output y to c y + t: the gadget layer after it
    carries c in its weights (the identity gadget is linear), and the join
    keeps its matrix, its bias plus the next stage's first layer applied to
    t + (c - 1) b, b stage k's last bias, which the gadget passes unscaled;
    the last stage's last layer (A, b) becomes (c A, c b + t).  Each distinct
    inner stage is extended once and each distinct outer stage fused once,
    so a repeated stage behind plain junctions (1, 0) repeats the same layer
    objects; the fused join depends on its inner stage only through the
    extension's last layer, which is fixed by the output width."""
    extended, fused = {}, {}
    layers = stages[0]._layers[:-1]
    junctions = junctions or [(1.0, 0.0)] * len(stages)
    for inner, outer, (c, t) in zip(stages, stages[1:], junctions):
        if id(inner) not in extended:
            extended[id(inner)] = extend(inner, inner.depth + 1)
        ext = extended[id(inner)]
        if id(outer) not in fused:
            fused[id(outer)] = concat(outer, ext)._layers[inner.depth]
        gadget, join = ext._layers[inner.depth - 1], fused[id(outer)]
        if c != 1.0 or np.any(t):
            (J, _, tag), (A1, b1, _) = join, outer._layers[0]
            shift = t + (c - 1.0) * inner._layers[-1][1]
            gadget, join = _times(gadget, c, gadget[1]), (J, _seal_bias(A1 @ shift + b1), tag)
        layers += (gadget, join) + outer._layers[1:-1]
    (c, t), last = junctions[-1], stages[-1]._layers[-1]
    if c != 1.0 or np.any(t):
        last = _times(last, c, c * last[1] + t)
    return Network._trusted(layers + (last,))


def _times(layer, c, b):
    """A stored layer with its weights times c and the bias b, checked for
    finite entries; the pattern is the stored layer's, already canonical."""
    A, _, tag = layer
    scaled = sp.csr_matrix((A.data * c, A.indices, A.indptr), shape=A.shape)
    scaled.has_canonical_format = True
    return _seal(scaled, b) + (tag,)


def parallelize(phis):
    """Run networks side by side on disjoint input lanes.

    The result consumes the concatenation of all inputs and emits the
    concatenation of all outputs.  Networks of unequal depth are padded
    with extend; at equal depth the nonzero count is exactly additive.
    """
    phis = list(phis)
    if not phis:
        raise EmptyList("parallelize needs at least one network")
    L = max(phi.depth for phi in phis)
    stacks, layers, lifted = {}, [], (False,) * len(phis)
    for lanes in zip(*(extend(phi, L)._layers for phi in phis)):
        tag = lanes[0][2] if len({t for _, _, t in lanes}) == 1 else "requ"
        # where the lanes disagree, the "square" ones are stacked lifted
        cols, lifted = lifted, tuple(t == "square" and tag != "square" for _, _, t in lanes)
        key = (tuple(map(id, lanes)), cols)  # whole stored layers; a repeated level repeats
        if key not in stacks:
            parts = [_lift(A, b, r, c) for (A, b, _), r, c in zip(lanes, lifted, cols)]
            stacks[key] = _stack(parts) + (tag,)
        layers.append(stacks[key])
    return Network._trusted(layers)


def _stack(lanes):
    """Block-diagonal layer of the lanes' layers, from their CSR arrays."""
    cols = np.cumsum([0] + [A.shape[1] for A, _ in lanes])
    wide = [
        sp.csr_matrix((A.data, A.indices + c, A.indptr), shape=(A.shape[0], cols[-1]))
        for (A, _), c in zip(lanes, cols)
    ]
    return _seal(sp.vstack(wide, format="csr"), np.concatenate([b for _, b in lanes]))


def affine_network(A, b=0):
    """Single-layer network computing x -> Ax + b (no activation)."""
    A = A if sp.issparse(A) else np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch("affine_network needs a matrix")
    if np.ndim(b) == 0:
        b = np.full(A.shape[0], float(b))
    return Network([(A, b)])
