"""Explicit feed-forward networks with the rectified-quadratic activation.

A network is an ordered sequence of affine layers (A_k, b_k).  Evaluation
applies sigma2(x) = max(0, x)^2 componentwise after every layer except the
last, which stays affine.  All constructions in this package emit weights
whose zero entries are exact, so complexity accounting counts bit-exact
nonzeros, never thresholded ones.

Weight matrices are stored in CSR sparse form (row-major).  The networks
built by the matrix-inversion and PDE modules have interior layers whose
dense size is orders of magnitude larger than their nonzero count, so a
dense representation is not viable at the sizes the test grids exercise;
CSR keeps evaluation and nonzero accounting exact and cheap.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyNetwork, InvalidArgument, NonFiniteEntry

__all__ = [
    "Network",
    "ComplexityReport",
    "requ",
    "make_network",
    "realize",
    "realize_batch",
    "complexity",
    "save_network",
    "load_network",
]


def requ(x):
    """Rectified quadratic unit sigma2(x) = (max(0, x))^2, componentwise."""
    return np.square(np.maximum(x, 0.0))


def _owned(matrix, b):
    """The caller's layer as CSR float64 and float64 bias; the caller's own
    arrays are copied unless read-only (the matrix also canonical)."""
    if sp.issparse(matrix):
        A = matrix.tocsr().astype(np.float64, copy=False)
    else:
        A = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
    read_only = not any(a.flags.writeable for a in (A.data, A.indices, A.indptr))
    if A is matrix and not (read_only and A.has_canonical_format):
        A = A.copy()
    b = np.asarray(b, dtype=np.float64)
    return A, (b.copy() if b.flags.writeable else b)


def _seal(A, b):
    """Check and freeze in place a layer nobody else holds: canonical CSR
    (sorted, duplicates summed), matching bias, nonzero dimensions, finite."""
    A.sum_duplicates()  # sorts and sums only when not canonical; else a read-only scan
    b = np.asarray(b, dtype=np.float64)
    rows, cols = A.shape
    if b.ndim != 1 or b.shape[0] != rows:
        raise DimensionMismatch(f"bias length {b.shape} does not match {rows} rows")
    if rows < 1 or cols < 1:
        raise DimensionMismatch("zero-dimensional layer rejected")
    if not np.isfinite(A.data).all() or not np.isfinite(b).all():
        raise NonFiniteEntry("layer contains NaN or infinite entries")
    for a in (A.data, A.indices, A.indptr, b):
        a.setflags(write=False)
    return A, b


class Network:
    """Immutable sequence of affine layers (A_k, b_k).

    A_k is N_k x N_{k-1} (CSR), b_k has length N_k.  Instances are
    validated on construction and safe to share across threads; all
    evaluation is pure.  The CSR arrays and biases are read-only, so the
    calculus passes its operands' layers on to its results as they are.
    """

    __slots__ = ("layers", "input_dim", "output_dim")

    def __init__(self, layers):
        self._set_layers(tuple(_seal(*_owned(A, b)) for A, b in layers))

    @classmethod
    def _trusted(cls, layers):
        """Network of validated layers, or fresh ones passed through _seal,
        taken as they are; only checks that adjacent shapes chain."""
        net = object.__new__(cls)
        net._set_layers(tuple(layers))
        return net

    def _set_layers(self, layers):
        if not layers:
            raise EmptyNetwork("a network needs at least one layer")
        for (A, _), (nxt, _) in zip(layers, layers[1:]):
            if nxt.shape[1] != A.shape[0]:
                raise DimensionMismatch(
                    f"layer expects {nxt.shape[1]} inputs but previous layer emits {A.shape[0]}"
                )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_dim", layers[0][0].shape[1])
        object.__setattr__(self, "output_dim", layers[-1][0].shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    @property
    def depth(self):
        return len(self.layers)

    def __call__(self, x):
        return realize(self, x)

    def __repr__(self):
        widths = [self.input_dim] + [A.shape[0] for A, _ in self.layers]
        return f"Network(depth={self.depth}, widths={widths})"


@dataclass(frozen=True)
class ComplexityReport:
    """Exact size accounting: depth L, node count N0 + sum N_k, and the
    per-layer nonzero counts M_k = nnz(A_k) + nnz(b_k)."""

    depth: int
    nodes: int
    total_nnz: int
    layer_nnz: tuple


def make_network(layers):
    """Validate and build a Network from (matrix, bias) pairs.

    Matrices may be dense arrays or scipy sparse; biases are 1-d vectors
    whose length matches the matrix row count.  Writable inputs are
    copied, so the caller cannot mutate the network afterwards.
    """
    return Network(layers)


def realize(net, x):
    """Evaluate the network: sigma2 after every layer except the last.
    Raises NonFiniteEntry on NaN or infinite inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise DimensionMismatch(
            f"input length {x.shape} does not match input_dim {net.input_dim}"
        )
    return realize_batch(net, x[:, None])[:, 0]


_FOLD_MIN_COLS = 16


def realize_batch(net, X, chunk=None):
    """Evaluate the network on each column of X (input_dim x n_samples).

    realize is this on a single column; useful when evaluating a large
    network on a parameter grid.  When `chunk` (a positive integer, else
    InvalidArgument) is given, the columns are processed at most `chunk`
    at a time, which bounds the working set at (widest evaluated layer) x
    chunk doubles regardless of the sample count.  Raises NonFiniteEntry
    on NaN or infinite inputs.

    The calculus emits hidden units in pairs (z, -z) that the next layer
    weights equally, since sigma2(z) + sigma2(-z) = z^2.  From 16 columns
    up, each hidden layer whose pairing _fold_plan verifies by exact array
    comparison is evaluated once per pair: its even rows, then z^2, then
    the next layer's even columns, a quarter of the multiply-adds.  The
    outputs are bit-identical to the unfolded loop: negation is exact, so
    one of sigma2(z), sigma2(-z) is exactly 0, and the dropped term c * 0
    is a signed zero added to a row sum that starts from +0 and so never
    holds -0.  Below 16 columns the plan's O(nnz) passes cost more than
    they save: over inversion networks at d 4-16 (l 6-9) and 8 columns,
    plans plus folded evaluation took 56 ms against 51 ms unfolded, and at
    16 columns 63 ms against 79 ms (one BLAS thread, 2-core x86 machine).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != net.input_dim:
        raise DimensionMismatch(
            f"batch shape {X.shape} does not match input_dim {net.input_dim}"
        )
    if not np.isfinite(X).all():
        raise NonFiniteEntry("input contains NaN or infinite entries")
    if chunk is not None and (
        isinstance(chunk, bool) or not isinstance(chunk, numbers.Integral) or chunk < 1
    ):
        raise InvalidArgument(f"chunk must be a positive integer, got {chunk!r}")
    n = X.shape[1]
    if n >= _FOLD_MIN_COLS:
        plan = _fold_plan(net.layers)
    else:
        plan = [(A, b, False) for A, b in net.layers]
    if chunk is None or n <= chunk:
        return _evaluate(plan, X)
    blocks = [_evaluate(plan, X[:, j : j + chunk]) for j in range(0, n, chunk)]
    return np.concatenate(blocks, axis=1)


def _evaluate(plan, X):
    last = len(plan) - 1
    for k, (A, b, paired) in enumerate(plan):
        X = A @ X  # a fresh array, so the caller's X is never written
        X += b[:, None]
        if k != last:  # requ in place; z^2 on a folded pair
            if not paired:
                np.maximum(X, 0.0, out=X)
            np.square(X, out=X)
    return X


def _negated_row_pairs(A, b):
    """Mask of the entries in A's even rows if every odd row of (A, b) is
    exactly the negation of the row before it, else None."""
    counts = np.diff(A.indptr)
    if A.shape[0] % 2 or not np.array_equal(counts[1::2], counts[0::2]):
        return None
    even = np.repeat(np.arange(A.shape[0]) % 2 == 0, counts)
    if (
        np.array_equal(b[1::2], -b[0::2])
        and np.array_equal(A.indices[~even], A.indices[even])
        and np.array_equal(A.data[~even], -A.data[even])
    ):
        return even
    return None


def _equal_column_pairs(A):
    """Whether A's stored entries come in adjacent pairs at columns
    (2i, 2i + 1) with equal values, each pair inside one row."""
    idx = A.indices
    return (
        not (A.indptr % 2).any()
        and not (idx[0::2] % 2).any()
        and np.array_equal(idx[1::2], idx[0::2] + 1)
        and np.array_equal(A.data[1::2], A.data[0::2])
    )


def _fold_plan(layers):
    """The (A, b, paired) triples realize_batch evaluates for these layers.

    A hidden layer is paired when its rows come in negated pairs and the
    next layer's columns in equal pairs; it then keeps its even rows and
    its successor keeps its even columns.  Unpaired layers stay as they
    are.  Shared layer objects are checked and folded once.
    """
    masks, folded, plan = {}, {}, []
    prev = None
    for k, layer in enumerate(layers):
        mask = None
        if k + 1 < len(layers):
            key = (id(layer), id(layers[k + 1]))
            if key not in masks:
                mask = _negated_row_pairs(*layer)
                if mask is not None and not _equal_column_pairs(layers[k + 1][0]):
                    mask = None
                masks[key] = mask
            mask = masks[key]
        key = (id(layer), mask is not None, prev is not None)
        if key not in folded:
            folded[key] = _fold(*layer, mask, prev is not None)
        plan.append(folded[key] + (mask is not None,))
        prev = mask
    return plan


def _fold(A, b, even_rows, halve_cols):
    """(A, b) restricted to the entries of its even rows (if a mask is
    given), then to its even columns with indices halved."""
    if even_rows is None and not halve_cols:
        return A, b
    data, indices, indptr = A.data, A.indices, A.indptr
    rows, cols = A.shape
    if even_rows is not None:
        data, indices, indptr = data[even_rows], indices[even_rows], indptr[0::2] // 2
        b, rows = b[0::2], rows // 2
    if halve_cols:  # contiguous data, else scipy copies it at every product
        data, indices, indptr = data[0::2].copy(), indices[0::2] // 2, indptr // 2
        cols //= 2
    return sp.csr_matrix((data, indices, indptr), shape=(rows, cols)), b


def complexity(net):
    """Exact complexity report; an entry counts as zero only when it is
    bit-exactly zero."""
    layer_nnz = []
    nodes = net.input_dim
    for A, b in net.layers:
        layer_nnz.append(int(np.count_nonzero(A.data)) + int(np.count_nonzero(b)))
        nodes += A.shape[0]
    return ComplexityReport(
        depth=len(net.layers),
        nodes=nodes,
        total_nnz=sum(layer_nnz),
        layer_nnz=tuple(layer_nnz),
    )


def _network_doc(net):
    return {
        "input_dim": int(net.input_dim),
        "layers": [
            {
                "rows": int(A.shape[0]),
                "cols": int(A.shape[1]),
                "data": A.data.tolist(),
                "indices": A.indices.tolist(),
                "indptr": A.indptr.tolist(),
                "b": b.tolist(),
            }
            for A, b in net.layers
        ],
    }


def save_network(path, net):
    """Write the network as JSON: each layer's CSR arrays (data, indices,
    indptr) and bias.  Floats use shortest round-trip decimals, so save/load
    is bit-exact for finite doubles and keeps the sparsity structure,
    explicitly stored zeros included."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_network_doc(net)))


def _layer_from_doc(layer):
    shape = (int(layer["rows"]), int(layer["cols"]))
    b = np.asarray(layer["b"], dtype=np.float64)
    if "A" in layer:  # dense row-major layout of files written before CSR
        return np.asarray(layer["A"], dtype=np.float64).reshape(shape), b
    index = [np.asarray(layer[key]) for key in ("indices", "indptr")]
    if any(a.size and a.dtype.kind != "i" for a in index):
        raise TypeError("CSR index arrays must hold integers")
    A = sp.csr_matrix((np.asarray(layer["data"], dtype=np.float64), *index), shape)
    # scipy's kernels trust the indices; out-of-range ones would read past x
    A.check_format(full_check=True)
    return A, b


def _network_from_doc(doc):
    try:
        layers = [_layer_from_doc(layer) for layer in doc["layers"]]
        input_dim = int(doc["input_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"malformed network document: {exc!r}") from exc
    net = make_network(layers)
    if net.input_dim != input_dim:
        raise DimensionMismatch("declared input_dim does not match first layer")
    return net


def load_network(path):
    """Read a network written by save_network; older dense "A" layers load too."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return _network_from_doc(doc)
