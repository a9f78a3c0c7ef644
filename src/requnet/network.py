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


def _is_size(value, minimum=1):
    """Whether value is an integer >= minimum (a numpy one too, not a bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


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

    _paired flags each layer whose rows are exact (z, -z) pairs and whose
    successor weights columns 2i and 2i + 1 equally (never the last layer).
    """

    __slots__ = ("layers", "input_dim", "output_dim", "_paired")

    def __init__(self, layers):
        layers = tuple(_seal(*_owned(A, b)) for A, b in layers)
        paired = [_is_paired(*layer, nxt) for layer, (nxt, _) in zip(layers, layers[1:])]
        self._set_layers(layers, paired + [False])

    @classmethod
    def _trusted(cls, layers, paired):
        """Network of validated (or freshly _sealed) layers and their pairing
        flags, taken as they are; only checks that adjacent shapes chain."""
        net = object.__new__(cls)
        net._set_layers(tuple(layers), paired)
        return net

    def _set_layers(self, layers, paired):
        if not layers:
            raise EmptyNetwork("a network needs at least one layer")
        for (A, _), (nxt, _) in zip(layers, layers[1:]):
            if nxt.shape[1] != A.shape[0]:
                raise DimensionMismatch(
                    f"layer expects {nxt.shape[1]} inputs but previous layer emits {A.shape[0]}"
                )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_paired", tuple(paired))
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
    weights equally, since sigma2(z) + sigma2(-z) = z^2, and flags them in
    net._paired as it builds them (make_network and load_network check
    once, at construction).  From 16 columns up, each flagged layer is
    evaluated once per pair: its even rows, then z^2, then the next layer's
    even columns, a quarter of the multiply-adds.  The outputs are
    bit-identical to the unfolded loop: negation is exact, so one of
    sigma2(z), sigma2(-z) is exactly 0, and the dropped term c * 0 is a
    signed zero added to a row sum that starts from +0 and so never holds
    -0.  Below 16 columns the layers run as stored: on small networks the
    fold's per-layer gathers cost more than they save (inversion networks
    at d 2-4 plus a 16-128-128-16 dense one, 8 columns: 1.0 ms folded, 0.5
    ms unfolded; 2-core x86, one BLAS thread).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != net.input_dim:
        raise DimensionMismatch(
            f"batch shape {X.shape} does not match input_dim {net.input_dim}"
        )
    if not np.isfinite(X).all():
        raise NonFiniteEntry("input contains NaN or infinite entries")
    if chunk is not None and not _is_size(chunk):
        raise InvalidArgument(f"chunk must be a positive integer, got {chunk!r}")
    n = X.shape[1]
    plan = _fold_plan(net) if n >= _FOLD_MIN_COLS else [(A, b, False) for A, b in net.layers]
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


def _is_paired(A, b, nxt):
    """Whether every odd row of (A, b) is exactly the negation of the row
    before it, and nxt's stored entries come in adjacent pairs at columns
    (2i, 2i + 1) with equal values, each pair inside one row."""
    counts, idx = np.diff(A.indptr), nxt.indices
    if A.shape[0] % 2 or not np.array_equal(counts[1::2], counts[0::2]):
        return False
    even = np.repeat(np.arange(A.shape[0]) % 2 == 0, counts)
    return (
        np.array_equal(b[1::2], -b[0::2])
        and np.array_equal(A.indices[~even], A.indices[even])
        and np.array_equal(A.data[~even], -A.data[even])
        and not (nxt.indptr % 2).any()
        and not (idx[0::2] % 2).any()
        and np.array_equal(idx[1::2], idx[0::2] + 1)
        and np.array_equal(nxt.data[1::2], nxt.data[0::2])
    )


def _fold_plan(net):
    """The (A, b, paired) triples realize_batch evaluates for net.

    A layer flagged in net._paired keeps its even rows and its successor
    keeps its even columns; other layers stay as they are.  Shared layer
    objects are folded once.
    """
    folded, plan = {}, []
    prev = False
    for layer, paired in zip(net.layers, net._paired):
        key = (id(layer), paired, prev)
        if key not in folded:
            folded[key] = _fold(*layer, paired, prev)
        plan.append(folded[key] + (paired,))
        prev = paired
    return plan


def _fold(A, b, even_rows, even_cols):
    """(A, b) restricted to its even rows, then to its even columns with
    indices halved, as asked; the pairing flags make both exact."""
    if not (even_rows or even_cols):
        return A, b
    data, indices, indptr = A.data, A.indices, A.indptr
    rows, cols = A.shape
    if even_rows:
        keep = np.repeat(np.arange(rows) % 2 == 0, np.diff(indptr))
        data, indices, indptr = data[keep], indices[keep], indptr[0::2] // 2
        b, rows = b[0::2], rows // 2
    if even_cols:  # contiguous data, else scipy copies it at every product
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


def _read_doc(path):
    """The JSON document at path; InvalidArgument if it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidArgument(f"malformed network document: {exc}") from exc


def load_network(path):
    """Read a network written by save_network; older dense "A" layers load too."""
    return _network_from_doc(_read_doc(path))
