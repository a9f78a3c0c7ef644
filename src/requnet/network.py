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
    """Immutable sequence of affine layers, stored as evaluated: (A, b, tag).

    Tag "square" marks a layer of unit pairs (z, -z), as sigma2(z) +
    sigma2(-z) = z^2: it keeps its even rows, z^2 follows it and the next
    layer keeps its even columns.  Only the gadgets that emit such pairs set
    it (or a file that recorded it); other hidden layers are "requ", the
    output layer None.  `layers` derives the ReQU layers.  Instances are
    validated on construction and safe to share across threads; the CSR
    arrays and biases are read-only, so the calculus passes stored layers on
    as they are.
    """

    __slots__ = ("_layers", "input_dim", "output_dim")

    def __init__(self, layers):
        self._set_layers(_tagged([_seal(*_owned(A, b)) + (False,) for A, b in layers]))

    @classmethod
    def _trusted(cls, layers):
        """Network of validated (or freshly _sealed) stored layers, as they are;
        checks only that shapes chain and that the output layer is affine."""
        net = object.__new__(cls)
        net._set_layers(layers)
        return net

    def _set_layers(self, layers):
        layers = tuple(layers)
        if not layers:
            raise EmptyNetwork("a network needs at least one layer")
        for (A, _, _), (nxt, _, _) in zip(layers, layers[1:]):
            if nxt.shape[1] != A.shape[0]:
                raise DimensionMismatch(
                    f"layer expects {nxt.shape[1]} inputs but previous layer emits {A.shape[0]}"
                )
        if layers[-1][2] is not None:
            raise InvalidArgument("the output layer of a network is affine")
        object.__setattr__(self, "_layers", layers)
        object.__setattr__(self, "input_dim", layers[0][0].shape[1])
        object.__setattr__(self, "output_dim", layers[-1][0].shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    @property
    def layers(self):
        """The ReQU layers (A_k, b_k), lifted from the store on each access and
        not kept; a stored matrix recurring after the same tag is lifted once,
        also under another bias, and a recurring stored layer is one pair."""
        matrices, pairs, view, prev = {}, {}, [], None
        for A, b, tag in self._layers:
            lift = (tag == "square", prev == "square")
            key = (id(A),) + lift
            if (key, id(b)) not in pairs:
                pair = (matrices[key], _lift_bias(b, lift[0])) if key in matrices else _lift(A, b, *lift)
                pairs[key, id(b)], matrices[key] = pair, pair[0]
            view.append(pairs[key, id(b)])
            prev = tag
        return tuple(view)

    @property
    def depth(self):
        return len(self._layers)

    def __call__(self, x):
        return realize(self, x)

    def __repr__(self):
        widths = [A.shape[0] * (1 + (tag == "square")) for A, _, tag in self._layers]
        return f"Network(depth={self.depth}, widths={[self.input_dim] + widths})"


@dataclass(frozen=True)
class ComplexityReport:
    """Exact size accounting: depth L, node count N0 + sum N_k, and the
    per-layer nonzero counts M_k = nnz(A_k) + nnz(b_k)."""

    depth: int
    nodes: int
    total_nnz: int
    layer_nnz: tuple


def make_network(layers):
    """Validate and build a Network from (matrix, bias) pairs, each stored as
    given: its hidden layers are "requ", whatever their weights.

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


def realize_batch(net, X, chunk=None):
    """Evaluate the network on each column of X (input_dim x n_samples).

    realize is this on a single column; useful when evaluating a large
    network on a parameter grid.  When `chunk` (a positive integer, else
    InvalidArgument) is given, the columns are processed at most `chunk`
    at a time, which bounds the working set at (widest stored layer) x
    chunk doubles regardless of the sample count.  Raises NonFiniteEntry
    on NaN or infinite inputs.

    The stored layers run as they are, a quarter of the lifted layers'
    multiply-adds where units pair, and bit-identical to evaluating
    `layers`: one of sigma2(z), sigma2(-z) is exactly 0, and the dropped
    term c * 0 is a signed zero added to a row sum that starts from +0.
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
    return _evaluate(net._layers, X, chunk)


def _evaluate(layers, X, chunk=None):
    if chunk is not None and X.shape[1] > chunk:
        blocks = [_evaluate(layers, X[:, j : j + chunk]) for j in range(0, X.shape[1], chunk)]
        return np.concatenate(blocks, axis=1)
    for A, b, tag in layers:
        X = A @ X  # a fresh array, so the caller's X is never written
        X += b[:, None]
        if tag == "requ":
            np.maximum(X, 0.0, out=X)
        if tag is not None:  # requ in place, or z^2 on a pair
            np.square(X, out=X)
    return X


def _lift_bias(b, odd_rows):
    """b, or when odd_rows each entry followed by 0.0 minus it (-b would turn
    +0 into -0), read-only."""
    if not odd_rows:
        return b
    b = np.stack([b, 0.0 - b], axis=1).ravel()
    b.setflags(write=False)
    return b


def _lift(A, b, odd_rows, odd_cols):
    """The ReQU form of a stored layer: each row followed by 0.0 minus it,
    as its bias entry (_lift_bias), then each column entry repeated at 2j
    and 2j + 1, as asked."""
    if not (odd_rows or odd_cols):
        return A, b
    data, indices, indptr = A.data, A.indices, A.indptr
    rows, cols = A.shape
    if odd_rows:  # row i's entries, then its negated copy's, go to rows 2i and 2i + 1
        counts = np.diff(indptr)
        row = np.repeat(2 * np.arange(rows), counts)
        at = np.argsort(np.concatenate([row, row + 1]), kind="stable")
        data, indices = np.concatenate([data, 0.0 - data])[at], np.tile(indices, 2)[at]
        indptr = np.concatenate([indptr[:1], np.cumsum(np.repeat(counts, 2), dtype=indptr.dtype)])
        rows *= 2
    if odd_cols:
        data, indices, indptr = np.repeat(data, 2), np.repeat(2 * indices, 2), 2 * indptr
        indices[1::2] += 1
        cols *= 2
    return _seal(sp.csr_matrix((data, indices, indptr), shape=(rows, cols)), _lift_bias(b, odd_rows))


def complexity(net):
    """Exact complexity report of the ReQU network `layers`, counted from
    the store; an entry counts as zero only when it is bit-exactly zero."""
    layer_nnz, nodes, prev = [], net.input_dim, None
    for A, b, tag in net._layers:
        rows, cols = 1 + (tag == "square"), 1 + (prev == "square")  # units per stored row, column
        layer_nnz.append(rows * (cols * int(np.count_nonzero(A.data)) + int(np.count_nonzero(b))))
        nodes += rows * A.shape[0]
        prev = tag
    return ComplexityReport(
        depth=net.depth,
        nodes=nodes,
        total_nnz=sum(layer_nnz),
        layer_nnz=tuple(layer_nnz),
    )


def _tagged(layers):
    """Stored layers of sealed (A, b, square) triples: "square" as given,
    else "requ" for a hidden layer and None for the output layer."""
    last = len(layers) - 1
    return [
        (A, b, "square" if square else "requ" if k < last else None)
        for k, (A, b, square) in enumerate(layers)
    ]


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
                **({"square": True} if tag == "square" else {}),
            }
            for A, b, tag in net._layers
        ],
    }


def save_network(path, net):
    """Write the network as JSON, its layers as stored: each layer's CSR
    arrays (data, indices, indptr) and bias, and "square": true on a layer
    of folded unit pairs.  Floats use shortest round-trip decimals, so
    save/load is bit-exact for finite doubles and keeps the sparsity
    structure, explicitly stored zeros included."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_network_doc(net)))


def _layer_from_doc(layer):
    """(A, b, square) of one layer document; TypeError or ValueError if it is
    malformed."""
    shape = (layer["rows"], layer["cols"])
    if not all(map(_is_size, shape)):
        raise TypeError(f"layer rows and cols must be integers >= 1, got {shape}")
    square = "square" in layer
    if square and layer["square"] is not True:
        raise TypeError(f'"square" must be true, got {layer["square"]!r}')
    b = np.asarray(layer["b"], dtype=np.float64)
    if "A" in layer:  # dense row-major layout of files written before CSR
        A = sp.csr_matrix(np.asarray(layer["A"], dtype=np.float64).reshape(shape))
        return A, b, square
    index = [np.asarray(layer[key]) for key in ("indices", "indptr")]
    if any(a.size and a.dtype.kind != "i" for a in index):
        raise TypeError("CSR index arrays must hold integers")
    A = sp.csr_matrix((np.asarray(layer["data"], dtype=np.float64), *index), shape)
    # scipy's kernels trust the indices; out-of-range ones would read past x
    A.check_format(full_check=True)
    return A, b, square


def _network_from_doc(doc):
    try:
        layers = [_layer_from_doc(layer) for layer in doc["layers"]]
        input_dim = doc["input_dim"]
        if not _is_size(input_dim):
            raise TypeError(f"input_dim must be an integer >= 1, got {input_dim!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"malformed network document: {exc!r}") from exc
    net = Network._trusted(_tagged([_seal(A, b) + (square,) for A, b, square in layers]))
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
    """Read a network written by save_network, its layers as stored: a layer
    is "square" where the file says so, else "requ" (the output layer
    affine).  Lifted files of older versions and dense "A" layers load as
    they are written, unfolded."""
    return _network_from_doc(_read_doc(path))
