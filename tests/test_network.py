"""Network representation: construction validation, realization semantics,
exact complexity accounting, and serialization round-trips."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from requnet import (
    DimensionMismatch,
    EmptyNetwork,
    InvalidArgument,
    Network,
    NonFiniteEntry,
    assemble_affine_system,
    build_reduced_basis,
    complexity,
    concat,
    extend,
    identity_network,
    inversion_network,
    load_network,
    make_network,
    mult_network,
    parallelize,
    power_network,
    realize,
    realize_batch,
    requ,
    save_network,
    solution_network,
    sparse_concat,
)

rng = np.random.default_rng(1207)


def test_requ_values():
    x = np.array([-2.0, -0.0, 0.0, 0.5, 3.0])
    np.testing.assert_array_equal(requ(x), [0.0, 0.0, 0.0, 0.25, 9.0])


def test_make_network_single_affine_layer():
    net = make_network([(np.array([[2.0]]), np.array([0.0]))])
    assert net.input_dim == net.output_dim == 1
    np.testing.assert_array_equal(realize(net, [3.0]), [6.0])


def test_make_network_shape_bookkeeping():
    net = make_network(
        [
            (rng.random((2, 3)), np.zeros(2)),
            (rng.random((4, 2)), np.zeros(4)),
        ]
    )
    assert net.input_dim == 3
    assert net.output_dim == 4
    assert net.depth == 2


def test_make_network_rejects_incompatible_layers():
    with pytest.raises(DimensionMismatch):
        make_network(
            [
                (rng.random((2, 3)), np.zeros(2)),
                (rng.random((4, 5)), np.zeros(4)),
            ]
        )


def test_make_network_rejects_bad_bias_and_empty():
    with pytest.raises(DimensionMismatch):
        make_network([(np.eye(2), np.zeros(3))])
    with pytest.raises(EmptyNetwork):
        make_network([])
    with pytest.raises(NonFiniteEntry):
        make_network([(np.array([[np.nan]]), np.zeros(1))])
    with pytest.raises(NonFiniteEntry):
        make_network([(np.eye(1), np.array([np.inf]))])


def test_network_is_immutable():
    net = make_network([(np.eye(2), np.zeros(2))])
    with pytest.raises(AttributeError):
        net.layers = ()
    with pytest.raises(ValueError):
        net.layers[0][1][0] = 5.0


def test_layer_weights_are_read_only():
    net = make_network([(sp.random(4, 3, density=0.7, random_state=5), np.ones(4))])
    x = rng.uniform(-1, 1, 3)
    before = realize(net, x)
    A = net.layers[0][0]
    for arr in (A.data, A.indices, A.indptr):
        with pytest.raises(ValueError):
            arr[0] = 99
    assert (realize(net, x) == before).all()


def test_direct_constructor_leaves_caller_matrix_writable():
    A = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
    net = Network([(A, np.zeros(2))])
    A.data[0] = 99.0
    np.testing.assert_array_equal(realize(net, [1.0, 1.0]), [2.0, 3.0])


def test_network_shares_read_only_layers():
    # layers that do not pair are stored as given, so the view is the store
    shapes = [(3, 4), (4, 2)]
    net = make_network([(rng.standard_normal((m, n)), rng.standard_normal(m)) for n, m in shapes])
    again = Network(net.layers)
    assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(net._layers, again._layers))


def test_realize_rejects_non_finite_input():
    net = make_network([(np.eye(2), np.zeros(2))])
    for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(NonFiniteEntry):
            realize(net, bad)


def test_realize_batch_rejects_non_finite_input():
    net = make_network([(np.eye(2), np.zeros(2))])
    X = np.zeros((2, 5))
    X[1, 3] = np.nan
    with pytest.raises(NonFiniteEntry):
        realize_batch(net, X)
    X[1, 3] = -np.inf
    with pytest.raises(NonFiniteEntry):
        realize_batch(net, X, chunk=2)


def test_realize_affine_last_layer():
    net = make_network([(np.array([[2.0]]), np.array([1.0]))])
    np.testing.assert_array_equal(realize(net, [3.0]), [7.0])


def test_realize_applies_activation_between_layers():
    net = make_network(
        [
            (np.array([[1.0]]), np.array([0.0])),
            (np.array([[1.0]]), np.array([0.0])),
        ]
    )
    np.testing.assert_array_equal(realize(net, [-2.0]), [0.0])
    np.testing.assert_array_equal(realize(net, [3.0]), [9.0])


def test_realize_rejects_wrong_input_length():
    net = make_network([(np.eye(3), np.zeros(3))])
    with pytest.raises(DimensionMismatch):
        realize(net, [1.0, 2.0])


def test_realize_matches_loop_oracle_exactly():
    """Equal bit for bit to a plain loop over the stored layers, and close to
    the same recursion on the original dense arrays (BLAS may reorder sums)."""
    for _ in range(20):
        depth = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
        layers = [
            (rng.uniform(-1, 1, (dims[k + 1], dims[k])), rng.uniform(-1, 1, dims[k + 1]))
            for k in range(depth)
        ]
        net = make_network(layers)
        x = rng.uniform(-2, 2, dims[0])

        stored = x.copy()
        for k, (A, b) in enumerate(net.layers):
            stored = A @ stored + b
            if k != depth - 1:
                stored = np.square(np.maximum(stored, 0.0))
        assert (realize(net, x) == stored).all()

        dense = x.copy()
        for k, (A, b) in enumerate(layers):
            dense = A @ dense + b
            if k != depth - 1:
                dense = np.square(np.maximum(dense, 0.0))
        np.testing.assert_allclose(realize(net, x), dense, rtol=1e-12, atol=1e-14)


def test_realize_is_pure_and_deterministic():
    net = make_network([(rng.random((3, 3)), rng.random(3))] * 2)
    x = rng.uniform(-1, 1, 3)
    first = realize(net, x)
    second = realize(net, x)
    assert (first == second).all()


def test_realize_batch_matches_columnwise_realize():
    net = make_network(
        [
            (rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, 5)),
            (rng.uniform(-1, 1, (2, 5)), rng.uniform(-1, 1, 2)),
        ]
    )
    X = rng.uniform(-1, 1, (3, 40))
    batch = realize_batch(net, X)
    chunked = realize_batch(net, X, chunk=7)
    for j in range(X.shape[1]):
        np.testing.assert_array_equal(batch[:, j], realize(net, X[:, j]))
    np.testing.assert_array_equal(batch, chunked)


def test_complexity_counts_bit_exact_zeros():
    A = np.array([[1.0, 0.0], [0.0, -2.0]])
    b = np.array([0.0, 3.0])
    rep = complexity(make_network([(A, b)]))
    assert rep.depth == 1
    assert rep.total_nnz == 3
    assert rep.layer_nnz == (3,)
    assert rep.nodes == 4


def test_complexity_sees_through_stored_zeros():
    """Explicitly stored zeros in a sparse matrix must not count."""
    A = sp.csr_matrix((np.array([1.0, 0.0]), (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2))
    assert A.nnz == 2  # one stored entry is an exact zero
    rep = complexity(make_network([(A, np.zeros(2))]))
    assert rep.total_nnz == 1


def _duplicate_entry_layer():
    """1 x 1 CSR layer storing 1.0 and 2.0 at the same position (0, 0)."""
    A = sp.csr_matrix((np.array([1.0, 2.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 1))
    assert A.nnz == 2
    return A


def test_make_network_sums_duplicate_entries():
    A = _duplicate_entry_layer()
    net = make_network([(A, np.zeros(1))])
    assert complexity(net).total_nnz == 1
    assert np.array_equal(realize(net, [1.0]), [3.0])
    assert np.array_equal(net.layers[0][0].data, [3.0])
    assert np.array_equal(A.data, [1.0, 2.0])  # the caller's matrix is untouched


def test_network_shares_no_non_canonical_read_only_input():
    A = _duplicate_entry_layer()
    for a in (A.data, A.indices, A.indptr):
        a.setflags(write=False)
    net = make_network([(A, np.zeros(1))])
    assert net.layers[0][0] is not A
    assert complexity(net).total_nnz == 1


def test_load_sums_duplicate_entries(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "input_dim": 1,
        "layers": [{"rows": 1, "cols": 1, "data": [1.0, 2.0], "indices": [0, 0],
                    "indptr": [0, 2], "b": [0.0]}],
    }))
    net = load_network(path)
    assert complexity(net).total_nnz == 1
    assert np.array_equal(realize(net, [1.0]), [3.0])


def test_complexity_identity_formula():
    assert complexity(identity_network(3, 4)).total_nnz == 20 * 3 * 4 - 28 * 3


def test_complexity_single_identity_layer():
    rep = complexity(make_network([(np.eye(2), np.zeros(2))]))
    assert rep.depth == 1
    assert rep.total_nnz == 2
    assert rep.nodes == 4


def test_complexity_mult_network_bound():
    rep = complexity(mult_network(2, 2, 2))
    assert rep.depth == 2
    assert rep.total_nnz <= 96
    assert rep.total_nnz == sum(rep.layer_nnz)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    layers = [
        (rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4)),
        (rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 2)),
    ]
    net = make_network(layers)
    path = tmp_path / "net.json"
    save_network(path, net)
    loaded = load_network(path)
    assert loaded.depth == net.depth
    for (A, b), (A2, b2) in zip(net.layers, loaded.layers):
        assert (A.toarray() == A2.toarray()).all()
        assert (b == b2).all()
    x = rng.uniform(-1, 1, 3)
    assert (realize(net, x) == realize(loaded, x)).all()


@pytest.mark.parametrize("text", [b"{not json", b"", b"\xff\xfe{}"])
def test_load_network_rejects_non_json(tmp_path, text):
    path = tmp_path / "net.json"
    path.write_bytes(text)
    with pytest.raises(InvalidArgument, match="malformed"):
        load_network(path)


def test_network_file_format_schema(tmp_path):
    """Layers are stored as their CSR arrays, so a file grows with the
    nonzero count rather than with rows x cols."""
    net = make_network([(np.array([[1.0, 0.0], [0.5, 2.0]]), np.array([0.0, 1.0]))])
    path = tmp_path / "net.json"
    save_network(path, net)
    doc = json.loads(path.read_text())
    assert set(doc) == {"input_dim", "layers"}
    assert doc["input_dim"] == 2
    layer = doc["layers"][0]
    assert set(layer) == {"rows", "cols", "data", "indices", "indptr", "b"}
    assert (layer["rows"], layer["cols"]) == (2, 2)
    assert layer["data"] == [1.0, 0.5, 2.0]
    assert layer["indices"] == [0, 0, 1]
    assert layer["indptr"] == [0, 1, 3]
    assert layer["b"] == [0.0, 1.0]


def test_folded_network_file_format_schema(tmp_path):
    """A layer of (z, -z) unit pairs is saved as stored: its even rows, with
    "square": true, and the next layer keeps its even columns."""
    net = mult_network(1, 1, 1)
    path = tmp_path / "net.json"
    save_network(path, net)
    hidden, out = json.loads(path.read_text())["layers"]
    assert set(hidden) == {"rows", "cols", "data", "indices", "indptr", "b", "square"}
    assert hidden["square"] is True
    assert (hidden["rows"], hidden["cols"]) == (2, 2)
    assert hidden["data"] == [1.0, 1.0, 1.0, -1.0]
    assert hidden["indices"] == [0, 1, 0, 1]
    assert hidden["indptr"] == [0, 2, 4]
    assert hidden["b"] == [0.0, 0.0]
    assert set(out) == {"rows", "cols", "data", "indices", "indptr", "b"}
    assert (out["rows"], out["cols"]) == (1, 2)
    assert out["data"] == [0.25, -0.25]
    assert out["indices"] == [0, 1]
    (A1, b1), (A2, _) = net.layers
    assert np.array_equal(A1.toarray()[0::2], [[1.0, 1.0], [1.0, -1.0]])
    assert b1[0::2].tolist() == hidden["b"]
    assert np.array_equal(A2.toarray()[:, 0::2], [[0.25, -0.25]])


def test_save_load_keeps_csr_structure(tmp_path):
    """data/indices/indptr come back exactly, an explicitly stored zero too."""
    A = sp.csr_matrix(
        (np.array([0.1, 0.0, -1 / 3]), np.array([1, 0, 2]), np.array([0, 1, 3])),
        shape=(2, 3),
    )
    stored_zero = make_network([(A, np.array([0.0, 2.5])), (rng.random((2, 2)), np.ones(2))])
    assert stored_zero.layers[0][0].nnz == 3
    for net in (
        stored_zero,
        identity_network(3, 4),
        mult_network(2, 3, 2),
    ):
        path = tmp_path / "net.json"
        save_network(path, net)
        loaded = load_network(path)
        assert loaded.depth == net.depth
        for (A1, b1), (A2, b2) in zip(net.layers, loaded.layers):
            assert A1.shape == A2.shape
            for arrays in ((A1.data, A2.data), (A1.indices, A2.indices), (A1.indptr, A2.indptr)):
                assert np.array_equal(*arrays)
            assert np.array_equal(b1, b2)


# A network file in the dense row-major layout written before layers were
# stored as CSR arrays; such files must keep loading.
DENSE_DOC = (
    '{"input_dim": 3, "layers": [{"rows": 2, "cols": 3, "A": [0.1, 0.0, '
    '-0.3333333333333333, 0.0, 2.5e-17, 0.0], "b": [0.0, 1e-300]}, '
    '{"rows": 1, "cols": 2, "A": [1.0, -7.0], "b": [0.5]}]}'
)


def test_dense_network_document_still_loads(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(DENSE_DOC)
    net = load_network(path)
    want = [
        (np.array([[0.1, 0.0, -1 / 3], [0.0, 2.5e-17, 0.0]]), np.array([0.0, 1e-300])),
        (np.array([[1.0, -7.0]]), np.array([0.5])),
    ]
    assert net.input_dim == 3 and net.depth == 2
    for (A, b), (A_want, b_want) in zip(net.layers, want):
        assert np.array_equal(A.toarray(), A_want)
        assert np.array_equal(b, b_want)
    assert complexity(net).layer_nnz == (4, 3)
    x = np.array([0.7, -0.2, 0.4])
    assert np.array_equal(realize(net, x), realize(make_network(want), x))


# mult_network(1, 1, 1) in the layout written before stored layers were
# saved: its ReQU layers, lifted, with no "square" key; such files must keep
# loading, as written (unfolded).
LIFTED_DOC = (
    '{"input_dim": 2, "layers": [{"rows": 4, "cols": 2, "data": [1.0, 1.0, -1.0, '
    '-1.0, 1.0, -1.0, -1.0, 1.0], "indices": [0, 1, 0, 1, 0, 1, 0, 1], "indptr": '
    '[0, 2, 4, 6, 8], "b": [0.0, 0.0, 0.0, 0.0]}, {"rows": 1, "cols": 4, "data": '
    '[0.25, 0.25, -0.25, -0.25], "indices": [0, 1, 2, 3], "indptr": [0, 4], "b": [0.0]}]}'
)


def test_lifted_network_document_still_loads(tmp_path):
    path = tmp_path / "lifted.json"
    path.write_text(LIFTED_DOC)
    net, want = load_network(path), mult_network(1, 1, 1)
    assert _tags(net) == ("requ", None)
    X = rng.uniform(-2, 2, (2, 17))
    assert realize_batch(net, X).tobytes() == realize_batch(want, X).tobytes()
    assert complexity(net) == complexity(want)
    save_network(tmp_path / "again.json", net)
    assert (tmp_path / "again.json").read_text() == LIFTED_DOC


def _csr_doc():
    return {
        "input_dim": 2,
        "layers": [
            {"rows": 2, "cols": 2, "data": [1.0, 2.0], "indices": [0, 1],
             "indptr": [0, 1, 2], "b": [0.0, 0.0]}
        ],
    }


def _load_doc(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return load_network(path)


def test_load_csr_document_reference(tmp_path):
    net = _load_doc(tmp_path, _csr_doc())
    np.testing.assert_array_equal(realize(net, [3.0, -1.0]), [3.0, -2.0])


@pytest.mark.parametrize(
    "key, value",
    [
        ("indices", [0, 2]),  # column 2 of a 2-column matrix
        ("indices", [0, -1]),
        ("indices", [0]),  # fewer indices than data
        ("indices", [0, 1, 1]),  # more indices than data
        ("indices", [0.0, 1.5]),
        ("indices", [False, True]),
        ("indices", 1),
        ("indptr", [0, 2]),  # too short for 2 rows
        ("indptr", [0, 2, 1]),
        ("indptr", [0, 1, 3]),  # points past the data
        ("indptr", [1, 1, 2]),
        ("data", 1.0),
        ("data", ["x", "y"]),
        ("b", "zero"),
        ("rows", None),
        ("rows", 2.7),  # a float int() would truncate
        ("rows", 2.0),
        ("rows", 0),
        ("rows", True),
        ("cols", "2"),  # a string int() would parse
        ("cols", -2),
        ("square", True),  # the output layer is affine
        ("square", False),
        ("square", 1),
        ("square", "yes"),
        ("square", None),
    ],
)
def test_load_rejects_malformed_csr_layer(tmp_path, key, value):
    doc = _csr_doc()
    doc["layers"][0][key] = value
    with pytest.raises(InvalidArgument):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("key", ["rows", "cols", "data", "indices", "indptr", "b"])
def test_load_rejects_missing_layer_key(tmp_path, key):
    doc = _csr_doc()
    del doc["layers"][0][key]
    with pytest.raises(InvalidArgument):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize(
    "doc",
    [{"layers": _csr_doc()["layers"]}, {"input_dim": 2}, {"input_dim": 2, "layers": 3},
     {"input_dim": 2, "layers": [3]}, [], "net",
     {"input_dim": 2.9, "layers": _csr_doc()["layers"]},
     {"input_dim": "2", "layers": _csr_doc()["layers"]},
     {"input_dim": 2.0, "layers": _csr_doc()["layers"]},
     {"input_dim": True, "layers": _csr_doc()["layers"]},
     {"input_dim": 0, "layers": _csr_doc()["layers"]}],
)
def test_load_rejects_malformed_document(tmp_path, doc):
    with pytest.raises(InvalidArgument):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize(
    "key, value", [("rows", 2.7), ("rows", "2"), ("cols", 3.0), ("cols", "3"), ("rows", 0)]
)
def test_load_rejects_malformed_dense_layer_sizes(tmp_path, key, value):
    doc = json.loads(DENSE_DOC)
    doc["layers"][0][key] = value
    with pytest.raises(InvalidArgument):
        _load_doc(tmp_path, doc)


def _folded_doc(tmp_path):
    save_network(tmp_path / "net.json", mult_network(1, 1, 1))
    return json.loads((tmp_path / "net.json").read_text())


@pytest.mark.parametrize("value", [False, 1, 1.0, "yes", "true", None, [True]])
def test_load_rejects_a_square_key_other_than_true(tmp_path, value):
    doc = _folded_doc(tmp_path)
    _assert_same_store(_load_doc(tmp_path, doc), mult_network(1, 1, 1))
    doc["layers"][0]["square"] = value
    with pytest.raises(InvalidArgument, match="square"):
        _load_doc(tmp_path, doc)


def test_load_rejects_a_square_output_layer(tmp_path):
    doc = _folded_doc(tmp_path)
    doc["layers"][1]["square"] = True
    with pytest.raises(InvalidArgument, match="affine"):
        _load_doc(tmp_path, doc)


def test_network_accepts_sparse_and_dense_layers():
    dense = make_network([(np.eye(3), np.zeros(3))])
    sparse = make_network([(sp.eye(3, format="csr"), np.zeros(3))])
    x = rng.uniform(-1, 1, 3)
    assert (realize(dense, x) == realize(sparse, x)).all()


def test_make_network_copies_sparse_input():
    A = sp.eye(2, format="csr")
    net = make_network([(A, np.zeros(2))])
    A.data[0] = 99.0
    assert complexity(net).total_nnz == 2
    np.testing.assert_array_equal(realize(net, [1.0, 1.0]), [1.0, 1.0])


def test_direct_network_constructor_validates():
    with pytest.raises(EmptyNetwork):
        Network([])
    with pytest.raises(DimensionMismatch):
        Network([(np.zeros((0, 2)), np.zeros(0))])


def _layer_loop(net, X):
    """Reference evaluation with a fresh array at every step."""
    for k, (A, b) in enumerate(net.layers):
        X = A @ X + b[:, None]
        if k < net.depth - 1:
            X = np.square(np.maximum(X, 0.0))
    return X


def test_realize_batch_in_place_matches_layer_loop_and_keeps_input():
    net = make_network(
        [(rng.standard_normal((m, n)), rng.standard_normal(m)) for n, m in [(4, 7), (7, 5), (5, 3)]]
    )
    X = rng.standard_normal((4, 37))
    before = X.copy()
    want = _layer_loop(net, X)
    for chunk in (None, 1, 16):
        got = realize_batch(net, X, chunk=chunk)
        assert got.tobytes() == want.tobytes()
        assert X.tobytes() == before.tobytes()
    assert realize(net, X[:, 0]).tobytes() == want[:, 0].tobytes()


def _tags(net):
    return tuple(tag for _, _, tag in net._layers)


def test_trusted_network_checks_that_shapes_chain():
    net = mult_network(2, 2, 2)
    trusted = Network._trusted(net._layers)
    assert trusted._layers == net._layers and _tags(trusted) == ("square", None)
    with pytest.raises(DimensionMismatch):
        Network._trusted(net._layers[::-1])
    with pytest.raises(EmptyNetwork):
        Network._trusted(())
    with pytest.raises(InvalidArgument):  # a prefix ending in activations is no network
        Network._trusted(net._layers[:-1])


@pytest.mark.parametrize("chunk", [0, -1, 2.5])
def test_realize_batch_rejects_bad_chunk(chunk):
    net = make_network([(np.eye(2), np.zeros(2))])
    with pytest.raises(InvalidArgument):
        realize_batch(net, np.ones((2, 5)), chunk=chunk)


def test_realize_batch_accepts_numpy_integer_chunk():
    net = make_network([(np.eye(2), np.ones(2))])
    X = rng.standard_normal((2, 5))
    assert realize_batch(net, X, chunk=np.int64(2)).tobytes() == (X + 1.0).tobytes()


@pytest.fixture(scope="module")
def fold_nets():
    """Networks of the calculus, whose hidden layers all come in (z, -z)
    pairs, each with the scale of input it is built for."""
    system = assemble_affine_system(9, 2, 0.1)
    rb = build_reduced_basis(system, np.random.default_rng(303).uniform(0, 1, (8, 4)))
    rb_net, h_net = solution_network(rb, 1e-3, 1.01 * np.linalg.norm(rb.f_rb))
    return {
        "inversion l1": (inversion_network(2, 0.5, 0.9), 0.1 / 2),
        "inversion l2": (inversion_network(2, 0.5, 0.5), 0.5 / 2),
        "inversion l7": (inversion_network(3, 1e-3, 0.1), 0.9 / 3),
        "identity": (identity_network(3, 6), 2.0),
        "power": (power_network(2, 3), 0.5),
        "parallel": (
            parallelize([identity_network(2, 4), power_network(2, 1), mult_network(2, 2, 1)]),
            1.0,
        ),
        "rb_net": (rb_net, 1.0),
        "h_net": (h_net, 1.0),
    }


def _inputs_with_zeros(n, cols, scale):
    X = scale * rng.uniform(-1, 1, (n, cols))
    X[0, ::2] = -0.0
    X[-1, ::3] = 0.0
    X[:, 0] = -0.0
    return X


FOLD_NETS = [
    "inversion l1", "inversion l2", "inversion l7", "identity", "power", "parallel", "rb_net",
    "h_net",
]


@pytest.mark.parametrize("name", FOLD_NETS)
def test_every_hidden_layer_of_the_calculus_folds(fold_nets, name):
    net, _ = fold_nets[name]
    assert _tags(net) == ("square",) * (net.depth - 1) + (None,)
    assert sum(A.nnz for A, _, _ in net._layers) < sum(A.nnz for A, _ in net.layers)


@pytest.mark.parametrize("name", FOLD_NETS)
def test_folded_evaluation_is_bit_identical_to_layer_loop(fold_nets, name):
    net, scale = fold_nets[name]
    for cols in (1, 15, 16, 17, 128):
        X = _inputs_with_zeros(net.input_dim, cols, scale)
        before = X.tobytes()
        want = _layer_loop(net, X)
        assert np.isfinite(want).all()
        for chunk in (None, 1, 16):
            assert realize_batch(net, X, chunk=chunk).tobytes() == want.tobytes()
        assert X.tobytes() == before
    x = _inputs_with_zeros(net.input_dim, 1, scale)[:, 0]
    assert realize(net, x).tobytes() == _layer_loop(net, x[:, None])[:, 0].tobytes()


def _paired_layers(n=3, h=3, m=2):
    """Input n -> 2h hidden units (w_i x + c_i, -(w_i x + c_i)) -> m outputs
    weighting each pair equally, given to make_network with no tag."""
    W, c, V = rng.standard_normal((h, n)), rng.standard_normal(h), rng.standard_normal((m, h))
    A1 = np.empty((2 * h, n))
    A1[0::2], A1[1::2] = W, -W
    b1 = np.empty(2 * h)
    b1[0::2], b1[1::2] = c, -c
    return [[A1, b1], [np.repeat(V, 2, axis=1), rng.standard_normal(m)]]


def _near_miss(kind):
    """The layers of _paired_layers, exact or broken as `kind` says."""
    layers = _paired_layers()
    (A1, b1), (A2, _) = layers
    if kind == "odd row off by one ulp":
        A1[1, 0] = np.nextafter(A1[1, 0], np.inf)
    elif kind == "bias not negated":
        b1[1] = b1[0]
    elif kind == "odd hidden width":
        layers[0] = [np.vstack([A1, A1[:1]]), np.append(b1, b1[0])]
        layers[1][0] = np.hstack([A2, A2[:, :1]])
    elif kind == "unequal column pair":
        A2[0, 3] = np.nextafter(A2[0, 2], np.inf)
    elif kind == "column pair split across rows":
        # row 0 stores columns 0, 1, 2 and row 1 columns 3, 4, 5: stored
        # side by side, (2, 3) looks like a pair but spans two rows
        layers[1][0] = np.array([[1.5, 1.5, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 2.0, 2.0]])
    elif kind == "signed-zero bias pair":
        b1[0], b1[1] = 0.0, -0.0  # equal values, but 0.0 - 0.0 is +0
    elif kind == "signed-zero column pair":
        A2 = sp.csr_matrix(A2)
        A2.data[2], A2.data[3] = 0.0, -0.0  # a stored pair at columns 2, 3 of row 0
        layers[1][0] = A2
    elif kind == "dense":
        return [(rng.standard_normal((6, 3)), rng.standard_normal(6)),
                (rng.standard_normal((2, 6)), rng.standard_normal(2))]
    return layers


@pytest.mark.parametrize(
    "kind",
    ["exact pairs", "odd row off by one ulp", "bias not negated", "odd hidden width",
     "unequal column pair", "column pair split across rows", "signed-zero bias pair",
     "signed-zero column pair", "dense"],
)
def test_near_miss_pairing_does_not_fold(kind):
    """make_network stores hand-built layers as given, every hidden one
    "requ", whether they hold exact (z, -z) pairs or near misses of them."""
    layers = _near_miss(kind)
    net = make_network(layers)
    assert _tags(net) == ("requ", None)
    for (A, b, _), (A_in, b_in) in zip(net._layers, layers):
        assert np.array_equal(A.toarray(), sp.csr_matrix(A_in).toarray())
        assert b.tobytes() == b_in.tobytes()
    X = 3.0 * rng.standard_normal((net.input_dim, 32))
    want = _layer_loop(net, X)
    for chunk in (None, 16):
        assert realize_batch(net, X, chunk=chunk).tobytes() == want.tobytes()


def _pair_halves(p, q, v):
    """The entries (p // 2, q, v) at even p and at odd p, each sorted by
    (p // 2, q), so that partners line up."""
    halves = []
    for parity in (0, 1):
        m = p % 2 == parity
        order = np.lexsort((q[m], p[m] // 2))
        halves.append((p[m][order] // 2, q[m][order], v[m][order]))
    return halves


def _pairs_exactly(layer, nxt):
    """Test-side exact check of a pairing flag, from COO triples: row 2i + 1
    of (A, b) stores the negated entries of row 2i at the same columns, and
    nxt stores equal entries at columns 2i and 2i + 1 of each row."""
    (A, b), N = layer, nxt[0]
    if A.shape[0] % 2:
        return False
    a, n = A.tocoo(), N.tocoo()
    (re, ce, ve), (ro, co, vo) = _pair_halves(a.row, a.col, a.data)
    (he, se, we), (ho, so, wo) = _pair_halves(n.col, n.row, n.data)
    return (
        len(ve) == len(vo)
        and (re == ro).all() and (ce == co).all() and (vo == -ve).all()
        and (b[1::2] == -b[0::2]).all()
        and len(we) == len(wo)
        and (he == ho).all() and (se == so).all() and (wo == we).all()
    )


@pytest.fixture(scope="module")
def mixed_nets():
    """Seeded compositions of make_network nets with gadget nets; "pure"
    ones hold only calculus gadgets and make_network nets of exact pairs."""
    r = np.random.default_rng(5150)

    def dense(*widths):
        return make_network(
            [(r.uniform(-1, 1, (m, n)), r.uniform(-1, 1, m)) for n, m in zip(widths, widths[1:])]
        )

    def pairs(n, h, m):
        W, c = r.uniform(-1, 1, (h, n)), r.uniform(-1, 1, h)
        A, b = np.empty((2 * h, n)), np.empty(2 * h)
        A[0::2], A[1::2], b[0::2], b[1::2] = W, -W, c, -c
        V = np.repeat(r.uniform(-1, 1, (m, h)), 2, axis=1)
        return make_network([(A, b), (V, r.uniform(-1, 1, m))])

    return {
        "concat gadget after dense": concat(mult_network(1, 2, 1), dense(3, 5, 4)),
        "concat dense after gadget": concat(dense(4, 3, 2), identity_network(4, 3)),
        "sparse_concat dense after pairs": sparse_concat(dense(2, 4, 3), pairs(3, 2, 2)),
        "sparse_concat gadget after dense": sparse_concat(identity_network(4, 2), dense(3, 5, 4)),
        "extend dense": extend(dense(2, 6, 3), 5),
        "parallelize mixed": parallelize(
            [dense(2, 3), pairs(2, 2, 1), mult_network(1, 2, 1), identity_network(1, 4)]
        ),
        "nested mixed": concat(
            parallelize([pairs(2, 2, 1), dense(1, 3, 1)]),
            sparse_concat(identity_network(3, 2), dense(2, 4, 3)),
        ),
        "pure concat pairs after power": concat(pairs(1, 3, 2), power_network(1, 2)),
        "pure extend pairs": extend(pairs(2, 3, 2), 4),
        "pure parallelize": parallelize(
            [pairs(2, 3, 2), power_network(1, 1), extend(pairs(1, 2, 1), 3),
             identity_network(2, 2)]
        ),
        "pure nested": concat(
            identity_network(3, 3),
            sparse_concat(
                parallelize([mult_network(2, 1, 1), power_network(1, 2)]), pairs(2, 2, 4)
            ),
        ),
    }


MIXED_NETS = [
    "concat gadget after dense", "concat dense after gadget", "sparse_concat dense after pairs",
    "sparse_concat gadget after dense", "extend dense", "parallelize mixed", "nested mixed",
    "pure concat pairs after power", "pure extend pairs", "pure parallelize", "pure nested",
]


@pytest.mark.parametrize("name", FOLD_NETS + MIXED_NETS)
def test_pairing_flags_are_exact_pairings(fold_nets, mixed_nets, name):
    net = fold_nets[name][0] if name in fold_nets else mixed_nets[name]
    tags, layers = _tags(net), net.layers
    assert len(tags) == net.depth and tags[-1] is None
    for k, tag in enumerate(tags[:-1]):
        assert tag in ("square", "requ")
        assert tag == "requ" or _pairs_exactly(layers[k], layers[k + 1]), k
    if name in fold_nets:
        assert set(tags[:-1]) <= {"square"}
    X = rng.uniform(-1, 1, (net.input_dim, 32))
    assert realize_batch(net, X).tobytes() == _layer_loop(net, X).tobytes()


def _assert_same_store(net, want):
    """The same stored layers: tags, shapes, and the bytes of the CSR arrays
    and bias."""
    assert _tags(net) == _tags(want)
    for (A, b, _), (A_want, b_want, _) in zip(net._layers, want._layers):
        assert A.shape == A_want.shape
        assert A.data.tobytes() == A_want.data.tobytes()
        assert np.array_equal(A.indices, A_want.indices)
        assert np.array_equal(A.indptr, A_want.indptr)
        assert b.tobytes() == b_want.tobytes()


@pytest.mark.parametrize("name", FOLD_NETS + MIXED_NETS)
def test_save_load_keeps_the_stored_layers(fold_nets, mixed_nets, tmp_path, name):
    net = fold_nets[name][0] if name in fold_nets else mixed_nets[name]
    save_network(tmp_path / "net.json", net)
    loaded = load_network(tmp_path / "net.json")
    _assert_same_store(loaded, net)
    save_network(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "net.json").read_bytes()


@pytest.mark.parametrize("name", ["inversion l7", "parallel", "h_net"])
def test_loaded_network_flags_match_the_calculus(fold_nets, tmp_path, name):
    # a loaded network's tags come from the "square" keys of its file
    net = fold_nets[name][0]
    save_network(tmp_path / "net.json", net)
    assert _tags(load_network(tmp_path / "net.json")) == _tags(net)


@pytest.mark.parametrize("kind", ["signed-zero bias pair", "signed-zero column pair"])
def test_signed_zero_pairs_survive_load_and_save(tmp_path, kind):
    # folded, such a pair would come back from the view as (+0.0, +0.0)
    save_network(tmp_path / "net.json", make_network(_near_miss(kind)))
    save_network(tmp_path / "again.json", load_network(tmp_path / "net.json"))
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "net.json").read_bytes()


def _shared_matrix_net():
    # one read-only canonical CSR in three layers with three biases: the store
    # keeps that very object in each layer, as construction does not copy it
    A = sp.csr_matrix(np.array([[1.0, -2.0], [0.5, 3.0]]))
    for a in (A.data, A.indices, A.indptr):
        a.setflags(write=False)
    biases = [np.array([0.1, 0.2]), np.array([0.3, -0.4]), np.array([-0.5, 0.6])]
    net = make_network([(A, b) for b in biases])
    assert all(stored is A for stored, _, _ in net._layers)
    return net, A, biases


def test_shared_matrix_with_distinct_biases_survives_view_and_save(tmp_path):
    net, A, biases = _shared_matrix_net()
    for (got, b), want in zip(net.layers, biases):
        assert got is A and b.tobytes() == want.tobytes()
    save_network(tmp_path / "net.json", net)
    again = load_network(tmp_path / "net.json")
    for (got, b), want in zip(again.layers, biases):
        assert (got != A).nnz == 0 and b.tobytes() == want.tobytes()
    X = rng.uniform(-1, 1, (2, 17))
    assert realize_batch(again, X).tobytes() == realize_batch(net, X).tobytes()
    assert realize_batch(net, X).tobytes() == _layer_loop(net, X).tobytes()
