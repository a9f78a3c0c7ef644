"""Structural calculus: composition, identity networks, depth extension,
parallel lanes, and their exact depth/weight formulas."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from requnet import (
    BETA1,
    DimensionMismatch,
    EmptyList,
    GAMMA1,
    InvalidArgument,
    NonFiniteEntry,
    OMEGA1,
    affine_network,
    complexity,
    concat,
    extend,
    identity_network,
    make_network,
    mult_network,
    parallelize,
    realize,
    realize_batch,
    requ,
    sparse_concat,
)
from requnet.calculus import _sparse_chain

rng = np.random.default_rng(2203)


def random_net(in_dim=None, depth=None, width_hi=5):
    in_dim = in_dim or int(rng.integers(1, width_hi + 1))
    depth = depth or int(rng.integers(1, 4))
    dims = [in_dim] + [int(rng.integers(1, width_hi + 1)) for _ in range(depth)]
    return make_network(
        [
            (rng.uniform(-0.5, 0.5, (dims[k + 1], dims[k])), rng.uniform(-0.5, 0.5, dims[k + 1]))
            for k in range(depth)
        ]
    )


def rel_err(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))) / scale)


# ---------------------------------------------------------------------------
# the scalar gadget underlying every identity construction
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=200)
@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_gadget_identity_scalar(x):
    got = BETA1 @ requ(OMEGA1 * x + GAMMA1)
    assert rel_err(got, np.array([x])) < 1e-12


def test_gadget_constants():
    np.testing.assert_array_equal(OMEGA1, [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_array_equal(GAMMA1, [1.0, -1.0, -1.0, 1.0])
    np.testing.assert_array_equal(BETA1, [0.25, 0.25, -0.25, -0.25])


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------


def test_concat_scalar_affine_composition():
    doubler = make_network([(np.array([[2.0]]), np.array([0.0]))])
    inner = make_network([(np.array([[3.0]]), np.array([1.0]))])
    net = concat(doubler, inner)
    assert net.depth == 1
    np.testing.assert_allclose(realize(net, [5.0]), [2 * (3 * 5 + 1)])


def test_concat_with_identity_selection_keeps_nnz():
    phi = random_net(in_dim=3, depth=3)
    net = concat(phi, affine_network(np.eye(3), np.zeros(3)))
    assert complexity(net).layer_nnz == complexity(phi).layer_nnz
    x = rng.uniform(-1, 1, 3)
    assert (realize(net, x) == realize(phi, x)).all()


def test_concat_depth_formula():
    phi2 = random_net(in_dim=4, depth=4)
    phi1 = random_net(in_dim=phi2.output_dim, depth=3)
    assert concat(phi1, phi2).depth == 6


def test_concat_matches_sequential_evaluation():
    for _ in range(50):
        phi2 = random_net()
        phi1 = random_net(in_dim=phi2.output_dim)
        net = concat(phi1, phi2)
        assert net.depth == phi1.depth + phi2.depth - 1
        x = rng.uniform(-1, 1, phi2.input_dim)
        assert rel_err(realize(net, x), realize(phi1, realize(phi2, x))) < 1e-10


def test_concat_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        concat(random_net(in_dim=3), random_net(in_dim=2, depth=1))


def test_concat_is_associative():
    phi3 = random_net(in_dim=2)
    phi2 = random_net(in_dim=phi3.output_dim)
    phi1 = random_net(in_dim=phi2.output_dim)
    left = concat(concat(phi1, phi2), phi3)
    right = concat(phi1, concat(phi2, phi3))
    assert left.depth == right.depth
    x = rng.uniform(-1, 1, 2)
    np.testing.assert_allclose(realize(left, x), realize(right, x), rtol=1e-12, atol=1e-12)


def test_selection_composition_never_increases_layer_nnz():
    """Fusing a one-nonzero-per-row selection matrix in front of a network
    cannot increase any per-layer weight count."""
    for _ in range(50):
        phi = random_net()
        m = int(rng.integers(1, 5))
        D = np.zeros((phi.input_dim, m))
        for row in range(phi.input_dim):
            if rng.random() < 0.8:
                D[row, rng.integers(0, m)] = rng.uniform(-2.0, 2.0)
        net = concat(phi, affine_network(D, np.zeros(phi.input_dim)))
        for after, before in zip(complexity(net).layer_nnz, complexity(phi).layer_nnz):
            assert after <= before


# ---------------------------------------------------------------------------
# identity networks
# ---------------------------------------------------------------------------


def test_identity_hand_example():
    net = identity_network(1, 2)
    np.testing.assert_allclose(realize(net, [-5.0]), [-5.0], rtol=0, atol=1e-12)


def test_identity_weight_formula():
    assert complexity(identity_network(3, 4)).total_nnz == 156
    for n in (1, 2, 5):
        for L in range(2, 7):
            assert complexity(identity_network(n, L)).total_nnz == 20 * n * L - 28 * n


def test_identity_depth_one_is_plain_identity():
    net = identity_network(7, 1)
    rep = complexity(net)
    assert rep.depth == 1
    assert rep.total_nnz == 7
    x = rng.uniform(-50, 50, 7)
    assert (realize(net, x) == x).all()


def test_identity_exact_on_unrestricted_range():
    for n in range(1, 17):
        for L in range(1, 9):
            net = identity_network(n, L)
            assert net.depth == L
            x = rng.uniform(-100, 100, n)
            assert rel_err(realize(net, x), x) < 1e-10


@settings(derandomize=True, max_examples=200)
@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=1, max_value=10),
)
def test_identity_forward_error_bound(x, L):
    # Exact in real arithmetic; in floating point each gadget squares
    # x +- 1, so the absolute error grows like the unit roundoff times
    # (|x| + 1)^2 per layer.
    y = realize(identity_network(1, L), [x])[0]
    assert abs(y - x) <= L * 2.0**-53 * (abs(x) + 1.0) ** 2


def test_identity_rejects_bad_arguments():
    with pytest.raises(InvalidArgument):
        identity_network(0, 2)
    with pytest.raises(InvalidArgument):
        identity_network(3, 0)


# ---------------------------------------------------------------------------
# sparse_concat
# ---------------------------------------------------------------------------


def test_sparse_concat_scalar_doubling():
    doubler = make_network([(np.array([[2.0]]), np.array([0.0]))])
    net = sparse_concat(doubler, doubler)
    assert net.depth == 2
    np.testing.assert_allclose(realize(net, [3.0]), [12.0], rtol=1e-12)


def test_sparse_concat_depth_formula():
    phi2 = random_net(in_dim=2, depth=2)
    phi1 = random_net(in_dim=phi2.output_dim, depth=2)
    assert sparse_concat(phi1, phi2).depth == 4


def test_sparse_concat_composition_exactness():
    """200 random pairs, 10 inputs each."""
    for _ in range(200):
        phi2 = random_net()
        phi1 = random_net(in_dim=phi2.output_dim)
        net = sparse_concat(phi1, phi2)
        assert net.depth == phi1.depth + phi2.depth
        for _ in range(10):
            x = rng.uniform(-1, 1, phi2.input_dim)
            assert rel_err(realize(net, x), realize(phi1, realize(phi2, x))) < 1e-10


def test_sparse_concat_weight_bounds():
    """Both the boundary-term bound and the looser 5M+5M+4n bound."""
    for _ in range(100):
        phi2 = random_net()
        phi1 = random_net(in_dim=phi2.output_dim)
        c1, c2 = complexity(phi1), complexity(phi2)
        n = phi2.output_dim
        total = complexity(sparse_concat(phi1, phi2)).total_nnz
        tight = c1.total_nnz + c2.total_nnz + 4 * c1.layer_nnz[0] + 4 * c2.layer_nnz[-1] + 4 * n
        assert total <= tight
        assert total <= 5 * c1.total_nnz + 5 * c2.total_nnz + 4 * n


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def test_extend_equal_depth_is_identity_operation():
    phi = random_net(depth=3)
    net = extend(phi, 3)
    assert net.depth == 3
    x = rng.uniform(-1, 1, phi.input_dim)
    assert (realize(net, x) == realize(phi, x)).all()


def test_extend_identity_preserved():
    net = extend(identity_network(1, 2), 5)
    assert net.depth == 5
    np.testing.assert_allclose(realize(net, [7.0]), [7.0], rtol=1e-12)


def test_extend_affine_net():
    doubler = make_network([(np.array([[2.0]]), np.array([0.0]))])
    net = extend(doubler, 3)
    assert net.depth == 3
    np.testing.assert_allclose(realize(net, [-4.0]), [-8.0], rtol=1e-12)


def test_extend_rejects_shrinking():
    with pytest.raises(InvalidArgument):
        extend(identity_network(2, 3), 2)


def test_extend_random_instances():
    for _ in range(100):
        phi = random_net()
        L = phi.depth + int(rng.integers(0, 5))
        net = extend(phi, L)
        assert net.depth == L
        x = rng.uniform(-1, 1, phi.input_dim)
        assert rel_err(realize(net, x), realize(phi, x)) < 1e-10


# ---------------------------------------------------------------------------
# parallelize
# ---------------------------------------------------------------------------


def test_parallelize_independent_lanes():
    doubler = make_network([(np.array([[2.0]]), np.array([0.0]))])
    tripler = make_network([(np.array([[3.0]]), np.array([0.0]))])
    net = parallelize([doubler, tripler])
    np.testing.assert_allclose(realize(net, [1.0, 1.0]), [2.0, 3.0], rtol=1e-12)


def test_parallelize_equal_depth_nnz_additive():
    one = mult_network(2, 2, 2)
    both = parallelize([one, one])
    assert complexity(both).total_nnz == 2 * complexity(one).total_nnz


def test_parallelize_mixed_depths():
    phi_a = random_net(depth=2)
    phi_b = random_net(depth=4)
    net = parallelize([phi_a, phi_b])
    assert net.depth == 4
    xa = rng.uniform(-1, 1, phi_a.input_dim)
    xb = rng.uniform(-1, 1, phi_b.input_dim)
    got = realize(net, np.concatenate([xa, xb]))
    want = np.concatenate([realize(phi_a, xa), realize(phi_b, xb)])
    assert rel_err(got, want) < 1e-10


def test_parallelize_random_instances():
    for _ in range(100):
        k = int(rng.integers(2, 5))
        phis = [random_net() for _ in range(k)]
        net = parallelize(phis)
        assert net.depth == max(phi.depth for phi in phis)
        assert net.input_dim == sum(phi.input_dim for phi in phis)
        assert net.output_dim == sum(phi.output_dim for phi in phis)
        xs = [rng.uniform(-1, 1, phi.input_dim) for phi in phis]
        got = realize(net, np.concatenate(xs))
        want = np.concatenate([realize(phi, x) for phi, x in zip(phis, xs)])
        assert rel_err(got, want) < 1e-10


def test_parallelize_rejects_empty_list():
    with pytest.raises(EmptyList):
        parallelize([])


# ---------------------------------------------------------------------------
# affine_network
# ---------------------------------------------------------------------------


def test_affine_network_identity():
    net = affine_network(np.eye(3), np.zeros(3))
    x = rng.uniform(-1, 1, 3)
    assert (realize(net, x) == x).all()


def test_affine_network_row_sum():
    net = affine_network(np.array([[1.0, 1.0]]), np.array([0.0]))
    np.testing.assert_array_equal(realize(net, [2.0, 3.0]), [5.0])


def test_affine_network_scalar_bias_broadcast():
    net = affine_network(np.eye(2), 0)
    np.testing.assert_array_equal(realize(net, [1.5, -2.0]), [1.5, -2.0])


def _same_arrays(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_concat_rejects_overflowing_product():
    big = affine_network(np.array([[1e200]]))
    with pytest.raises(NonFiniteEntry):
        concat(big, big)
    with pytest.raises(NonFiniteEntry):
        concat(big, affine_network(np.array([[1.0]]), 1e200))  # bias overflows


def test_identity_middle_layers_are_one_object():
    net = identity_network(3, 6)
    view = net.layers  # one access lifts a recurring layer once
    for k in (2, 3, 4):
        assert net._layers[k] is net._layers[1]
        assert view[k] is view[1]


def test_calculus_passes_operand_layers_on_unchanged():
    phi = identity_network(2, 4)
    psi = make_network([(rng.standard_normal((2, 3)), rng.standard_normal(2))])
    for net in (concat(affine_network(np.eye(2)), phi), extend(phi, 6)):
        assert all(a is b for a, b in zip(net._layers[:-1], phi._layers[:-1]))
    assert all(a is b for a, b in zip(sparse_concat(phi, psi)._layers[-3:], phi._layers[1:]))


def test_sparse_chain_junctions_map_each_stage_output():
    """Junction (c, t) maps the stage's output y to c y + t, also where that
    stage ends in a nonzero bias, and plain junctions keep the sparse_concat
    layers."""
    inner, middle = random_net(in_dim=3, depth=2), random_net(in_dim=4, depth=3)
    inner = concat(affine_network(rng.uniform(-0.5, 0.5, (4, inner.output_dim)), 0.3), inner)
    outer = random_net(in_dim=4, depth=2)
    stages = [inner, middle, middle, outer]
    plain = _sparse_chain(stages)
    want = sparse_concat(outer, sparse_concat(middle, sparse_concat(middle, inner)))
    assert plain.depth == want.depth
    for (A, b, tag), (R, c, rtag) in zip(plain._layers, want._layers):
        assert tag == rtag and _same_arrays(b, c)
        assert all(_same_arrays(x, y) for x, y in ((A.data, R.data), (A.indices, R.indices)))
    unit = _sparse_chain(stages, [(1.0, np.zeros(4))] * 3 + [(1.0, 0.0)])
    assert unit._layers[5] is unit._layers[2]  # the join into the repeated middle stage
    assert unit._layers[-1] is outer._layers[-1]
    out = rng.uniform(-1, 1, outer.output_dim)
    junctions = [(1.5, rng.uniform(-1, 1, 4)), (1.0, np.array([0.0, 0.5, 0.0, -0.25])), (0.75, 0.0), (-2.0, out)]
    net = _sparse_chain(stages, junctions)
    assert net.depth == plain.depth and complexity(net).layer_nnz == complexity(plain).layer_nnz
    assert net._layers[5][0] is net._layers[2][0]  # shifted joins keep the shared matrix
    for x in rng.uniform(-1, 1, (10, 3)):
        y = x
        for stage, (c, t) in zip(stages, junctions):
            y = c * realize(stage, y) + t
        assert rel_err(realize(net, x), y) <= 1e-12


def test_parallelize_matches_block_diag_reference():
    phis = [random_net(depth=3), identity_network(2, 3), random_net(depth=1)]
    net = parallelize(phis)
    padded = [extend(phi, net.depth) for phi in phis]
    for k, (A, b) in enumerate(net.layers):
        ref = sp.block_diag([p.layers[k][0] for p in padded], format="csr")
        ref.sort_indices()
        assert A.shape == ref.shape
        for x, y in ((A.data, ref.data), (A.indices, ref.indices), (A.indptr, ref.indptr)):
            assert _same_arrays(x, y)
        assert _same_arrays(b, np.concatenate([p.layers[k][1] for p in padded]))


def test_parallelize_keeps_biases_of_a_shared_matrix():
    # one read-only canonical CSR in three layers is stored as that one object,
    # so a level's stack must not be reused across the distinct biases
    A = sp.csr_matrix(np.array([[1.0, -2.0], [0.5, 3.0]]))
    for a in (A.data, A.indices, A.indptr):
        a.setflags(write=False)
    net = make_network([(A, [0.1, 0.2]), (A, [0.3, -0.4]), (A, [-0.5, 0.6])])
    X = rng.uniform(-1, 1, (2, 17))
    want = X
    for k, (W, b) in enumerate(net.layers):
        want = W @ want + b[:, None]
        want = np.square(np.maximum(want, 0.0)) if k < net.depth - 1 else want
    assert realize_batch(parallelize([net]), X).tobytes() == want.tobytes()
    twice = realize_batch(parallelize([net, net]), np.vstack([X, X]))
    assert twice.tobytes() == np.vstack([want, want]).tobytes()


def test_parallelize_repeats_stack_of_repeated_lanes():
    net = parallelize([identity_network(2, 6), identity_network(3, 6)])
    assert all(net._layers[k] is net._layers[1] for k in (2, 3, 4))
    assert net._layers[0] is not net._layers[1]
