"""Exact matrix-arithmetic networks: column-major vectorization, the scalar
product gadget, multiplication/squaring/dyadic powers, the Neumann-series
approximate inverse with its partial-sum length rule, and the Chebyshev
doubling chain with its certified plan."""

import ast
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from requnet import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidArgument,
    NonFiniteEntry,
    affine_network,
    complexity,
    concat,
    extend,
    identity_network,
    inversion_network,
    matr,
    mult_network,
    neumann_length,
    neumann_partial_sum_oracle,
    parallelize,
    power_network,
    realize,
    scalar_product_network,
    sparse_concat,
    spectral_norm,
    square_network,
    vec,
)
from requnet import calculus, matrixnets
from requnet.matrixnets import _chebyshev_plan, _inversion_nnz_exact

rng = np.random.default_rng(4101)


def contraction(d, norm):
    """Random d x d matrix rescaled to the given spectral norm."""
    A = rng.standard_normal((d, d))
    return A * (norm / np.linalg.norm(A, 2))


def spectral_err(net, A):
    """|| net(vec A) - (I - A)^{-1} ||_2, reading the output as a matrix."""
    d = A.shape[0]
    approx = matr(realize(net, vec(A)), d, d)
    return np.linalg.norm(approx - np.linalg.inv(np.eye(d) - A), 2)


# ---------------------------------------------------------------- vec / matr


def test_vec_is_column_major():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert (vec(A) == np.array([1.0, 3.0, 2.0, 4.0])).all()


def test_matr_inverts_vec():
    A = rng.uniform(-1, 1, (3, 5))
    assert (matr(vec(A), 3, 5) == A).all()
    assert (vec(matr(np.arange(15.0), 3, 5)) == np.arange(15.0)).all()


def test_vec_matr_scalar_case():
    assert vec(np.array([[7.0]])) == np.array([7.0])
    assert matr(np.array([7.0]), 1, 1) == np.array([[7.0]])


def test_vec_matr_reject_bad_shapes():
    with pytest.raises(DimensionMismatch):
        vec(np.arange(4.0))
    with pytest.raises(DimensionMismatch):
        matr(np.arange(5.0), 2, 3)


# ------------------------------------------------------------ scalar product


def test_scalar_product_hand_computed():
    # (3, -2): hidden preimage (1, -1, 5, -5), squares (1, 0, 25, 0),
    # output (1 + 0 - 25 - 0)/4 = -6
    net = scalar_product_network()
    assert realize(net, [3.0, -2.0]) == np.array([-6.0])


def test_scalar_product_zero_annihilates():
    net = scalar_product_network()
    for y in [-17.0, 0.0, 2.5, 1e6]:
        assert realize(net, [0.0, y]) == np.array([0.0])
        assert realize(net, [y, 0.0]) == np.array([0.0])


def test_scalar_product_identity_factor_large_range():
    # (x + 1)^2 - (x - 1)^2 cancels catastrophically for |x| ~ 1e6, so the
    # achievable relative accuracy there is ~1e-10, not machine epsilon
    net = scalar_product_network()
    xs = rng.uniform(-1e6, 1e6, 50)
    got = np.array([realize(net, [x, 1.0])[0] for x in xs])
    np.testing.assert_allclose(got, xs, rtol=1e-9)


def test_scalar_product_complexity():
    rep = complexity(scalar_product_network())
    assert rep.depth == 2
    assert rep.layer_nnz == (8, 4)


def test_scalar_product_weights():
    (A1, b1), (A2, b2) = scalar_product_network().layers
    assert np.array_equal(
        A1.toarray(), [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
    )
    assert np.array_equal(A2.toarray(), [[0.25, 0.25, -0.25, -0.25]])
    assert np.array_equal(b1, np.zeros(4)) and np.array_equal(b2, np.zeros(1))


# ------------------------------------------------------------- mult_network


def test_mult_hand_computed():
    net = mult_network(2, 2, 2)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[5.0, 6.0], [7.0, 8.0]])
    got = matr(realize(net, np.concatenate([vec(A), vec(B)])), 2, 2)
    np.testing.assert_allclose(got, [[19.0, 22.0], [43.0, 50.0]], rtol=1e-14)


def test_mult_identity_factor():
    net = mult_network(3, 3, 2)
    B = rng.uniform(-2, 2, (3, 2))
    got = realize(net, np.concatenate([vec(np.eye(3)), vec(B)]))
    np.testing.assert_allclose(got, vec(B), rtol=1e-12, atol=1e-14)


def test_mult_rectangular_shapes():
    for d, n, l in [(1, 1, 1), (3, 2, 4), (2, 5, 1), (4, 1, 3)]:
        net = mult_network(d, n, l)
        A = rng.uniform(-1, 1, (d, n))
        B = rng.uniform(-1, 1, (n, l))
        got = matr(realize(net, np.concatenate([vec(A), vec(B)])), d, l)
        np.testing.assert_allclose(got, A @ B, rtol=1e-12, atol=1e-14)


def test_mult_layer_nnz_exact():
    for d, n, l in [(2, 2, 2), (3, 2, 4), (1, 5, 1)]:
        rep = complexity(mult_network(d, n, l))
        assert rep.depth == 2
        assert rep.layer_nnz[0] == 8 * d * n * l
        assert rep.layer_nnz[-1] == 4 * d * n * l
        assert rep.total_nnz <= 12 * d * n * l


def test_mult_rejects_nonpositive_dims():
    with pytest.raises(InvalidArgument):
        mult_network(0, 2, 2)
    with pytest.raises(InvalidArgument):
        mult_network(2, 2, -1)


# ----------------------------------------------------------- square_network


def test_square_zero_and_diagonal():
    net = square_network(2)
    assert (realize(net, np.zeros(4)) == np.zeros(4)).all()
    got = matr(realize(net, vec(np.diag([2.0, 3.0]))), 2, 2)
    np.testing.assert_allclose(got, np.diag([4.0, 9.0]), rtol=1e-14)


def test_square_random():
    net = square_network(4)
    for _ in range(20):
        A = rng.uniform(-1, 1, (4, 4))
        got = matr(realize(net, vec(A)), 4, 4)
        np.testing.assert_allclose(got, A @ A, rtol=1e-10, atol=1e-13)


def test_square_complexity():
    # fusing the input duplicator into the product gadget collapses the two
    # weight groups of each i=j=k gadget onto one column, where they cancel
    # pairwise: first layer 8d^3 - 6d instead of 8d^3
    for d in [1, 2, 3, 5]:
        rep = complexity(square_network(d))
        assert rep.depth == 2
        assert rep.layer_nnz[0] == 8 * d**3 - 6 * d
        assert rep.layer_nnz[-1] == 4 * d**3
        assert rep.total_nnz <= 12 * d**3


# ------------------------------------------------------------ power_network


def test_power_j1_matches_square():
    pow_net = power_network(3, 1)
    sq_net = square_network(3)
    assert complexity(pow_net).layer_nnz == complexity(sq_net).layer_nnz
    A = rng.uniform(-1, 1, (3, 3))
    assert (realize(pow_net, vec(A)) == realize(sq_net, vec(A))).all()


def test_power_dyadic_diagonal():
    # (1/2)^(2^3) = 2^-8 is exactly representable, and every intermediate
    # gadget value is dyadic, so the result is exact
    net = power_network(2, 3)
    got = matr(realize(net, vec(np.diag([0.5, 0.5]))), 2, 2)
    assert (got == np.diag([0.00390625, 0.00390625])).all()


def test_power_random_contractive():
    for d, j in [(2, 2), (3, 4), (4, 3)]:
        net = power_network(d, j)
        A = rng.uniform(-0.3, 0.3, (d, d))
        want = np.linalg.matrix_power(A, 2**j)
        got = matr(realize(net, vec(A)), d, d)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-14)


def test_power_depth_and_weight_bound():
    for d, j in [(2, 1), (3, 2), (4, 5), (6, 3)]:
        rep = complexity(power_network(d, j))
        assert rep.depth == 2 * j
        assert rep.total_nnz <= 64 * j * d**3


def test_power_rejects_bad_args():
    with pytest.raises(InvalidArgument):
        power_network(0, 1)
    with pytest.raises(InvalidArgument):
        power_network(2, 0)


# ----------------------------------------------------------- neumann_length


def test_neumann_length_examples():
    assert neumann_length(0.01, 0.5).l == 4
    assert neumann_length(0.5, 0.5).l == 2


def test_neumann_length_domain():
    # the Chebyshev plan shares the domain
    for eps, delta in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.5), (np.nan, 0.5)]:
        for plan in (neumann_length, _chebyshev_plan):
            with pytest.raises(InvalidArgument):
                plan(eps, delta)


@pytest.mark.parametrize("eps, delta", [(1e-3, 1e-17), (0.5, 1e-300), (5e-324, 0.4)])
def test_neumann_length_rejects_what_double_precision_cannot_plan(eps, delta):
    # 1 - delta rounds to 1, or delta * eps underflows to 0: the closed form
    # would divide by log(1) = 0 or take log(0), the Chebyshev bound start at 1
    # or never reach the tolerance
    for plan in (neumann_length, _chebyshev_plan):
        with pytest.raises(InvalidArgument):
            plan(eps, delta)


def test_neumann_length_tail_invariant_grid():
    # the whole point of l: the dropped tail (1-delta)^(2^l)/delta is under
    # the accuracy target for every (epsilon, delta) in the open unit square
    for eps in np.logspace(-6, -0.31, 20):
        for delta in np.linspace(0.025, 0.95, 20):
            plan = neumann_length(eps, delta)
            assert plan.l >= 1
            assert (1.0 - delta) ** (2**plan.l) / delta <= eps * (1 + 1e-12)


def test_neumann_length_monotone_in_epsilon():
    last = None
    for eps in [0.5, 0.1, 0.01, 0.001, 1e-6]:
        l = neumann_length(eps, 0.3).l
        if last is not None:
            assert l >= last
        last = l


# -------------------------------------------------- neumann_partial_sum_oracle


def test_oracle_zero_matrix():
    assert (neumann_partial_sum_oracle(np.zeros((3, 3)), 3) == np.eye(3)).all()


def test_oracle_diagonal_value():
    # sum_{k<4} (1/2)^k = 1.875
    got = neumann_partial_sum_oracle(np.diag([0.5, 0.5]), 2)
    assert (got == np.diag([1.875, 1.875])).all()


def test_oracle_matches_factored_form():
    # independent check of (I + A)(I + A^2)(I + A^4)... = sum_{k<2^l} A^k
    A = contraction(6, 0.9)
    l = 4
    prod = np.eye(6)
    power = A.copy()
    for _ in range(l):
        prod = prod @ (np.eye(6) + power)
        power = power @ power
    np.testing.assert_allclose(neumann_partial_sum_oracle(A, l), prod, rtol=1e-10)


def test_oracle_rejects_bad_args():
    with pytest.raises(DimensionMismatch):
        neumann_partial_sum_oracle(np.zeros((2, 3)), 2)
    with pytest.raises(InvalidArgument):
        neumann_partial_sum_oracle(np.zeros((2, 2)), 0)


# -------------------------------------------------------- inversion_network


def test_inversion_zero_matrix_gives_identity():
    net = inversion_network(3, 1e-2, 0.5)
    got = matr(realize(net, np.zeros(9)), 3, 3)
    assert (got == np.eye(3)).all()


def test_inversion_half_identity_exact_partial_sum():
    # l = 4 keeps 16 terms: sum_{k<16} 2^-k = 2 - 2^-15, exact in binary
    net = inversion_network(2, 1e-3, 0.5)
    assert neumann_length(1e-3, 0.5).l == 4
    got = matr(realize(net, vec(0.5 * np.eye(2))), 2, 2)
    assert (got == (2.0 - 2.0**-15) * np.eye(2)).all()
    assert spectral_err(net, 0.5 * np.eye(2)) <= 1e-3


def test_inversion_matches_partial_sum_oracle():
    # the network encodes the exact partial sum, independent of the tail bound
    d, eps, delta = 4, 1e-3, 0.2
    net = inversion_network(d, eps, delta)
    l = neumann_length(eps, delta).l
    for _ in range(10):
        A = contraction(d, 1.0 - delta)
        got = matr(realize(net, vec(A)), d, d)
        np.testing.assert_allclose(got, neumann_partial_sum_oracle(A, l), rtol=1e-10)


def test_inversion_error_bound_random_contractions():
    d, eps, delta = 8, 1e-3, 0.2
    net = inversion_network(d, eps, delta)
    for _ in range(10):
        assert spectral_err(net, contraction(d, 1.0 - delta)) <= eps


def test_inversion_smaller_norm_is_still_covered():
    # ||A||_2 strictly below 1 - delta only helps the tail bound
    net = inversion_network(4, 1e-3, 0.2)
    for norm in [0.1, 0.4, 0.7]:
        assert spectral_err(net, contraction(4, norm)) <= 1e-3


def test_inversion_error_shrinks_with_epsilon():
    A = contraction(4, 0.8)
    errs = [spectral_err(inversion_network(4, eps, 0.2), A) for eps in [1e-2, 1e-4]]
    assert errs[1] <= errs[0] + 1e-15


def test_inversion_depth_formula():
    for eps, delta in [(1e-2, 0.5), (1e-3, 0.2), (1e-4, 0.1)]:
        l = neumann_length(eps, delta).l
        rep = complexity(inversion_network(3, eps, delta))
        assert rep.depth == 2 * l + 1


def test_inversion_depth_padded_when_one_factor():
    # delta = 0.9, eps = 0.5 needs a single factor; the construction pads
    # the collapsed affine map so depth 2l + 1 = 3 still holds
    plan = neumann_length(0.5, 0.9)
    assert plan.l == 1
    net = inversion_network(2, 0.5, 0.9)
    assert complexity(net).depth == 3
    A = contraction(2, 0.1)
    got = matr(realize(net, vec(A)), 2, 2)
    np.testing.assert_allclose(got, np.eye(2) + A, rtol=1e-12, atol=1e-15)


def test_inversion_weight_polynomial():
    for d, eps, delta in [(3, 1e-2, 0.5), (4, 1e-3, 0.2), (8, 1e-3, 0.2)]:
        l = neumann_length(eps, delta).l
        assert l >= 2
        bound = (32 * l**2 + 60 * l - 80) * d**3 + (40 * l**2 - 44 * l - 112) * d**2
        assert complexity(inversion_network(d, eps, delta)).total_nnz <= bound


def test_inversion_weight_exact_linear_in_l():
    # at delta = 1/2 and eps = 2^(2 - 3 * 2^(l-2)), log2(1/(delta*eps)) + 1
    # = 3 * 2^(l-2) lies in (2^(l-1), 2^l], so the length rule selects l
    cases = [(1, 0.5, 0.9)] + [(l, 2.0 ** (2 - 3 * 2 ** (l - 2)), 0.5) for l in range(2, 10)]
    for l, eps, delta in cases:
        assert neumann_length(eps, delta).l == l
        for d in range(1, 7):
            if l == 1:
                want = 32 * d**2 - 2 * d
            else:
                want = (96 * l - 120) * d**3 + (12 * l + 20) * d**2 + (40 - 24 * l) * d
            rep = complexity(inversion_network(d, eps, delta))
            assert rep.total_nnz == want == _inversion_nnz_exact(d, l)
            assert rep.depth == 2 * l + 1


def _unit(l):
    return (1.0,) * l


@pytest.mark.parametrize("n", [1, 2, 3])
def test_neumann_chain_matches_the_partial_sum(n):
    """At all c_k = 1 the chain computes X P(A), P the partial sum by direct
    accumulation, for an n x d X: n = d reuses the squaring's product as
    the carry."""
    d, local = 3, np.random.default_rng(4102)
    X = local.standard_normal((n, d))
    for l in (1, 2, 4):
        net = matrixnets._neumann_chain(d, _unit(l), X)
        assert net.depth == (1 if l == 1 else 2 * l)
        A = local.standard_normal((d, d))
        A *= 0.7 / np.linalg.norm(A, 2)
        want = X @ neumann_partial_sum_oracle(A, l)
        np.testing.assert_allclose(matr(realize(net, vec(A)), n, d), want, rtol=1e-12, atol=1e-13)


def _doubling(X, A, c):
    """W_l of the doubling W <- c W (Q + I), Q <- c Q^2 - (c - 1) I from
    (X, A), by plain numpy products."""
    W, Q, eye = X, A, np.eye(A.shape[0])
    for ck in c:
        W, Q = ck * (W @ (Q + eye)), ck * (Q @ Q) - (ck - 1.0) * eye
    return W


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chebyshev_chain_matches_the_doubling_recursion(n):
    """With stage scalars the chain computes the doubling recursion, and for
    a symmetric A and the plan's scalars that is X (I - Q_l)(I - A)^{-1},
    within bound/delta of X (I - A)^{-1}."""
    d, local = 3, np.random.default_rng(4104)
    X = local.standard_normal((n, d))
    A = local.standard_normal((d, d))
    A = (A + A.T) * (0.8 / np.linalg.norm(A + A.T, 2))
    for c in [(1.5, 1.25), (1.9, 1.0, 1.3), tuple(local.uniform(1.0, 2.0, 4))]:
        net = matrixnets._neumann_chain(d, c, X)
        assert net.depth == 2 * len(c)
        got = matr(realize(net, vec(A)), n, d)
        np.testing.assert_allclose(got, _doubling(X, A, c), rtol=1e-12, atol=1e-13)
    plan = _chebyshev_plan(1e-6, 0.2)
    got = matr(realize(matrixnets._neumann_chain(d, plan.c, X), vec(A)), n, d)
    exact = X @ np.linalg.inv(np.eye(d) - A)
    assert np.linalg.norm(got - exact, 2) <= plan.bound / 0.2 * np.linalg.norm(X, 2) * (1 + 1e-9)


def test_neumann_chain_nnz_exact():
    """For a dense 1 x d X: (48l - 72)d^3 + (52l - 60)d^2 + (54 - 16l)d
    nonzeros for l >= 2 and d^2 + d at l = 1, against the inversion's
    (96l - 120)d^3 leading term.  An entry X_j = 1 zeroes the bias X_j - 1
    of its gadget unit, so X = (1, ..., d) counts 2 fewer for l >= 2.
    Stage scalars outside {1, 2} add the biases (1 - c)(Q + I) of the
    squaring's inputs, 8d^2 - 6d in each of the l - 2 middle joins:
    (48l - 72)d^3 + (60l - 76)d^2 + (66 - 22l)d."""
    local = np.random.default_rng(4103)
    for d in range(1, 7):
        X = local.uniform(2.0, 3.0, (1, d))
        ramp = np.arange(1.0, d + 1)[None]
        for l in range(1, 6):
            want = d * d + d if l == 1 else (48 * l - 72) * d**3 + (52 * l - 60) * d**2 + (54 - 16 * l) * d
            assert complexity(matrixnets._neumann_chain(d, _unit(l), X)).total_nnz == want
            fewer = 0 if l == 1 else 2
            assert complexity(matrixnets._neumann_chain(d, _unit(l), ramp)).total_nnz == want - fewer
            if l >= 2:
                c = tuple(local.uniform(1.01, 1.99, l))
                want = (48 * l - 72) * d**3 + (60 * l - 76) * d**2 + (66 - 22 * l) * d
                assert complexity(matrixnets._neumann_chain(d, c, X)).total_nnz == want


def test_one_stage_chain_takes_no_scalar():
    with pytest.raises(InvalidArgument):
        matrixnets._neumann_chain(2, (1.5,), np.ones((1, 2)))


# ------------------------------------------------------------ _chebyshev_plan


def _chebyshev_value(c, x):
    """q_l of q_0 = x, q_{k+1} = c_k q_k^2 - (c_k - 1) for floats c_k and x,
    exactly: (N, D) with q_l = N/D, D a power of two (Fraction would spend
    its time in gcds of the ever longer numbers)."""
    num, den = x.as_integer_ratio()
    for ck in c:
        cn, cd = ck.as_integer_ratio()
        num, den = cn * num * num - (cn - cd) * den * den, cd * den * den
    return num, den


def _below(value, bound):
    """|N/D| <= bound, exactly."""
    (num, den), (bn, bd) = value, Fraction(bound).as_integer_ratio()
    return abs(num) * bd <= bn * den


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.floats(1e-4, 0.9),
    st.floats(1e-12, 0.5),
    st.integers(1, 6),
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4),
)
def test_chebyshev_bound_covers_every_symmetric_contraction(delta, eps, d, interior):
    """For symmetric R with spectrum in [-rho_0, rho_0], rho_0 = 1 - delta,
    the endpoints included: every eigenvalue of Q_l is q_l(eigenvalue of R),
    and in exact arithmetic |q_l| <= r_l there; the numpy Q_l meets the
    bound up to its own rounding.  The plan's l is never above the Neumann
    length, and r_l/delta <= eps."""
    plan = _chebyshev_plan(eps, delta)
    assert plan.l == len(plan.c) and plan.l <= neumann_length(eps, delta).l
    assert Fraction(plan.bound) <= Fraction(eps) * Fraction(delta)
    rho = 1.0 - delta  # exact here, or rounded to nearest
    spectrum = [rho, -rho] + [rho * t for t in interior]
    for x in spectrum:
        assert _below(_chebyshev_value(plan.c, x), plan.bound)
    # a symmetric R with this spectrum, padded to d eigenvalues
    lam = np.array((spectrum * d)[: max(d, 2)])
    U, _ = np.linalg.qr(np.random.default_rng(len(spectrum)).standard_normal((len(lam),) * 2))
    R = (U * lam) @ U.T
    R = (R + R.T) / 2
    Q, eye = R, np.eye(len(lam))
    for ck in plan.c:
        Q = ck * (Q @ Q) - (ck - 1.0) * eye
    assert np.linalg.norm(Q, 2) <= plan.bound + 1e-13


def test_chebyshev_plan_is_no_longer_than_neumann_on_a_grid():
    for eps in (0.5, 1e-1, 1e-3, 1e-6, 1e-10):
        for delta in (0.9, 0.5, 0.2, 1e-2, 1e-4):
            plan, l = _chebyshev_plan(eps, delta), neumann_length(eps, delta).l
            assert plan.l <= l
            assert Fraction(plan.bound) <= Fraction(eps) * Fraction(delta)
            if plan.l >= 3:  # the shorter chain misses at the endpoint 1 - delta
                shorter = _chebyshev_value(plan.c[: plan.l - 1], 1.0 - delta)
                assert not _below(shorter, Fraction(eps) * Fraction(delta))
    # the README pde size needs r_l <= 2.1e-5 at delta = 1/6: r_4 = 9.5e-5
    # misses, r_5 = 4.5e-9 meets it, where the Neumann tail needs l = 6
    plan = _chebyshev_plan(2.1e-5 * 6, 1 / 6)
    assert (plan.l, neumann_length(2.1e-5 * 6, 1 / 6).l) == (5, 6)
    r4 = _chebyshev_value(plan.c[:4], 5 / 6)
    assert 9e-5 < r4[0] / r4[1] < 1e-4 and 4e-9 < plan.bound < 5e-9


def test_chebyshev_plan_scalars_and_bounds():
    """c_k lies in [1, 2], so 2 - c_k and 1 - c_k are exact; the bound
    covers the exact recursion r_{k+1} = max(c_k - 1, c_k r_k^2 - (c_k - 1))
    from r_0 = 1 - delta with the stored c_k, and is that value rounded up
    at each step; at l = 1 the plan stores c_0 = 1 and r_1 = r_0^2."""
    for eps, delta in [(1e-6, 0.2), (1e-3, 1 / 6), (1e-9, 0.01)]:
        plan = _chebyshev_plan(eps, delta)
        r = 1 - Fraction(delta)
        for ck in plan.c:
            assert 1.0 <= ck <= 2.0
            assert Fraction(2.0 - ck) == 2 - Fraction(ck) and Fraction(1.0 - ck) == 1 - Fraction(ck)
            r = max(Fraction(ck) - 1, Fraction(ck) * r * r - (Fraction(ck) - 1))
        assert r <= Fraction(plan.bound) <= r * (1 + Fraction(1, 10**12))
    one = _chebyshev_plan(0.5, 0.9)
    assert (one.l, one.c) == (1, (1.0,))
    assert Fraction(one.bound) >= (1 - Fraction(0.9)) ** 2


def test_chebyshev_plan_rejects_a_bound_that_stalls():
    # eps * delta lies below the least subnormal, where r_l, rounded up, stops
    with pytest.raises(InvalidArgument, match="epsilon"):
        _chebyshev_plan(1e-323, 0.3)
    assert _chebyshev_plan(2e-323, 0.3).l == 10


def test_chebyshev_identity_in_exact_arithmetic():
    """At d = 2, in rationals: I - Q_l = (I - R) prod_k c_k (I + Q_k) with
    the stored c_k, and the network's weights, evaluated exactly, give
    X prod_k c_k (Q_k + I)."""
    plan = _chebyshev_plan(1e-4, 0.3)
    c = [Fraction(ck) for ck in plan.c]
    R = [[Fraction(1, 2), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(-3, 10)]]

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    def lin(a, A, b):  # a A + b I
        return [[a * A[i][j] + (b if i == j else 0) for j in range(2)] for i in range(2)]

    Q, prod = R, lin(0, R, 1)
    for ck in c:
        prod = mul(prod, lin(ck, Q, ck))
        Q = lin(ck, mul(Q, Q), 1 - ck)
    assert lin(-1, Q, 1) == mul(lin(-1, R, 1), prod)
    # the network at X = (1/2, 3/4) in exact arithmetic
    X = [Fraction(1, 2), Fraction(3, 4)]
    net = matrixnets._neumann_chain(2, plan.c, np.array([[0.5, 0.75]]))
    z = [R[i][j] for j in range(2) for i in range(2)]
    for k, (A, b) in enumerate(net.layers):
        A = A.tocsr()
        z = [
            Fraction(b[i]) + sum(Fraction(v) * z[j] for v, j in zip(A.data[A.indptr[i] : A.indptr[i + 1]], A.indices[A.indptr[i] : A.indptr[i + 1]]))
            for i in range(A.shape[0])
        ]
        if k < net.depth - 1:
            z = [max(v, 0) ** 2 for v in z]
    want = [sum(X[k] * prod[k][j] for k in range(2)) for j in range(2)]
    assert z == want


def test_inversion_rejects_bad_dim():
    with pytest.raises(InvalidArgument):
        inversion_network(0, 1e-2, 0.5)


# -------------------------------------------------------------- spectral_norm


def test_spectral_norm_identity_and_diagonal():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-12)
    assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_matches_svd():
    for shape in [(5, 5), (5, 7), (7, 3)]:
        A = rng.standard_normal(shape)
        want = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: identity_network(2.5, 2),
        lambda: identity_network(2, 2.0),
        lambda: identity_network(True, 2),
        lambda: mult_network(1.5, 1, 1),
        lambda: mult_network(1, 1, False),
        lambda: square_network(2.5),
        lambda: power_network(2, 1.5),
        lambda: inversion_network(2.5, 1e-3, 0.2),
        lambda: inversion_network(True, 1e-3, 0.2),
        lambda: extend(affine_network(np.eye(2)), 2.5),
        lambda: neumann_partial_sum_oracle(np.eye(2), 1.5),
    ],
)
def test_sizes_must_be_integers(build):
    with pytest.raises(InvalidArgument):
        build()


def test_sizes_accept_numpy_integers():
    two = np.int64(2)
    assert identity_network(two, np.int32(3)).depth == 3
    assert mult_network(two, np.int64(1), two).output_dim == 4
    assert power_network(two, np.uint8(1)).depth == 2
    assert inversion_network(two, 0.5, 0.5).depth == 5
    assert extend(affine_network(np.eye(2)), np.int64(4)).depth == 4
    assert neumann_partial_sum_oracle(np.eye(2), two).tolist() == (4 * np.eye(2)).tolist()


def test_spectral_norm_rejects_vector():
    with pytest.raises(DimensionMismatch):
        spectral_norm(np.arange(4.0))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_spectral_norm_rejects_empty_matrix(shape):
    with pytest.raises(DimensionMismatch):
        spectral_norm(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_spectral_norm_rejects_non_finite_entries_at_once(bad):
    # 1e200 is finite but overflows in A^T A; at max_iter 1e9 only an early raise returns
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(NonFiniteEntry):
        spectral_norm(A, max_iter=10**9)


def test_spectral_norm_reports_nonconvergence():
    with pytest.raises(ConvergenceFailure):
        spectral_norm(rng.standard_normal((6, 6)), tol=1e-12, max_iter=2)


# ---------------------------------------------------------------------------
# the shared chain against the stage-by-stage sparse_concat loop
# ---------------------------------------------------------------------------


def _power_reference(d, j):
    net = square_network(d)
    for _ in range(j - 1):
        net = sparse_concat(square_network(d), net)
    return net


def _inversion_reference(d, eps, delta):
    """The inversion construction with one sparse_concat per stage."""
    l = neumann_length(eps, delta).l
    dd = d * d
    eye = sp.eye(dd, format="csr")
    shift = affine_network(eye, vec(np.eye(d)))
    if l == 1:
        return extend(shift, 3)

    def split(keep_q):
        rows = [sp.eye(2 * dd, format="csr")] + [sp.eye(dd, 2 * dd, k=dd, format="csr")] * keep_q
        b = np.zeros(len(rows) * dd + dd)
        b[dd : 2 * dd] = vec(np.eye(d))
        return affine_network(sp.vstack(rows, format="csr"), b)

    duplicate = affine_network(sp.vstack([eye, eye], format="csr"))
    net = concat(parallelize([shift, square_network(d)]), duplicate)
    for _ in range(l - 2):
        stage = concat(parallelize([mult_network(d, d, d), square_network(d)]), split(True))
        net = sparse_concat(stage, net)
    net = sparse_concat(concat(mult_network(d, d, d), split(False)), net)
    return extend(net, 2 * l + 1)


def _assert_same_layers(net, ref):
    assert net.depth == ref.depth
    for (A, b), (R, c) in zip(net.layers, ref.layers):
        assert A.shape == R.shape
        for x, y in ((A.data, R.data), (A.indices, R.indices), (A.indptr, R.indptr), (b, c)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eps,delta", [(0.5, 0.9), (1e-3, 0.5), (1e-3, 0.2), (1e-6, 0.2)])
def test_inversion_equals_stage_by_stage_reference(d, eps, delta):
    _assert_same_layers(inversion_network(d, eps, delta), _inversion_reference(d, eps, delta))


@pytest.mark.parametrize("d,j", [(1, 1), (2, 2), (2, 4), (3, 3)])
def test_power_equals_stage_by_stage_reference(d, j):
    _assert_same_layers(power_network(d, j), _power_reference(d, j))


def test_inversion_repeats_join_layers_as_one_object():
    net = inversion_network(3, 1e-6, 0.2)  # l = 7: five middle stages
    assert net.depth == 15
    assert all(net._layers[k] is net._layers[3] for k in (5, 7, 9, 11))
    assert all(net._layers[k] is net._layers[2] for k in (4, 6, 8, 10))
    # first layer and join, the repeated pair, last join, last stage and pad
    assert len({id(layer) for layer in net._layers}) == 7


def test_power_repeats_join_layers_as_one_object():
    net = power_network(2, 4)
    assert net._layers[3] is net._layers[5] and net._layers[2] is net._layers[4] is net._layers[6]


# ---------------------------------------------------------------------------
# each part and each join layer is built once per call
# ---------------------------------------------------------------------------


def _chain_calls(monkeypatch, build, *args):
    """The stages build(*args) joins with _sparse_chain, and the extend and
    concat calls that joining them again, at the same junctions, makes, as
    (name, id of the stage)."""
    chains = []
    chain = calculus._sparse_chain

    def spy(stages, junctions=None):
        chains.append((stages, junctions))
        return chain(stages, junctions)

    monkeypatch.setattr(matrixnets, "_sparse_chain", spy)
    build(*args)
    ((stages, junctions),) = chains
    calls = []
    for name in ("extend", "concat"):
        real = getattr(calculus, name)
        spy = lambda phi, other, real=real, name=name: calls.append((name, id(phi))) or real(phi, other)
        monkeypatch.setattr(calculus, name, spy)
    chain(stages, junctions)
    return stages, calls


def _assert_joined_once(stages, calls):
    """One extension per distinct inner stage, one fused join per distinct outer."""
    for name, joined in (("extend", stages[:-1]), ("concat", stages[1:])):
        assert sorted(i for n, i in calls if n == name) == sorted({id(s) for s in joined})


def test_matrixnets_reads_no_stored_layers():
    """The chains are laid out by the calculus alone: matrixnets passes the
    junction scalars to _sparse_chain and never edits a stored layer."""
    tree = ast.parse(open(matrixnets.__file__, encoding="utf-8").read())
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_layers"]
    assert reads == []


def _parts_built(monkeypatch):
    """The names of the product and duplicator networks built from now on."""
    built = []
    for name in ("mult_network", "_duplicator"):
        real = getattr(matrixnets, name)
        monkeypatch.setattr(matrixnets, name, lambda *a, real=real, name=name: built.append(name) or real(*a))
    return built


@pytest.mark.parametrize("eps,delta,l", [(1e-2, 0.9, 2), (0.1, 0.5, 3), (1e-6, 0.2, 7)])
def test_inversion_builds_each_part_once(monkeypatch, eps, delta, l):
    assert neumann_length(eps, delta).l == l
    built = _parts_built(monkeypatch)
    stages, calls = _chain_calls(monkeypatch, inversion_network, 3, eps, delta)
    assert sorted(built) == ["_duplicator", "mult_network"]
    assert len(stages) == l and len({id(s) for s in stages}) == min(l, 3)
    _assert_joined_once(stages, calls)


@pytest.mark.parametrize("n", [1, 3])
def test_chebyshev_chain_builds_each_part_once(monkeypatch, n):
    """Scaled junctions extend and fuse no more than unit ones: the Chebyshev
    chain repeats one middle stage, and the row carry (n = 1) is the one
    extra product network."""
    c = _chebyshev_plan(1e-6, 0.2).c
    assert len(set(c)) == len(c) == 5
    built = _parts_built(monkeypatch)
    X = np.random.default_rng(4108).standard_normal((n, 3))
    stages, calls = _chain_calls(monkeypatch, matrixnets._neumann_chain, 3, c, X)
    assert sorted(built) == ["_duplicator"] + ["mult_network"] * (1 + (n != 3))
    assert len(stages) == 5 and len({id(s) for s in stages}) == 3
    _assert_joined_once(stages, calls)


@pytest.mark.parametrize("j", [1, 2, 4])
def test_power_joins_its_stage_once(monkeypatch, j):
    stages, calls = _chain_calls(monkeypatch, power_network, 2, j)
    assert len(stages) == j and len({id(s) for s in stages}) == 1
    _assert_joined_once(stages, calls)
