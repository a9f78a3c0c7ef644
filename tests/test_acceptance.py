"""End-to-end acceptance: exactness claims, error bounds, complexity
formulas, and runtime/determinism budgets across the whole package."""

import csv
import json
import time

import numpy as np
import pytest

from requnet import (
    b_network,
    assemble_affine_system,
    build_reduced_basis,
    complexity,
    identity_network,
    inversion_network,
    matr,
    mult_network,
    neumann_length,
    power_network,
    realize,
    realize_batch,
    vec,
)
from requnet.cli import main, run_calculus_suite


def test_identity_networks_exact_over_size_sweep():
    # every (n, L) with n <= 16, L <= 8: 50 inputs in [-100, 100], relative
    # error 1e-10, nonzeros exactly 20nL - 28n (L >= 2) resp. n (L = 1)
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for n in (1, 2, 3, 5, 16):
        for L in (1, 2, 3, 5, 8):
            net = identity_network(n, L)
            rep = complexity(net)
            assert rep.depth == L
            want_nnz = n if L == 1 else 20 * n * L - 28 * n
            assert rep.total_nnz == want_nnz
            X = rng.uniform(-100, 100, (n, 50))
            np.testing.assert_allclose(realize_batch(net, X), X, rtol=1e-10, atol=0)
    assert time.perf_counter() - start < 5.0


def test_matrix_product_networks_random_shapes():
    # 200 random shape triples with sides <= 8: relative error 1e-10 and the
    # exact per-layer counts 8dnl / 4dnl, total at most 12dnl
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        d, n, l = (int(v) for v in rng.integers(1, 9, 3))
        net = mult_network(d, n, l)
        rep = complexity(net)
        assert rep.layer_nnz[0] == 8 * d * n * l
        assert rep.layer_nnz[-1] == 4 * d * n * l
        assert rep.total_nnz <= 12 * d * n * l
        A = rng.uniform(-1, 1, (d, n))
        B = rng.uniform(-1, 1, (n, l))
        got = matr(realize(net, np.concatenate([vec(A), vec(B)])), d, l)
        np.testing.assert_allclose(got, A @ B, rtol=1e-10, atol=1e-12)
    assert time.perf_counter() - start < 10.0


def test_dyadic_power_networks_full_sweep():
    # all d <= 6, j <= 5 on entries in [-0.3, 0.3]: relative error 1e-8,
    # depth exactly 2j, nonzeros at most 64 j d^3
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    for d in range(1, 7):
        for j in range(1, 6):
            net = power_network(d, j)
            rep = complexity(net)
            assert rep.depth == 2 * j
            assert rep.total_nnz <= 64 * j * d**3
            A = rng.uniform(-0.3, 0.3, (d, d))
            want = np.linalg.matrix_power(A, 2**j)
            got = matr(realize(net, vec(A)), d, d)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-14)
    assert time.perf_counter() - start < 10.0


def test_inversion_networks_error_grid():
    # d in {4, 8, 16} x eps in {1e-2, 1e-3, 1e-4} x delta in {0.5, 0.2, 0.1},
    # 20 matrices per cell rescaled to ||A||_2 = 1 - delta: spectral error
    # at most eps for every sample, depth 2l + 1, and for l >= 2 the
    # quadratic-in-l weight polynomial
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    for d in (4, 8, 16):
        for eps in (1e-2, 1e-3, 1e-4):
            for delta in (0.5, 0.2, 0.1):
                l = neumann_length(eps, delta).l
                net = inversion_network(d, eps, delta)
                rep = complexity(net)
                assert rep.depth == 2 * l + 1
                if l >= 2:
                    bound = (32 * l**2 + 60 * l - 80) * d**3 + (
                        40 * l**2 - 44 * l - 112
                    ) * d**2
                    assert rep.total_nnz <= bound
                samples = []
                for _ in range(20):
                    A = rng.standard_normal((d, d))
                    samples.append(A * ((1 - delta) / np.linalg.norm(A, 2)))
                X = np.column_stack([vec(A) for A in samples])
                outs = realize_batch(net, X)
                for k, A in enumerate(samples):
                    target = np.linalg.inv(np.eye(d) - A)
                    err = np.linalg.norm(matr(outs[:, k], d, d) - target, 2)
                    assert err <= eps
    assert time.perf_counter() - start < 120.0


def test_neumann_tail_bound_grid_fast():
    start = time.perf_counter()
    for eps in np.logspace(-6, -0.31, 20):
        for delta in np.linspace(0.025, 0.95, 20):
            l = neumann_length(eps, delta).l
            assert (1 - delta) ** (2**l) / delta <= eps * (1 + 1e-12)
    assert time.perf_counter() - start < 1.0


def test_parametric_diffusion_end_to_end(tmp_path):
    # chessboard problem at grid 33, 3x3 subdomains, mu = 0.1: 200 snapshots
    # at drop tolerance 2e-2, accuracy 1e-3 on 100 fresh parameters, checked
    # in both the reduced Euclidean and lifted G-norm senses
    start = time.perf_counter()
    out = tmp_path / "pde.json"
    code = main(
        [
            "pde", "--grid", "33", "--chessboard", "3", "--mu", "0.1",
            "--snapshots", "200", "--drop-tol", "2e-2", "--eps", "1e-3",
            "--test", "100", "--seed", "20260815", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["D"] == 1089
    assert doc["d"] <= 66
    assert doc["alpha"] == 1.1
    assert doc["beta"] == 0.1
    assert doc["lambda"] == pytest.approx(2 / 1.2, rel=1e-12)
    assert doc["delta"] == pytest.approx(2 * 0.1 / 1.2, rel=1e-12)
    assert doc["worst_euclid"] <= 1e-3
    assert doc["worst_g"] <= 1e-3

    with open(tmp_path / "pde.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 102 and rows[-1][0] == "MAX"

    # rebuild the basis the same way the command does and check the exact
    # weight bound of the parameter-to-operator network
    system = assemble_affine_system(33, 3, 0.1)
    rng = np.random.default_rng(20260815)
    rb = build_reduced_basis(system, rng.random((200, 9)), 2e-2)
    assert rb.d == doc["d"]
    rep = complexity(b_network(rb))
    assert rep.depth == 1 and rep.total_nnz <= (rb.p + 1) * rb.d**2
    assert time.perf_counter() - start < 180.0


def test_calculus_property_suite_full():
    start = time.perf_counter()
    checks = run_calculus_suite(77, instances=200)
    assert len(checks) >= 10
    for check in checks:
        assert check["pass"], check
    assert time.perf_counter() - start < 30.0


def test_cli_outputs_are_reproducible(tmp_path):
    # identical invocations must produce byte-identical files
    outputs = {"first": [], "second": []}
    for tag, bucket in outputs.items():
        ver = tmp_path / f"ver_{tag}.json"
        inv = tmp_path / f"inv_{tag}.json"
        tab = tmp_path / f"tab_{tag}.csv"
        pde = tmp_path / f"pde_{tag}.json"
        assert main(
            ["verify", "--suite", "all", "--seed", "5", "--quick", "--out", str(ver)]
        ) == 0
        assert main(
            ["invert", "--dim", "4", "--eps", "1e-3", "--delta", "0.2",
             "--out", str(inv)]
        ) == 0
        assert main(
            ["complexity", "--dims", "2,4,8", "--eps", "1e-2,1e-3",
             "--delta", "0.5", "--out", str(tab)]
        ) == 0
        assert main(
            ["pde", "--grid", "9", "--chessboard", "2", "--mu", "0.1",
             "--snapshots", "6", "--drop-tol", "1e-8", "--eps", "1e-2",
             "--test", "5", "--seed", "42", "--out", str(pde)]
        ) == 0
        bucket.extend([ver, inv, tab, pde, pde.with_suffix(".csv")])
    for a, b in zip(outputs["first"], outputs["second"]):
        assert a.read_bytes() == b.read_bytes()
