"""The benchmark workloads: each replays a call sequence of the requnet CLI
through the public API, times it, and checks its outputs against oracles
that share no code with the networks: the package's direct Neumann
partial sum (``neumann_partial_sum_oracle``), and Galerkin solves and
dense forward passes written here.

A workload has three steps.  ``setup(seed)`` makes the inputs and warms
up BLAS.  ``run()`` is one timed pass; it returns a dict with the pass
times, the number of inputs evaluated, the per-layer profile of every
network it evaluated and a payload for ``check``.  ``check(result,
gates)`` counts one gate per checked output.

The seed only drives evaluation inputs (contractions, test parameters).
The snapshot set of the reduced basis is fixed, so a workload compiles
the same networks at every seed and its sizes are comparable across runs.
"""

from __future__ import annotations

import math
import os
from time import perf_counter as now

import numpy as np

import requnet as rq

SNAPSHOT_SEED = 20220314
CHUNK = 16  # the columns per realize_batch block used by the pde command
SAMPLES = 8  # seeded contractions evaluated per inversion network
REL_TOL = 1e-10  # relative, as in the CLI's exactness checks


class Gates:
    """Correctness gates: a failing gate is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def warm_blas(rng):
    """The first dense factorization in a process is slow; pay it here."""
    M = rng.standard_normal((256, 256))
    S = M @ M.T + 256.0 * np.eye(256)
    np.linalg.solve(np.linalg.cholesky(S), M)


def contraction(rng, d, delta):
    A = rng.standard_normal((d, d))
    return A * ((1.0 - delta) / np.linalg.norm(A, 2))


def contraction_batch(rng, d, delta):
    """SAMPLES contractions, flattened column-major, one per column."""
    return np.column_stack(
        [contraction(rng, d, delta).ravel(order="F") for _ in range(SAMPLES)]
    )


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def check_partial_sums(gates, key, l, X, Y):
    d = math.isqrt(X.shape[0])
    for j in range(X.shape[1]):
        A = X[:, j].reshape(d, d, order="F")
        got = Y[:, j].reshape(d, d, order="F")
        want = rq.neumann_partial_sum_oracle(A, l)
        gates.check(f"{key} sample {j}", rel_err(got, want) <= REL_TOL)


def layer_profile(net, rep, cols, chunk):
    """Per-layer width and exact nnz, with activation bytes and flops
    computed from them (not measured): the widest block realize_batch
    holds is width x min(cols, chunk) doubles, and a layer costs
    2 x nnz(A_k) x cols flops."""
    block = cols if chunk is None else min(cols, chunk)
    return {
        "input_dim": int(net.input_dim),
        "columns": int(cols),
        "chunk": chunk,
        "total_nnz": int(rep.total_nnz),
        "layers": [
            {
                "width": int(A.shape[0]),
                "nnz": int(m),
                "computed_activation_bytes": int(A.shape[0]) * block * 8,
                "computed_flops": 2 * int(A.nnz) * int(cols),
            }
            for (A, _), m in zip(net.layers, rep.layer_nnz)
        ],
    }


class InvertBuild:
    """Build sweep of inversion_network (the invert/complexity commands),
    each network evaluated on SAMPLES seeded contractions."""

    SWEEP = [(d, eps, 0.2) for d in (4, 8, 12) for eps in (1e-3, 1e-6)] + [(16, 1e-6, 0.05)]

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        warm_blas(rng)
        self.inputs = [contraction_batch(rng, d, delta) for d, _, delta in self.SWEEP]

    def run(self):
        t0 = now()
        build = ev = 0.0
        networks, payload = {}, []
        for (d, eps, delta), X in zip(self.SWEEP, self.inputs):
            key = f"d{d}-eps{eps:g}-delta{delta:g}"
            plan = rq.neumann_length(eps, delta)
            t = now()
            net = rq.inversion_network(d, eps, delta)
            build += now() - t
            rep = rq.complexity(net)
            t = now()
            Y = rq.realize_batch(net, X)
            ev += now() - t
            networks[key] = layer_profile(net, rep, X.shape[1], None)
            payload.append((key, plan.l, net.depth, X, Y))
        return {
            "total_s": now() - t0,
            "build_s": build,
            "eval_s": ev,
            "inputs": len(self.SWEEP) * SAMPLES,
            "networks": networks,
            "counts": {},
            "payload": payload,
        }

    def check(self, result, gates):
        for key, l, depth, X, Y in result["payload"]:
            gates.check(f"{key} depth 2l+1", depth == 2 * l + 1)
            check_partial_sums(gates, key, l, X, Y)


class Pde:
    """The pde command: assemble, reduced basis, solution networks,
    evaluation of rb_net and h_net, and the three evaluate_error modes."""

    def __init__(self, grid, chessboard, mu, snapshots, drop_tol, eps, tests):
        self.grid, self.chessboard, self.mu = grid, chessboard, mu
        self.snapshots, self.drop_tol, self.eps, self.tests = snapshots, drop_tol, eps, tests

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        warm_blas(rng)
        p = self.chessboard**2
        self.snaps = np.random.default_rng(SNAPSHOT_SEED).random((self.snapshots, p))
        self.test = rng.random((self.tests, p))

    def run(self):
        t0 = now()
        system = rq.assemble_affine_system(self.grid, self.chessboard, self.mu)
        rb = rq.build_reduced_basis(system, self.snaps, self.drop_tol)
        C_f = 1.01 * float(np.linalg.norm(rb.f_rb))
        t = now()
        rb_net, h_net = rq.solution_network(rb, self.eps, C_f)
        build = now() - t
        t = now()
        out_rb = rq.realize_batch(rb_net, self.test.T, chunk=CHUNK)
        out_h = rq.realize_batch(h_net, self.test.T, chunk=CHUNK)
        ev = now() - t
        G, eps = system.G, self.eps
        reports = (
            rq.evaluate_error(rb, rb_net, self.test, G, "euclidean-rb", target_eps=eps, outputs=out_rb),
            rq.evaluate_error(rb, h_net, self.test, G, "g-norm-h", target_eps=eps, outputs=out_h),
            rq.evaluate_error(rb, h_net, self.test, G, "relative-g", outputs=out_h),
        )
        reps = rq.complexity(rb_net), rq.complexity(h_net)
        total = now() - t0
        return {
            "total_s": total,
            "build_s": build,
            "eval_s": ev,
            "inputs": self.tests,
            "networks": {
                "rb_net": layer_profile(rb_net, reps[0], self.tests, CHUNK),
                "h_net": layer_profile(h_net, reps[1], self.tests, CHUNK),
            },
            "counts": {"pde.d": int(rb.d)},
            "worst_err": max(reports[0].worst_case, reports[1].worst_case),
            "payload": (system, rb.V, out_rb, out_h, reports),
        }

    def check(self, result, gates):
        """Against the Galerkin solve in span(V), projected here from the
        assembled operator; errors in the Euclidean and sparse G-norm."""
        system, V, out_rb, out_h, reports = result["payload"]
        G, eps = system.G, self.eps
        gram = V.T @ (G @ V)
        gates.check("basis G-orthonormal", float(np.max(np.abs(gram - np.eye(V.shape[1])))) <= 1e-8)
        parts = [V.T @ (B @ V) for B in (system.B0, *system.Bs)]
        f_red = V.T @ system.f
        for j, y in enumerate(self.test):
            u = np.linalg.solve(parts[0] + sum(yi * P for yi, P in zip(y, parts[1:])), f_red)
            gates.check(f"param {j} euclidean", float(np.linalg.norm(out_rb[:, j] - u)) <= eps)
            e = V @ u - out_h[:, j]
            gates.check(f"param {j} g-norm", math.sqrt(max(float(e @ (G @ e)), 0.0)) <= eps)
        gates.check("worst_euclid <= eps", reports[0].worst_case <= eps)
        gates.check("worst_g <= eps", reports[1].worst_case <= eps)


class Roundtrip:
    """Build small inversion networks and one seeded dense network, then
    save_network and load_network each and evaluate it in memory and after
    loading.  The inversion weights are dyadic, so the dense network is
    what shows a format that loses digits."""

    DIMS = (2, 3, 4)
    EPS, DELTA = 1e-3, 0.5
    DENSE_WIDTHS = (16, 128, 128, 16)

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        rng = np.random.default_rng([seed, 3])
        warm_blas(rng)
        self.l = rq.neumann_length(self.EPS, self.DELTA).l
        self.inputs = {f"d{d}": contraction_batch(rng, d, self.DELTA) for d in self.DIMS}
        widths = self.DENSE_WIDTHS
        self.dense = [
            (rng.uniform(-0.5, 0.5, (m, n)), rng.uniform(-0.5, 0.5, m))
            for n, m in zip(widths, widths[1:])
        ]
        self.inputs["dense"] = rng.uniform(-1.0, 1.0, (widths[0], SAMPLES))

    def run(self):
        paths = {name: self.workdir / f"roundtrip-{os.getpid()}-{name}.json" for name in self.inputs}
        try:
            t0 = now()
            nets = {f"d{d}": rq.inversion_network(d, self.EPS, self.DELTA) for d in self.DIMS}
            build = now() - t0
            nets["dense"] = rq.make_network(self.dense)
            ev = 0.0
            file_bytes = 0
            networks, payload = {}, []
            for name, net in nets.items():
                X, path = self.inputs[name], paths[name]
                rep = rq.complexity(net)
                rq.save_network(path, net)
                file_bytes += path.stat().st_size
                loaded = rq.load_network(path)
                rep_loaded = rq.complexity(loaded)
                t = now()
                Y = rq.realize_batch(net, X)
                Z = rq.realize_batch(loaded, X)
                ev += now() - t
                networks[name] = layer_profile(net, rep, X.shape[1], None)
                networks[f"{name}-loaded"] = layer_profile(loaded, rep_loaded, X.shape[1], None)
                payload.append((name, X, Y, Z, rep.layer_nnz, rep_loaded.layer_nnz))
            total = now() - t0
        finally:
            for path in paths.values():
                path.unlink(missing_ok=True)
        return {
            "total_s": total,
            "build_s": build,
            "eval_s": ev,
            "inputs": len(nets) * SAMPLES,
            "networks": networks,
            "counts": {"file_bytes": file_bytes},
            "payload": payload,
        }

    def check(self, result, gates):
        for name, X, Y, Z, nnz, loaded_nnz in result["payload"]:
            gates.check(f"{name} loaded output bit-identical", np.array_equal(Y, Z))
            gates.check(f"{name} loaded layer nnz", loaded_nnz == nnz)
            if name == "dense":
                want = dense_forward(self.dense, X)
                for j in range(X.shape[1]):
                    gates.check(f"dense sample {j}", rel_err(Y[:, j], want[:, j]) <= REL_TOL)
            else:
                check_partial_sums(gates, name, self.l, X, Y)


def dense_forward(layers, X):
    """Dense-matrix evaluation with sigma2 after every layer but the last."""
    for k, (A, b) in enumerate(layers):
        X = A @ X + b[:, None]
        if k < len(layers) - 1:
            X = np.square(np.maximum(X, 0.0))
    return X


def make(name, workdir):
    """The workload called ``name``; see BENCHMARK.json for why each exists."""
    if name == "invert_build":
        return InvertBuild()
    if name == "pde_map":
        return Pde(grid=33, chessboard=3, mu=0.1, snapshots=14, drop_tol=5e-2, eps=1e-3, tests=128)
    if name == "pde_fine":
        return Pde(grid=57, chessboard=2, mu=0.1, snapshots=20, drop_tol=5e-2, eps=1e-3, tests=64)
    if name == "network_roundtrip":
        return Roundtrip(workdir)
    raise KeyError(name)
