"""Command-line front end: verification suites, network builders, scaling
tables, and the parametric-diffusion demo.

All output is machine-readable JSON or CSV.  Every command is
deterministic: randomized suites derive their draws from the --seed flag,
and commands without a seed flag use a fixed internal seed, so repeated
runs produce byte-identical files.

Exit codes: 0 success, 1 verification/accuracy failure, 2 argument
error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .calculus import (
    affine_network,
    concat,
    extend,
    identity_network,
    parallelize,
    sparse_concat,
)
from .errors import InvalidArgument
from .matrixnets import (
    _inversion_nnz_bound,
    _inversion_nnz_exact,
    inversion_network,
    matr,
    mult_network,
    neumann_length,
    neumann_partial_sum_oracle,
    power_network,
    scalar_product_network,
    spectral_norm,
    square_network,
    vec,
)
from .network import complexity, make_network, realize, save_network
from .pde import (
    assemble_affine_system,
    build_reduced_basis,
    series_plan,
    solution_errors,
    solution_network,
    write_error_csv,
)

__all__ = ["main"]

_INVERT_SEED = 414243
_WIDTH_HI, _WEIGHT_HI = 5, 0.5  # width and weight caps of random test networks


def _check(name, measured, bound):
    return {
        "name": name,
        "pass": bool(measured <= bound),
        "measured": float(measured),
        "bound": float(bound),
    }


def _rel_err(got, want):
    """Max deviation relative to the larger of 1 and the target magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return float(np.max(np.abs(got - want)) / scale)


def _random_net(rng, in_dim=None, depth=None):
    in_dim = in_dim or int(rng.integers(1, _WIDTH_HI + 1))
    depth = depth or int(rng.integers(1, 4))
    dims = [in_dim] + [int(rng.integers(1, _WIDTH_HI + 1)) for _ in range(depth)]
    layers = []
    for k in range(depth):
        A = rng.uniform(-_WEIGHT_HI, _WEIGHT_HI, (dims[k + 1], dims[k]))
        b = rng.uniform(-_WEIGHT_HI, _WEIGHT_HI, dims[k + 1])
        layers.append((A, b))
    return make_network(layers)


def _contraction_sample(rng, d, delta):
    A = rng.standard_normal((d, d))
    return A * ((1.0 - delta) / np.linalg.norm(A, 2))


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------


def run_calculus_suite(seed, instances=200):
    """Randomized checks of the structural operations and their exact
    depth/weight formulas."""
    rng = np.random.default_rng([seed, 1])
    checks = []

    worst = 0.0
    count_dev = 0
    for _ in range(instances):
        n = int(rng.integers(1, 11))
        L = int(rng.integers(1, 9))
        net = identity_network(n, L)
        x = rng.uniform(-100.0, 100.0, n)
        worst = max(worst, _rel_err(realize(net, x), x))
        expect = n if L == 1 else 20 * n * L - 28 * n
        count_dev = max(count_dev, abs(complexity(net).total_nnz - expect))
    checks.append(_check("identity-exactness", worst, 1e-10))
    checks.append(_check("identity-weight-count", count_dev, 0))

    worst = 0.0
    depth_dev = 0
    for _ in range(instances):
        phi2 = _random_net(rng)
        phi1 = _random_net(rng, in_dim=phi2.output_dim)
        net = concat(phi1, phi2)
        x = rng.uniform(-1.0, 1.0, phi2.input_dim)
        worst = max(worst, _rel_err(realize(net, x), realize(phi1, realize(phi2, x))))
        depth_dev = max(depth_dev, abs(net.depth - (phi1.depth + phi2.depth - 1)))
    checks.append(_check("concat-exactness", worst, 1e-10))
    checks.append(_check("concat-depth", depth_dev, 0))

    worst = 0.0
    depth_dev = 0
    excess = -np.inf
    for _ in range(instances):
        phi2 = _random_net(rng)
        phi1 = _random_net(rng, in_dim=phi2.output_dim)
        net = sparse_concat(phi1, phi2)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, phi2.input_dim)
            worst = max(
                worst, _rel_err(realize(net, x), realize(phi1, realize(phi2, x)))
            )
        depth_dev = max(depth_dev, abs(net.depth - (phi1.depth + phi2.depth)))
        c1, c2 = complexity(phi1), complexity(phi2)
        bound = (
            c1.total_nnz
            + c2.total_nnz
            + 4 * c1.layer_nnz[0]
            + 4 * c2.layer_nnz[-1]
            + 4 * phi2.output_dim
        )
        excess = max(excess, complexity(net).total_nnz - bound)
    checks.append(_check("sparse-concat-exactness", worst, 1e-10))
    checks.append(_check("sparse-concat-depth", depth_dev, 0))
    checks.append(_check("sparse-concat-weight-bound", excess, 0))

    worst = 0.0
    depth_dev = 0
    for _ in range(instances):
        phi = _random_net(rng)
        L = phi.depth + int(rng.integers(0, 5))
        net = extend(phi, L)
        x = rng.uniform(-1.0, 1.0, phi.input_dim)
        worst = max(worst, _rel_err(realize(net, x), realize(phi, x)))
        depth_dev = max(depth_dev, abs(net.depth - L))
    checks.append(_check("extend-exactness", worst, 1e-10))
    checks.append(_check("extend-depth", depth_dev, 0))

    worst = 0.0
    depth_dev = 0
    nnz_dev = 0
    for _ in range(instances):
        k = int(rng.integers(2, 5))
        phis = [_random_net(rng) for _ in range(k)]
        net = parallelize(phis)
        xs = [rng.uniform(-1.0, 1.0, phi.input_dim) for phi in phis]
        ref = np.concatenate([realize(phi, x) for phi, x in zip(phis, xs)])
        worst = max(worst, _rel_err(realize(net, np.concatenate(xs)), ref))
        depth_dev = max(depth_dev, abs(net.depth - max(phi.depth for phi in phis)))
        same_depth = int(rng.integers(1, 4))
        equal = [_random_net(rng, depth=same_depth) for _ in range(2)]
        total = complexity(parallelize(equal)).total_nnz
        nnz_dev = max(
            nnz_dev, abs(total - sum(complexity(phi).total_nnz for phi in equal))
        )
    checks.append(_check("parallelize-exactness", worst, 1e-10))
    checks.append(_check("parallelize-depth", depth_dev, 0))
    checks.append(_check("parallelize-equal-depth-additivity", nnz_dev, 0))

    excess = -np.inf
    for _ in range(instances):
        phi = _random_net(rng)
        m = int(rng.integers(1, 5))
        D = np.zeros((phi.input_dim, m))
        for row in range(phi.input_dim):
            if rng.random() < 0.8:
                D[row, rng.integers(0, m)] = rng.uniform(-2.0, 2.0)
        net = concat(phi, affine_network(D, np.zeros(phi.input_dim)))
        before = complexity(phi).layer_nnz
        after = complexity(net).layer_nnz
        excess = max(excess, max(a - b for a, b in zip(after, before)))
    checks.append(_check("selection-weight-bound", excess, 0))

    return checks


def run_matrix_suite(seed, instances=200):
    """Randomized checks of the product / power constructions against
    dense linear-algebra oracles."""
    rng = np.random.default_rng([seed, 2])
    checks = []

    spn = scalar_product_network()
    worst = 0.0
    for _ in range(instances):
        x, y = rng.uniform(-100.0, 100.0, 2)
        worst = max(worst, _rel_err(realize(spn, [x, y]), [x * y]))
    checks.append(_check("scalar-product-exactness", worst, 1e-10))

    worst = 0.0
    first_dev = 0
    last_dev = 0
    excess = -np.inf
    for _ in range(instances):
        d, n, l = (int(v) for v in rng.integers(1, 9, 3))
        A = rng.uniform(-1.0, 1.0, (d, n))
        B = rng.uniform(-1.0, 1.0, (n, l))
        net = mult_network(d, n, l)
        got = matr(realize(net, np.concatenate([vec(A), vec(B)])), d, l)
        worst = max(worst, _rel_err(got, A @ B))
        rep = complexity(net)
        first_dev = max(first_dev, abs(rep.layer_nnz[0] - 8 * d * n * l))
        last_dev = max(last_dev, abs(rep.layer_nnz[-1] - 4 * d * n * l))
        excess = max(excess, rep.total_nnz - 12 * d * n * l)
    checks.append(_check("mult-exactness", worst, 1e-10))
    checks.append(_check("mult-first-layer-count", first_dev, 0))
    checks.append(_check("mult-last-layer-count", last_dev, 0))
    checks.append(_check("mult-weight-bound", excess, 0))

    worst = 0.0
    excess = -np.inf
    for _ in range(instances):
        d = int(rng.integers(1, 7))
        A = rng.uniform(-1.0, 1.0, (d, d))
        net = square_network(d)
        worst = max(worst, _rel_err(matr(realize(net, vec(A)), d, d), A @ A))
        excess = max(excess, complexity(net).total_nnz - 12 * d**3)
    checks.append(_check("square-exactness", worst, 1e-10))
    checks.append(_check("square-weight-bound", excess, 0))

    worst = 0.0
    depth_dev = 0
    excess = -np.inf
    for _ in range(instances):
        d = int(rng.integers(1, 7))
        j = int(rng.integers(1, 6))
        A = rng.uniform(-0.3, 0.3, (d, d))
        net = power_network(d, j)
        oracle = A.copy()
        for _ in range(j):
            oracle = oracle @ oracle
        worst = max(worst, _rel_err(matr(realize(net, vec(A)), d, d), oracle))
        depth_dev = max(depth_dev, abs(net.depth - 2 * j))
        excess = max(excess, complexity(net).total_nnz - 64 * j * d**3)
    checks.append(_check("power-exactness", worst, 1e-8))
    checks.append(_check("power-depth", depth_dev, 0))
    checks.append(_check("power-weight-bound", excess, 0))

    return checks


def run_inversion_suite(seed, dim=8, eps=1e-3, delta=0.2, samples=20, grid=20):
    """Neumann-plan and inversion-network checks against dense oracles."""
    rng = np.random.default_rng([seed, 3])
    checks = []

    tail_excess = -np.inf
    for e in np.logspace(-6.0, -0.31, grid):
        for dl in np.linspace(0.025, 0.95, grid):
            l = neumann_length(e, dl).l
            tail_excess = max(tail_excess, (1.0 - dl) ** (2**l) / dl - e)
    checks.append(_check("neumann-tail-bound", tail_excess, 0))

    plan = neumann_length(eps, delta)
    net = inversion_network(dim, eps, delta)
    rep = complexity(net)
    agree = 0.0
    spec_err = 0.0
    for _ in range(samples):
        A = _contraction_sample(rng, dim, delta)
        got = matr(realize(net, vec(A)), dim, dim)
        agree = max(agree, _rel_err(got, neumann_partial_sum_oracle(A, plan.l)))
        spec_err = max(
            spec_err, np.linalg.norm(np.linalg.inv(np.eye(dim) - A) - got, 2)
        )
    checks.append(_check("partial-sum-agreement", agree, 1e-10))
    checks.append(_check("inversion-spectral-error", spec_err, eps))
    checks.append(_check("inversion-depth", abs(net.depth - (2 * plan.l + 1)), 0))
    bound = _inversion_nnz_bound(dim, plan.l)
    checks.append(_check("inversion-weight-bound", rep.total_nnz - bound, 0))
    exact_dev = abs(rep.total_nnz - _inversion_nnz_exact(dim, plan.l))
    checks.append(_check("inversion-weight-exact", exact_dev, 0))

    worst = 0.0
    for _ in range(samples):
        A = rng.standard_normal((dim, dim))
        sv = np.linalg.svd(A, compute_uv=False)[0]
        worst = max(worst, abs(spectral_norm(A) - sv) / max(sv, 1.0))
    checks.append(_check("spectral-norm-oracle", worst, 1e-8))

    return checks


_SUITES = ("calculus", "matrix", "inversion", "all")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _plan(dims, eps, delta):
    """The Neumann plan at (eps, delta), once every d in dims is checked:
    a command rejects its arguments before it runs, draws or builds."""
    if min(dims) < 1:  # before a sample, which would divide by its zero norm
        raise InvalidArgument(f"need an integer d >= 1, got {min(dims)!r}")
    return neumann_length(eps, delta)


def _write_json(path, doc):
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args):
    scale = 10 if args.quick else 1
    if args.suite in ("inversion", "all"):
        _plan([args.dim], args.eps, args.delta)
    checks = []
    if args.suite in ("calculus", "all"):
        checks += run_calculus_suite(args.seed, instances=200 // scale)
    if args.suite in ("matrix", "all"):
        checks += run_matrix_suite(args.seed, instances=200 // scale)
    if args.suite in ("inversion", "all"):
        checks += run_inversion_suite(
            args.seed,
            dim=args.dim,
            eps=args.eps,
            delta=args.delta,
            samples=20 // scale,
            grid=20 // scale,
        )
    _write_json(args.out, {"suite": args.suite, "checks": checks})
    return 0 if all(c["pass"] for c in checks) else 1


def cmd_invert(args):
    plan = _plan([args.dim], args.eps, args.delta)
    if args.matrix is not None:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            A = np.asarray(json.load(fh))
        if A.dtype.kind not in "biuf" or A.shape != (args.dim,) * 2 or not np.isfinite(A).all():
            raise InvalidArgument(  # text or null entries fail the dtype rule of pde._real
                f"matrix file must be {args.dim} x {args.dim} finite real numbers, "
                f"got shape {A.shape}, dtype {A.dtype}"
            )
    else:
        A = _contraction_sample(
            np.random.default_rng(_INVERT_SEED), args.dim, args.delta
        )
    net = inversion_network(args.dim, args.eps, args.delta)
    rep = complexity(net)
    got = matr(realize(net, vec(A)), args.dim, args.dim)
    target = np.linalg.inv(np.eye(args.dim) - A)
    measured = float(np.linalg.norm(target - got, 2))
    bound = _inversion_nnz_bound(args.dim, plan.l)
    if args.save is not None:
        save_network(args.save, net)
    _write_json(
        args.out,
        {
            "d": args.dim,
            "eps": args.eps,
            "delta": args.delta,
            "l": plan.l,
            "depth": net.depth,
            "nnz": rep.total_nnz,
            "nnz_bound": int(bound),
            "measured_error": measured,
        },
    )
    return 0 if measured <= args.eps + 1e-9 else 1


def cmd_complexity(args):
    rows, nnz = [], {}  # the network depends on eps and delta only through l
    plans = [_plan(args.dims, eps, args.delta) for eps in args.eps]
    for d in args.dims:
        for eps, plan in zip(args.eps, plans):
            if (d, plan.l) not in nnz:
                nnz[d, plan.l] = complexity(inversion_network(d, eps, args.delta)).total_nnz
            bound = _inversion_nnz_bound(d, plan.l)
            rows.append([d, eps, plan.l, 2 * plan.l + 1, nnz[d, plan.l], int(bound)])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("d,eps,l,depth,nnz,bound\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return 0


def cmd_pde(args):
    if not 0.0 < args.eps < 1.0:
        raise InvalidArgument(f"eps must lie in (0, 1), got {args.eps}")
    if args.snapshots < 1 or args.test < 1:
        raise InvalidArgument("need at least one snapshot and one test parameter")
    system = assemble_affine_system(args.grid, args.chessboard, args.mu)
    rng = np.random.default_rng(args.seed)
    snaps = rng.random((args.snapshots, system.p))
    rb = build_reduced_basis(system, snaps, args.drop_tol)
    C_f = 1.01 * float(np.linalg.norm(rb.f_rb))
    rb_net, h_net = solution_network(rb, args.eps, C_f)

    test = rng.random((args.test, system.p))
    _, _, (err_euclid, err_g, err_rel) = solution_errors(rb, rb_net, h_net, test, system.G)

    csv_path = os.path.splitext(args.out)[0] + ".csv"
    write_error_csv(csv_path, test, err_euclid, err_g, err_rel)
    summary = {
        "D": system.D,
        "d": rb.d,
        "alpha": rb.alpha,
        "beta": rb.beta,
        "lambda": rb.lam,
        "delta": rb.delta,
        "eps": args.eps,
        "worst_euclid": float(err_euclid.max()),
        "worst_g": float(err_g.max()),
        "l": series_plan(rb, args.eps, C_f).l,
        "depth": h_net.depth,
        "nnz": complexity(h_net).total_nnz,
    }
    _write_json(args.out, summary)
    worst = max(summary["worst_euclid"], summary["worst_g"])
    return 0 if worst <= args.eps + 1e-9 else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _u64(text):
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in u64, got {text}")
    return value


def _number_list(cast, text):
    """Comma-separated list of cast(token), empty tokens skipped."""
    try:
        items = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        kind = "integer" if cast is int else "float"
        raise argparse.ArgumentTypeError(f"bad {kind} list {text!r}") from exc
    if not items:
        raise argparse.ArgumentTypeError("list must be non-empty")
    return items


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="requnet",
        description="Exact ReQU network constructions: verification and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--seed", required=True, type=_u64)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--quick", action="store_true", help="shrink suites ~10x")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invert", help="build a Neumann inversion network")
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--matrix", default=None, help="JSON file with a d x d matrix")
    p.add_argument("--save", default=None, help="write the network JSON here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("complexity", help="tabulate network sizes over a grid")
    p.add_argument("--dims", required=True, type=functools.partial(_number_list, int))
    p.add_argument("--eps", required=True, type=functools.partial(_number_list, float))
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("pde", help="end-to-end parametric-diffusion demo")
    p.add_argument("--grid", required=True, type=int)
    p.add_argument("--chessboard", required=True, type=int)
    p.add_argument("--mu", required=True, type=float)
    p.add_argument("--snapshots", required=True, type=int)
    p.add_argument("--drop-tol", required=True, type=float, dest="drop_tol")
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--test", required=True, type=int)
    p.add_argument("--seed", required=True, type=_u64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pde)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
