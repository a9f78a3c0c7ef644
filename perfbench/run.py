"""requnet benchmark: one workload per process, metrics on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  BENCHMARK.json at the root lists the workloads and metrics; this
script reports exactly the metrics listed there.

Set-up is repeated SETUP_REPS times and ``setup_s`` is the sum of two
medians: the time from spawning a fresh interpreter to the end of its
imports of numpy, scipy and requnet, and the in-process preparation
(seeded inputs, a BLAS warm-up).  Then timed passes repeat until
``--seconds`` is used up; each end-to-end metric is the median over
passes.  Every output of every pass goes through a correctness gate, and
the exact counts (nonzeros, widths, reduced dimension, call counts) must
repeat across passes and across runs at the same seed.

``--trace 1`` spends the first half of the time on untraced passes and
the second half on traced ones, reports the per-layer metrics of the
traced passes and the tracing overhead, and writes spans, per-layer
network profiles and the environment to ``perfbench/out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Diagnostics go to stderr.  Exit code 2 means
the benchmark could not run (no package under src/, unknown workload or
metric); it then prints no result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9
# One BLAS thread is at most nproc on any machine, and keeps the dense
# factorizations from competing with other processes on a small box.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ALIASES = {
    "pde.assemble_affine_system": "pde.assemble",
    "pde.build_reduced_basis": "pde.reduced_basis",
    "network.save_network": "network.save",
    "network.load_network": "network.load",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def import_seconds():
    """Wall time from spawning a fresh interpreter to the end of its imports
    of the package, read on the system-wide monotonic clock, so interpreter
    teardown is left out; the child inherits the pinned BLAS environment."""
    code = "import time, numpy, scipy, scipy.sparse, requnet; print(repr(time.monotonic()))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return float(proc.stdout) - t


def source_digest():
    """Hash of the package and benchmark sources: the exact counts recorded
    for one seed are only comparable under the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def pass_counts(result, captured=None, stats=None):
    """Counts that must be identical in every pass at one seed, flattened."""
    counts = {"net_nnz": sum(p["total_nnz"] for p in result["networks"].values())}
    for name, prof in result["networks"].items():
        counts[f"networks.{name}.widths"] = [layer["width"] for layer in prof["layers"]]
        counts[f"networks.{name}.layer_nnz"] = [layer["nnz"] for layer in prof["layers"]]
    counts["cols_evaluated"] = sum(p["columns"] for p in result["networks"].values())
    counts["computed_flops"] = sum(
        layer["computed_flops"] for p in result["networks"].values() for layer in p["layers"]
    )
    counts.update(result["counts"])
    if stats is not None:
        counts["neumann_l"] = captured.get("matrixnets.neumann_length", [])
        counts.update({f"calls.{name}": st["calls"] for name, st in sorted(stats.items())})
    return json.loads(json.dumps(counts))


def layer_metrics(result, counts, stats, spans):
    """Per-layer values of one traced pass, keyed by metric name."""
    values = {}
    for name, st in stats.items():
        base = ALIASES.get(name, name)
        values[f"{base}_s"] = st["incl_s"]
        values[f"{base}_self_s"] = st["self_s"]
        values[f"{base}_calls"] = st["calls"]
    activation = [
        layer["computed_activation_bytes"]
        for p in result["networks"].values()
        for layer in p["layers"]
    ]
    values.update(
        {
            "matrixnets.neumann_l": max(counts["neumann_l"], default=0),
            "network.cols_evaluated": counts["cols_evaluated"],
            "network.flops": counts["computed_flops"],
            "network.activation_mb": max(activation, default=0) / 1e6,
            "network.file_mb": counts.get("file_bytes", 0) / 1e6,
            "pde.snapshot_solves": stats["pde.solve_high_fidelity"]["calls"],
            "pde.d": counts.get("pde.d", 0),
            "pde.worst_err": result.get("worst_err", 0.0),
            "trace.total_s": result["total_s"],
            "trace.layer_self_s": sum(st["self_s"] for st in stats.values()),
            "trace.spans": spans,
        }
    )
    return values


def measure(wl, gates, seconds, tracer=None):
    """Timed passes until ``seconds`` would be exceeded (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        try:
            result = wl.run()
            entry = {k: result[k] for k in ("total_s", "build_s", "eval_s", "inputs")}
            if tracer is None:
                entry["counts"] = pass_counts(result)
            else:
                stats, captured = tracer.aggregate()
                entry["counts"] = pass_counts(result, captured, stats)
                entry["layer"] = layer_metrics(result, entry["counts"], stats, len(tracer.spans))
                self_s = entry["layer"]["trace.layer_self_s"]
                gates.check("span self times within pass", self_s <= result["total_s"])
                entry["networks"] = result["networks"]
            wl.check(result, gates)
        except Exception:
            # a raising operation is a failed gate, and later passes would
            # only repeat it
            traceback.print_exc()
            gates.check("pass completed", False)
            return passes
        del result
        passes.append(entry)
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            return passes


def count_mismatches(passes, ledger_path):
    """Keys whose value differs between passes, or from an earlier run of
    the same code at the same seed (recorded in ``ledger_path``)."""
    seen, bad = {}, set()
    for entry in passes:
        for key, value in entry["counts"].items():
            if seen.setdefault(key, value) != value:
                bad.add(key)
    old = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    bad.update(k for k, v in seen.items() if k in old and old[k] != v)
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps({**old, **seen}, sort_keys=True))
    return sorted(bad), seen


def median(values):
    return statistics.median(values) if values else 0.0


def select(values, specs, kind):
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"{kind} metrics not produced by this benchmark: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def run(args):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "requnet" / "__init__.py").is_file():
        raise BenchError("no requnet package under src/; run from a source checkout")

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    with open(OUT / ".lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise BenchError("another benchmark run holds the lock; workloads never run concurrently")
        return run_locked(args, spec)


def run_locked(args, spec):
    import numpy as np
    import scipy

    import requnet
    import workloads
    from tracer import Tracer

    env = environment(np, scipy)
    print(json.dumps({"env": env}), file=sys.stderr)

    imports = [import_seconds() for _ in range(SETUP_REPS)]
    wl = workloads.make(args.workload, OUT)
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup(args.seed)
        setups.append(time.perf_counter() - t)
    setup_s = median(imports) + median(setups)

    gates = workloads.Gates()
    if args.trace:
        untraced = measure(wl, gates, args.seconds / 2)
        tracer = Tracer(capture={"matrixnets.neumann_length": lambda plan: plan.l})
        layers = (requnet.network, requnet.calculus, requnet.matrixnets, requnet.pde)
        with tracer.installed(layers, (requnet, *layers), requnet.Network):
            traced = measure(wl, gates, args.seconds / 2, tracer)
        passes = untraced + traced
    else:
        passes = measure(wl, gates, args.seconds)

    ledger = OUT / "counts" / f"{args.workload}-seed{args.seed}-{source_digest()}.json"
    mismatches, counts = count_mismatches(passes, ledger)
    gates.check("exact counts repeat", not mismatches)
    if mismatches:
        print(f"exact counts differ across passes or runs: {mismatches}", file=sys.stderr)

    totals = [p["total_s"] for p in passes]
    if args.trace:
        values = {}
        if traced:
            for k in traced[0]["layer"]:
                column = [p["layer"][k] for p in traced]
                exact = all(isinstance(v, int) for v in column)
                values[k] = statistics.median_low(column) if exact else median(column)
            values["trace.untraced_total_s"] = median([p["total_s"] for p in untraced])
            values["trace.overhead_s"] = values["trace.total_s"] - values["trace.untraced_total_s"]
        metrics = select(values, spec["per_layer"], "per_layer") if traced else {}
        write_trace(args, env, imports, setups, passes, tracer, counts, mismatches, gates, metrics)
    else:
        values = {
            "setup_s": setup_s,
            "total_s": median(totals),
            "build_s": median([p["build_s"] for p in passes]),
            "eval_params_per_s": median([p["inputs"] / p["eval_s"] for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "net_nnz": counts.get("net_nnz", 0),
        }
        metrics = select(values, spec["end_to_end"], "end_to_end") if passes else {}

    print(
        json.dumps(
            {
                "setup_s": {"import": imports, "prepare": setups},
                "passes": len(passes),
                "pass_total_s": [round(t, 4) for t in totals],
                "failed_frac": gates.failed / gates.attempted,
                "failures": gates.failures[:20],
            }
        ),
        file=sys.stderr,
    )
    return {
        "correct": gates.failed == 0 and bool(metrics),
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": metrics,
    }


def write_trace(args, env, imports, setups, passes, tracer, counts, mismatches, gates, metrics):
    """Spans and network profiles of the last traced pass, with the
    environment, pass times, exact counts and gate results."""
    last = passes[-1] if passes and "layer" in passes[-1] else {}
    stats, _ = tracer.aggregate()
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "setup": {"import_s": imports, "prepare_s": setups},
        "passes": [
            {k: p[k] for k in ("total_s", "build_s", "eval_s", "inputs")} | {"traced": "layer" in p}
            for p in passes
        ],
        "per_layer": metrics,
        "layers": {ALIASES.get(k, k): v for k, v in sorted(stats.items()) if v["calls"]},
        "networks": last.get("networks", {}),
        "counts": counts,
        "count_mismatches": mismatches,
        "gates": {
            "attempted": gates.attempted,
            "failed": gates.failed,
            "failed_frac": gates.failed / gates.attempted,
            "failures": gates.failures,
        },
        "spans": {
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": tracer.dump(tracer.spans[0][1] if tracer.spans else 0.0),
        },
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))
    print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
