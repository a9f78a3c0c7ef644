"""Record one point of the benchmark trajectory as BENCH_<tag>.json.

    python3 scripts/bench.py TAG

Runs perfbench/run.py for every workload listed in BENCHMARK.json, at the
run length it sets (run_seconds): untraced once at each seed of SEEDS, then
traced once at TRACE_SEED.  Each untraced run is paired with one of the
base commit at the same seed, the two taking turns to go first, so that
machine load weighs on both sides alike.  The base is HEAD when src/ or
perfbench/ has uncommitted changes and HEAD~1 otherwise; it is extracted
with git archive into a temporary directory.  The file, written at the
root of the checkout that holds this script, keeps each untraced run's
end-to-end metrics and their medians for this tree and for the base, the
traced run's per-layer metrics (the pde stage times among them) and its
per-layer network profile (width, exact nnz, activation bytes, flops), with
both commits and the environment.  Compare this tree's medians with the
base's in the same file; the seeds are fixed, so the compiled networks and
their counts are the same in every file.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
TRACE_SEED = 11


def run_workload(root, name, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    """Write the tree of commit rev into dest."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def summary(runs):
    """Each end-to-end metric's median and runs, and the gate counts."""
    return {
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "end_to_end": {
            m: {"median": statistics.median(r["metrics"][m]["value"] for r in runs),
                "runs": [r["metrics"][m]["value"] for r in runs],
                "unit": runs[0]["metrics"][m]["unit"]}
            for m in runs[0]["metrics"]
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    base_rev = "HEAD" if dirty else "HEAD~1"
    workloads = {}
    with tempfile.TemporaryDirectory() as base:
        extract(base_rev, base)
        for wl in (w["name"] for w in spec["workloads"]):
            runs, base_runs = [], []
            for i, seed in enumerate(SEEDS):
                sides = [(ROOT, runs), (base, base_runs)]
                for root, bucket in sides[::-1] if i % 2 else sides:
                    bucket.append(run_workload(root, wl, seed, seconds, 0))
            traced = run_workload(ROOT, wl, TRACE_SEED, seconds, 1)
            trace_path = ROOT / "perfbench" / "out" / f"trace-{wl}-seed{TRACE_SEED}.json"
            trace = json.loads(trace_path.read_text())
            entry = summary(runs)
            entry["failed"] += traced["failed"]
            entry["attempted"] += traced["attempted"]
            entry["base"] = summary(base_runs)
            entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
            entry["networks"] = trace["networks"]
            workloads[wl] = entry
            base_e2e = entry["base"]["end_to_end"]
            print(f"{wl}: " + ", ".join(
                f"{m} {v['median']:.4g} (base {base_e2e[m]['median']:.4g})"
                for m, v in entry["end_to_end"].items()), file=sys.stderr)
    doc = {
        "tag": args.tag,
        "commit": git("rev-parse", "HEAD"),
        "dirty": dirty,
        "base": {"rev": base_rev, "commit": git("rev-parse", base_rev)},
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "seconds": seconds,
        "env": trace["env"],
        "workloads": workloads,
    }
    (ROOT / f"BENCH_{args.tag}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
