"""Record one point of the benchmark trajectory as BENCH_<tag>.json.

    python3 scripts/bench.py TAG

Runs perfbench/run.py for every workload listed in BENCHMARK.json, at the
run length it sets (run_seconds): untraced once at each seed of SEEDS, then
traced once at TRACE_SEED.  The file, written
at the root of the checkout that holds this script, keeps each untraced run's
end-to-end metrics and their medians, the traced run's per-layer metrics (the
pde stage times among them) and its per-layer network profile (width, exact
nnz, activation bytes, flops), with the commit and the environment.  Compare
each file with the previous one; the seeds are fixed, so the compiled
networks and their counts are the same in every file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
TRACE_SEED = 11


def run_workload(name, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run_workload(wl, seed, seconds, 0) for seed in SEEDS]
        traced = run_workload(wl, TRACE_SEED, seconds, 1)
        trace = json.loads((ROOT / "perfbench" / "out" / f"trace-{wl}-seed{TRACE_SEED}.json").read_text())
        end_to_end = {
            m: {"median": statistics.median(r["metrics"][m]["value"] for r in runs),
                "runs": [r["metrics"][m]["value"] for r in runs],
                "unit": runs[0]["metrics"][m]["unit"]}
            for m in runs[0]["metrics"]
        }
        workloads[wl] = {
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "networks": trace["networks"],
        }
        print(f"{wl}: " + ", ".join(f"{m} {v['median']:.4g}" for m, v in end_to_end.items()),
              file=sys.stderr)
    doc = {
        "tag": args.tag,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
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
