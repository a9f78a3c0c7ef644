"""Exact-count report: which counts depend on the seed.

    python3 perfbench/counts.py

For each workload, runs ``run.py --trace 1`` once at SEED_A and once at
SEED_B, one run at a time, and compares the exact counts each run wrote
to its trace (nonzeros, per-layer widths and nonzeros, reduced dimension,
Neumann lengths, call counts, file bytes).  That the counts repeat at one
seed is checked by run.py itself (its count ledger), so a run that reports
``correct: false`` fails this report (exit 1).  The report is printed and
written to ``perfbench/out/counts-report.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_A, SEED_B = 1, 2
SECONDS = 4.0


def traced_counts(workload, seed):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((HERE / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    return result["correct"], trace["counts"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        correct_a, first = traced_counts(workload, SEED_A)
        correct_b, other = traced_counts(workload, SEED_B)
        keys = sorted(first)
        report[workload] = {
            "correct": correct_a and correct_b,
            "seed_dependent": [k for k in keys if first[k] != other.get(k)],
            "seed_independent": [k for k in keys if first[k] == other.get(k)],
        }
        ok = ok and report[workload]["correct"]
    text = json.dumps({"seeds": [SEED_A, SEED_B], "ok": ok, "workloads": report}, indent=2)
    (HERE / "out" / "counts-report.json").write_text(text + "\n")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
