"""Command-line interface: verify/invert/complexity/pde subcommands, their
output files, exit codes, and byte-level determinism."""

import ast
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from requnet import cli, complexity, load_network, realize, inversion_network, vec
from requnet.cli import main

CLI = [sys.executable, "-m", "requnet.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.mark.parametrize("module", ["requnet", "requnet.cli"])
def test_import_leaves_the_dense_and_sparse_solvers_unloaded(module):
    """scipy.linalg and scipy.sparse.linalg are imported on first use by
    the snapshot solves and the Gram check, so invert, complexity and verify
    never pay for them."""
    code = (
        f"import sys, {module}; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------- verify


def test_verify_calculus_quick_passes():
    proc = run_cli("verify", "--suite", "calculus", "--seed", "7", "--quick")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["suite"] == "calculus"
    assert len(doc["checks"]) >= 8
    for check in doc["checks"]:
        assert set(check) == {"name", "pass", "measured", "bound"}
        assert check["pass"] is True


def test_verify_matrix_quick_passes():
    proc = run_cli("verify", "--suite", "matrix", "--seed", "7", "--quick")
    assert proc.returncode == 0, proc.stderr
    names = {c["name"] for c in json.loads(proc.stdout)["checks"]}
    assert {"mult-exactness", "square-exactness", "power-depth"} <= names


def test_verify_inversion_quick_reports_bounds():
    proc = run_cli(
        "verify", "--suite", "inversion", "--seed", "7", "--quick", "--dim", "4", "--eps", "1e-2"
    )
    assert proc.returncode == 0, proc.stderr
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["inversion-spectral-error"]["bound"] == 1e-2
    assert checks["inversion-spectral-error"]["measured"] <= 1e-2
    assert "neumann-tail-bound" in checks


def test_verify_inversion_exact_weight_count(tmp_path):
    # eps 0.5 at delta 0.9 is the single-factor case l = 1; 1e-3 at 0.2 is l = 6
    for eps, delta in [("0.5", "0.9"), ("1e-3", "0.2")]:
        out = tmp_path / f"inv-{eps}.json"
        argv = ["verify", "--suite", "inversion", "--seed", "7", "--quick", "--dim", "3"]
        assert main(argv + ["--eps", eps, "--delta", delta, "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["inversion-weight-exact"]["measured"] == 0
        assert checks["inversion-weight-exact"]["pass"] is True
        assert "inversion-weight-bound" in checks


def test_verify_all_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--suite", "all", "--seed", "7", "--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["suite"] == "all"
    assert all(c["pass"] for c in doc["checks"])


def test_verify_rejects_unknown_suite():
    proc = run_cli("verify", "--suite", "bogus", "--seed", "7")
    assert proc.returncode == 2


# ------------------------------------------------------------------- invert


def test_invert_documented_example(tmp_path):
    out = tmp_path / "invert.json"
    proc = run_cli(
        "invert", "--dim", "2", "--eps", "1e-3", "--delta", "0.5", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["l"] == 4
    assert doc["depth"] == 9
    assert doc["measured_error"] <= 1e-3
    assert doc["nnz"] <= doc["nnz_bound"]


def test_invert_reads_matrix_file(tmp_path):
    mat = tmp_path / "zero.json"
    mat.write_text(json.dumps([[0.0, 0.0], [0.0, 0.0]]))
    out = tmp_path / "invert.json"
    proc = run_cli(
        "invert", "--dim", "2", "--eps", "1e-2", "--delta", "0.5",
        "--matrix", str(mat), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["measured_error"] == 0.0


def test_invert_exits_1_when_the_error_budget_fails(tmp_path):
    # ||A|| = 0.9 breaks the contraction margin 1 - delta = 0.5 the plan assumes
    mat = tmp_path / "wide.json"
    mat.write_text(json.dumps([[0.9, 0.0], [0.0, 0.9]]))
    out, saved = tmp_path / "invert.json", tmp_path / "net.json"
    argv = ["invert", "--dim", "2", "--eps", "1e-2", "--delta", "0.5", "--matrix", str(mat)]
    assert main(argv + ["--save", str(saved), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["measured_error"] > 1e-2
    assert load_network(saved).depth == json.loads(out.read_text())["depth"]


def test_invert_missing_matrix_file(tmp_path):
    proc = run_cli(
        "invert", "--dim", "2", "--eps", "1e-2", "--delta", "0.5",
        "--matrix", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json"),
    )
    assert proc.returncode == 3


def test_invert_rejects_non_square_matrix(tmp_path):
    mat = tmp_path / "row.json"
    mat.write_text(json.dumps([[0.0, 0.0]]))
    proc = run_cli(
        "invert", "--dim", "2", "--eps", "1e-2", "--delta", "0.5",
        "--matrix", str(mat), "--out", str(tmp_path / "o.json"),
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "matrix",
    [
        [["0.1", "0"], ["0", "0.5"]],
        [[0.1, None], [0.0, 0.5]],
        [[0.1, "0"], [0.0, 0.5]],
        [[float("nan"), 0.0], [0.0, 0.5]],
    ],
    ids=["text", "null", "mixed", "nan"],
)
def test_invert_checks_the_matrix_file_before_building(tmp_path, monkeypatch, capsys, matrix):
    # a float64 cast would parse json text as numbers; each file must exit 2, unbuilt
    mat = tmp_path / "matrix.json"
    mat.write_text(json.dumps(matrix))
    monkeypatch.setattr(cli, "inversion_network", lambda *a: pytest.fail("network was built"))
    argv = ["invert", "--dim", "2", "--eps", "1e-2", "--delta", "0.5", "--matrix", str(mat)]
    assert main(argv + ["--out", str(tmp_path / "o.json")]) == 2
    assert "real numbers" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_invert_checks_the_dimension_before_drawing_a_sample(tmp_path, dim):
    # the sample's rescaling would divide by the zero norm of an empty matrix
    proc = run_cli(
        "invert", "--dim", dim, "--eps", "1e-2", "--delta", "0.5", "--out", str(tmp_path / "o.json")
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: need an integer d >= 1, got {dim}\n"
    assert not (tmp_path / "o.json").exists()


def test_invert_save_round_trip(tmp_path):
    saved = tmp_path / "net.json"
    proc = run_cli(
        "invert", "--dim", "2", "--eps", "1e-2", "--delta", "0.5",
        "--save", str(saved), "--out", str(tmp_path / "o.json"),
    )
    assert proc.returncode == 0, proc.stderr
    net = load_network(saved)
    fresh = inversion_network(2, 1e-2, 0.5)
    x = vec(np.array([[0.1, 0.02], [0.0, -0.3]]))
    assert (realize(net, x) == realize(fresh, x)).all()


# --------------------------------------------------------------- complexity


def test_complexity_table(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli(
        "complexity", "--dims", "2,4", "--eps", "1e-2,1e-3", "--delta", "0.5",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d", "eps", "l", "depth", "nnz", "bound"]
    assert len(rows) == 5
    by_key = {(int(r[0]), float(r[1])): r for r in rows[1:]}
    for (d, eps), row in by_key.items():
        l, depth, nnz, bound = int(row[2]), int(row[3]), int(row[4]), int(row[5])
        assert depth == 2 * l + 1
        assert nnz <= bound
    # tightening eps cannot shorten the partial sum; growing d adds weights
    assert int(by_key[(2, 1e-3)][2]) >= int(by_key[(2, 1e-2)][2])
    assert int(by_key[(4, 1e-2)][4]) > int(by_key[(2, 1e-2)][4])


def test_complexity_bound_is_exact_at_l1(tmp_path):
    """At l = 1 the bound column is the exact count 32d^2 - 2d."""
    out = tmp_path / "table.csv"
    assert main(
        ["complexity", "--dims", "1,3,5", "--eps", "0.5", "--delta", "0.9",
         "--out", str(out)]
    ) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["l"]) for r in rows] == [1, 1, 1]
    for r in rows:
        d = int(r["d"])
        assert int(r["nnz"]) == int(r["bound"]) == 32 * d * d - 2 * d


def test_complexity_builds_one_network_per_dimension_and_length(tmp_path, monkeypatch):
    """The README table: l = 5, 6, 6 for the three eps, so 6 builds, not 9."""
    built = []
    real = cli.inversion_network
    monkeypatch.setattr(cli, "inversion_network", lambda *a: built.append(a) or real(*a))
    out = tmp_path / "table.csv"
    argv = ["complexity", "--dims", "4,8,16", "--eps", "1e-2,1e-3,1e-4", "--delta", "0.2"]
    assert main(argv + ["--out", str(out)]) == 0
    assert [(d, eps) for d, eps, _ in built] == [(d, eps) for d in (4, 8, 16) for eps in (1e-2, 1e-3)]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["l"]) for r in rows] == [5, 6, 6] * 3
    for r in rows:  # a shared count equals the one the row's own eps builds
        net = real(int(r["d"]), float(r["eps"]), 0.2)
        assert int(r["nnz"]) == complexity(net).total_nnz


@pytest.mark.parametrize("command", [["invert", "--dim", "2"], ["complexity", "--dims", "2"]])
def test_delta_too_small_for_double_precision_exits_2(tmp_path, capsys, command):
    # 1 - 1e-17 rounds to 1, so the length rule would divide by log(1) = 0
    args = command + ["--eps", "1e-3", "--delta", "1e-17", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "too small for double precision" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_complexity_rejects_bad_dims(tmp_path):
    proc = run_cli(
        "complexity", "--dims", "0,2", "--eps", "1e-2", "--delta", "0.5",
        "--out", str(tmp_path / "t.csv"),
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "dims, eps, message",
    [
        ("2,x", "1e-2", "bad integer list '2,x'"),
        ("2", "1e-2,y", "bad float list '1e-2,y'"),
        (" , ", "1e-2", "list must be non-empty"),
        ("2", ",", "list must be non-empty"),
    ],
)
def test_complexity_rejects_bad_lists(tmp_path, capsys, dims, eps, message):
    argv = ["complexity", "--dims", dims, "--eps", eps, "--delta", "0.5",
            "--out", str(tmp_path / "t.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_complexity_skips_empty_list_tokens(tmp_path):
    out = tmp_path / "t.csv"
    argv = ["complexity", "--dims", "2,,3,", "--eps", " 1e-2 ,", "--delta", "0.5",
            "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        assert [r["d"] for r in csv.DictReader(fh)] == ["2", "3"]


# ---------------------------------------------------------------------- pde


PDE_SMALL = [
    "pde", "--grid", "5", "--chessboard", "1", "--mu", "0.5",
    "--snapshots", "3", "--drop-tol", "1e-8", "--eps", "1e-2",
    "--test", "4", "--seed", "99",
]


def test_pde_small_end_to_end(tmp_path):
    out = tmp_path / "pde.json"
    proc = run_cli(*PDE_SMALL, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["D"] == 25
    assert doc["d"] == 1  # one subdomain: all snapshots are parallel
    assert doc["alpha"] == 1.5 and doc["beta"] == 0.5
    assert doc["worst_euclid"] <= 1e-2 and doc["worst_g"] <= 1e-2
    assert doc["depth"] >= 3
    assert doc["depth"] == (2 * doc["l"] + 2 if doc["l"] >= 2 else 3)  # h_net over the doubling length

    with open(tmp_path / "pde.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y_1", "err_euclid_rb", "err_g_h", "err_rel_g"]
    assert len(rows) == 6
    assert rows[-1][0] == "MAX"


def test_pde_rejects_bad_eps(tmp_path):
    proc = run_cli(
        "pde", "--grid", "5", "--chessboard", "1", "--mu", "0.5",
        "--snapshots", "3", "--drop-tol", "1e-8", "--eps", "2.0",
        "--test", "4", "--seed", "99", "--out", str(tmp_path / "o.json"),
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "out, csv_name",
    [
        ("pde.json", "pde.csv"),
        ("./summary", "summary.csv"),  # not ".csv"
        ("runs.v2/summary", "runs.v2/summary.csv"),  # not "runs.csv"
    ],
)
def test_pde_csv_replaces_only_the_file_extension(tmp_path, monkeypatch, out, csv_name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    assert main(PDE_SMALL + ["--out", out]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted([str(tmp_path.joinpath(out).relative_to(tmp_path)), csv_name])


def test_pde_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The README pde run (4 test parameters instead of 100) writes the same
    JSON and CSV bytes at one and at two BLAS threads: at d = 32 a threaded
    GEMM for the reduced pieces would change their last bits."""
    readme = [
        "pde", "--grid", "33", "--chessboard", "3", "--mu", "0.1",
        "--snapshots", "200", "--drop-tol", "2e-2", "--eps", "1e-3",
        "--test", "4", "--seed", "20260815",
    ]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads / "pde.json"
        out.parent.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(CLI + readme + ["--out", str(out)], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        written.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    assert written[0] == written[1]


# ------------------------------------------------------------- determinism


def test_repeated_runs_are_byte_identical(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        inv = tmp_path / f"inv_{tag}.json"
        tab = tmp_path / f"tab_{tag}.csv"
        ver = tmp_path / f"ver_{tag}.json"
        pde = tmp_path / f"pde_{tag}.json"
        assert run_cli(
            "invert", "--dim", "3", "--eps", "1e-2", "--delta", "0.2",
            "--out", str(inv),
        ).returncode == 0
        assert run_cli(
            "complexity", "--dims", "2,3", "--eps", "1e-2", "--delta", "0.5",
            "--out", str(tab),
        ).returncode == 0
        assert run_cli(
            "verify", "--suite", "matrix", "--seed", "7", "--quick", "--out", str(ver)
        ).returncode == 0
        assert run_cli(*PDE_SMALL, "--out", str(pde)).returncode == 0
        pairs.append((inv, tab, ver, pde, pde.with_suffix(".csv")))
    for first, second in zip(*pairs):
        assert first.read_bytes() == second.read_bytes()


# -------------------------------------------------------------- entry point


def test_main_callable_in_process(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "calculus", "--seed", "7", "--quick", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suite"] == "calculus"


def test_cli_imports_no_private_name_of_pde_or_network():
    """The command goes through the public API of pde and network, so the
    layout of a solution_network pair is known in pde.py alone."""
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("pde", "network")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {"pde", "network"} <= imported and private == []
