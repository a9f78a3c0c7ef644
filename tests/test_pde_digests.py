"""Output bytes of `requnet pde` pinned across versions: a sha256 of the
JSON summary and of the CSV error table at grid 9.  A change in how the
pipeline is built, evaluated or reported must leave these unchanged."""

import hashlib

from requnet.cli import main

PDE_GRID9 = [
    "pde", "--grid", "9", "--chessboard", "2", "--mu", "0.1",
    "--snapshots", "8", "--drop-tol", "1e-8", "--eps", "1e-3",
    "--test", "6", "--seed", "303",
]

DIGESTS = {
    "pde.json": "c17cb9d23a41415ed93184c959168acba9559852f9a94f1b7ddd1b933dcd7667",
    "pde.csv": "b3f4545d9c41efc7957080eebcdd21f9296b6e70234ae2e5e657022dbc36be8a",
}


def test_pde_output_bytes_match_recorded_digests(tmp_path):
    assert main(PDE_GRID9 + ["--out", str(tmp_path / "pde.json")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
