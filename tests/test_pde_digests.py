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
    "pde.json": "3d09aabacf4609f98d47fdf5cd7b1edbacc1b97b0725f024a8e763079406dba3",
    "pde.csv": "2ffaa07ddb6c86ca19822c526fccb3f794b44f27623ecb894507eaf4ab8c831f",
}


def test_pde_output_bytes_match_recorded_digests(tmp_path):
    assert main(PDE_GRID9 + ["--out", str(tmp_path / "pde.json")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
