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
    "pde.json": "f66a16c013e5f94aa45bbd81745f301efc9bffd93ad41d806e66d0bc9189cd0e",
    "pde.csv": "8383e928bd06d4325480c01f13637cf9e6b813a8b08afa63cf4dc00a8957f9a6",
}


def test_pde_output_bytes_match_recorded_digests(tmp_path):
    assert main(PDE_GRID9 + ["--out", str(tmp_path / "pde.json")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
