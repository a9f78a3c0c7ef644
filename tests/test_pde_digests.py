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
    "pde.json": "9f064b06ec378db44e6f0c61b699a1e331522f24b0709bdfac21e2470318c67b",
    "pde.csv": "847395a3f366e9ce1dcbeb287af5122368fe50ee80166a2c5fa0f876bed1d34e",
}


def test_pde_output_bytes_match_recorded_digests(tmp_path):
    assert main(PDE_GRID9 + ["--out", str(tmp_path / "pde.json")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
