"""Make the package importable from an uninstalled checkout, also for the
`python -m requnet.cli` subprocesses the CLI tests start (pyproject's
pytest `pythonpath` covers only the test process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
