import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    # pyproject's `pythonpath = ["src"]` puts the package on this process's
    # path only; the CLI tests start fresh interpreters, which need it too
    # when the package is not installed.
    parts = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
