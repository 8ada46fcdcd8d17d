import os
import sys
from pathlib import Path

import pytest

# Allow running the suite from a fresh checkout without installing the package.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _first_engine_on_pythonpath() -> Path | None:
    """The first ``PYTHONPATH`` entry that holds a ``dcnet`` package, resolved like ``sys.path``."""
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        path = Path(entry).resolve()
        if entry and (path / "dcnet" / "__init__.py").is_file():
            return path
    return None


def pytest_configure(config):
    """Refuse to run when ``PYTHONPATH`` names another checkout's engine first: the suite
    would test this checkout's ``src/`` while the caller meant the other one."""
    found = _first_engine_on_pythonpath()
    if found is not None and found != SRC.resolve():
        raise pytest.UsageError(
            f"PYTHONPATH puts the dcnet package at {found} first, but this suite tests {SRC}; "
            f"run the tests of {found.parent} from that checkout"
        )
