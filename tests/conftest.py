import os
import sys
from pathlib import Path

import pytest

import mmwpl

# Make the shared oracle helpers importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _package_importable_in_children(monkeypatch):
    """Let the `python -m mmwpl` child processes import the package under test.

    Without this, a checkout that is not installed passes its in-process
    tests (pytest puts src on sys.path) but not the entry-point ones.
    """
    root = str(Path(mmwpl.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
