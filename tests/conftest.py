import os
import sys
from pathlib import Path

import pytest

import mmwpl

# Make the shared oracle helpers importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _children_run_like_the_suite(monkeypatch):
    """Run the `python -m mmwpl` child processes on the package under test and the suite's warning policy.

    Without the path, a checkout that is not installed passes its in-process
    tests (pytest puts src on sys.path) but not the entry-point ones.  Without
    the warning filter, a RuntimeWarning or DeprecationWarning in a child
    would only be printed, where in-process it fails the test.
    """
    root = str(Path(mmwpl.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning,error::DeprecationWarning")
