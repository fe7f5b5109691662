"""Locate the mmwpl sources of the checkout the benchmark lives in.

The benchmark always measures the package under ``<root>/src``, never an
installed copy, and reads the brute-force oracle from ``<root>/tests``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
# Scratch files (CLI outputs, sample CSVs) live here and are removed after a run.
SCRATCH = ROOT / ".perfbench_tmp"


class MissingSources(RuntimeError):
    """The checkout lacks the package sources or the oracle module."""


def use_checkout_sources() -> None:
    """Put ``<root>/src`` first on the import path and check it is what loads."""
    if not (SRC / "mmwpl" / "__init__.py").is_file():
        raise MissingSources(f"mmwpl sources not found under {SRC}")
    if not ORACLES.is_file():
        raise MissingSources(f"oracle module not found at {ORACLES}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mmwpl

    if Path(mmwpl.__file__).resolve().parent != (SRC / "mmwpl").resolve():
        raise MissingSources(f"imported mmwpl from {mmwpl.__file__}, not from {SRC}")


def load_oracles():
    """Import ``tests/oracles.py`` by path; the file is only read."""
    spec = importlib.util.spec_from_file_location("mmwpl_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_env() -> dict:
    """Environment for ``python -m mmwpl`` children: checkout sources, default settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MMWPL_THREADS", None)
    return env
