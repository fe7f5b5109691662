"""The README's Python quick start runs as written, and its API list is the package's."""

import re
import warnings
from pathlib import Path

import mmwpl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs_without_warnings():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {})


def test_api_list_is_all_and_imports():
    (section,) = re.findall(r"^## API\n(.*?)^## ", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    names = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert names == sorted(mmwpl.__all__)
    namespace = {}
    exec(f"from mmwpl import {', '.join(names)}", namespace)
    assert set(names) <= set(namespace)
