"""The README's Python quick start runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs_without_warnings():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {})
