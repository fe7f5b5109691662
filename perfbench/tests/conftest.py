import sys
from pathlib import Path

# The benchmark's modules sit one directory up and import each other by name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402

env.use_checkout_sources()
