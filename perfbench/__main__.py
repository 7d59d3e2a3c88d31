"""``python -m perfbench``: the benchmark's one command (see ``cli``)."""

import time

_ENTERED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
# The benchmark measures the checkout it sits in, from source.
for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

if __name__ == "__main__":
    from perfbench.cli import main

    sys.exit(main(entered=_ENTERED))
