"""Self-tests of the benchmark: ``python -m pytest perfbench/tests``.

Outside the repo's ``testpaths`` on purpose — tier-1 does not run them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
