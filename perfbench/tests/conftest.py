"""Put the benchmark's modules and the program's sources on the path.

Run with ``python3 -m pytest perfbench/tests`` from the repo root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
