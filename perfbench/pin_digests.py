"""Rewrite ``sweep_cold_digests.json`` from the program as it now is.

    python3 perfbench/pin_digests.py

Run this only for a change that is meant to move simulated counters,
and say so in that change: the pins are what lets a speed-up prove it
moved no counter.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness
from run import OUTPUT, ROOT


def main() -> int:
    harness.load_program(ROOT)
    import sweep_cold

    workdir = OUTPUT / "pin-digests"
    try:
        digests = sweep_cold.current_digests(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sweep_cold.DIGEST_FILE.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests -> {sweep_cold.DIGEST_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
