"""Compare benchmark reports from two commits, like with like only.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- HEAD.json [...]

Each argument is a report ``run.py`` wrote under ``.perfbench/reports/``.
All reports must come from one workload and one trace mode, and from
hosts with the same fingerprint (CPU model, core count, Python and
numpy versions); otherwise the comparison is refused with exit code 2,
so a number measured on one machine is never gated against another.
Per metric, prints both medians and head/base.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

from harness import same_host


def load(paths: List[str]) -> List[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, head = load(argv[:split]), load(argv[split + 1:])
    if not base or not head:
        print("compare: need reports on both sides of --", file=sys.stderr)
        return 2
    reports = base + head
    kinds = {(report["workload"], report["trace"]) for report in reports}
    if len(kinds) != 1:
        print(f"compare: mixed workloads/trace modes {sorted(kinds)}",
              file=sys.stderr)
        return 2
    for report in reports[1:]:
        differ = same_host(reports[0]["host"], report["host"])
        if differ:
            print(f"compare: host fingerprints differ in {differ}; "
                  "measure both commits on one host", file=sys.stderr)
            return 2
    print(f"{'metric':<40} {'base':>14} {'head':>14} {'head/base':>10}")
    for name, unit in base[0]["units"].items():
        before = statistics.median(report["metrics"][name] for report in base)
        after = statistics.median(report["metrics"][name] for report in head)
        ratio = f"{after / before:10.4f}" if before else f"{'-':>10}"
        print(f"{name:<40} {before:>14.6g} {after:>14.6g} {ratio} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
