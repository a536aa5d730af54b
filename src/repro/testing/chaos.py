"""CI chaos-smoke driver: ``python -m repro.testing.chaos``.

Runs a QUICK sweep under injected faults and asserts the resilience
layer's headline guarantees end to end, the way CI exercises them:

1. **Partial sweep** — with a worker that dies every time it touches
   one grid point and a cache that tears half its writes, a
   ``strict=False`` sweep returns N-1 results plus exactly one
   :class:`~repro.experiments.resilience.PointFailure`; no completed
   result is lost.
2. **Healing** — a subsequent *clean* sweep re-simulates only the
   failed point plus the torn cache entries (``--expect-sims``), and a
   third pass is fully warm (``--expect-warm``).
3. **Exit codes** — ``repro sweep --keep-going`` exits 3 on a partial
   grid and the strict default aborts with a nonzero status.
4. **Determinism** — the same fault seed produces the same failure
   records at ``jobs=1`` and ``jobs=N``.
5. **Timeout parity** — under a per-point timeout, a hung point fails
   alike at ``jobs=1`` and ``jobs=N``, and no sibling is charged the
   time it queued behind it.

Exit status 0 means every check passed; the first failed check prints
a ``chaos: FAIL`` line and exits 1.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from typing import List, Optional

from .. import cli
from ..experiments import runner
from ..experiments.cache import RunCache
from ..experiments.grid import run_grid
from ..experiments.resilience import RetryPolicy
from .faults import FaultSpec, injected_faults

#: The grid under test: 2 benchmarks x 3 designs x 1 window = 6 points.
BENCHMARKS = ("SAD", "BFS")
DESIGNS = ("baseline", "bow", "bow-wr")
WINDOWS = (3,)

#: The point the injected worker crash targets.
VICTIM = "SAD/bow IW3"

#: Zero backoff keeps the smoke fast; three attempts per point.
POLICY = RetryPolicy(max_attempts=3, backoff_base=0.0)

#: Timeout parity: every point stalls ``STALL`` seconds once, well
#: inside the budget (a QUICK point simulates in under 0.5 s), and the
#: victim ``VICTIM_STALL`` more, well past it.  A sibling also charged
#: for the time it queued behind stalled siblings would overrun it.
STALL = 1.2
VICTIM_STALL = 1.5
TIMEOUT_POLICY = RetryPolicy(max_attempts=1, backoff_base=0.0, timeout=2.4)


def _log(message: str) -> None:
    print(f"chaos: {message}", file=sys.stderr)


def _check(ok: bool, message: str) -> None:
    if not ok:
        _log(f"FAIL {message}")
        raise SystemExit(1)
    _log(f"ok   {message}")


def _sweep_argv(cache_dir: str, jobs: int, *extra: str) -> List[str]:
    return ["sweep", *BENCHMARKS, "--jobs", str(jobs),
            "--cache-dir", cache_dir, *extra]


def _faulted_grid(seed: int, state_dir: str, cache_dir: str, jobs: int,
                  specs: List[FaultSpec], policy: RetryPolicy = POLICY):
    """One strict=False sweep with ``specs`` installed; returns
    ``(grid, plan)`` with the plan already uninstalled."""
    runner.clear_cache()
    with injected_faults(seed, state_dir, specs) as plan:
        grid = run_grid(
            BENCHMARKS, DESIGNS, WINDOWS, scale=runner.QUICK, jobs=jobs,
            retry=policy, strict=False, cache=RunCache(cache_dir),
        )
    return grid, plan


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description="sweep-engine chaos smoke (CI)",
    )
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel passes")
    parser.add_argument("--seed", type=int, default=11,
                        help="fault-plan seed")
    args = parser.parse_args(argv)

    points = len(BENCHMARKS) * len(DESIGNS) * len(WINDOWS)
    specs = [
        FaultSpec("kill", times=0, match=VICTIM),
        FaultSpec("cache-corrupt", rate=0.5, times=1),
    ]
    root = tempfile.mkdtemp(prefix="repro-chaos-")
    cache_dir = f"{root}/cache"
    state_dir = f"{root}/faults"
    try:
        # -- pass 1: crash + torn cache, keep going --------------------
        _log(f"pass 1: {points}-point sweep, worker crash at {VICTIM}, "
             f"torn cache writes (jobs={args.jobs})")
        grid, plan = _faulted_grid(args.seed, state_dir, cache_dir,
                                   args.jobs, specs)
        _check(len(grid.results) == points - 1,
               f"{points - 1} of {points} points resolved")
        _check([f.signature() for f in grid.failures]
               == [(VICTIM, "transient", POLICY.max_attempts)],
               f"exactly one failure: {VICTIM} after "
               f"{POLICY.max_attempts} attempts")
        _check(len(grid.records) + len(grid.failures) == points,
               "no completed result was lost")
        torn = plan.spec_firings(1)
        _check(torn > 0, f"{torn} cache write(s) torn")

        # -- pass 2: clean sweep heals ---------------------------------
        _log("pass 2: clean sweep re-simulates only the failed point "
             "and the torn entries")
        runner.clear_cache()
        code = cli.main(_sweep_argv(cache_dir, args.jobs,
                                    "--expect-sims", str(1 + torn)))
        _check(code == 0, f"healing pass simulated exactly {1 + torn} "
                          f"run(s) (exit {code})")

        # -- pass 3: fully warm ----------------------------------------
        runner.clear_cache()
        code = cli.main(_sweep_argv(cache_dir, 1, "--expect-warm"))
        _check(code == 0, f"third pass fully warm (exit {code})")

        # -- exit codes ------------------------------------------------
        _log("exit codes: --keep-going partial sweep and strict abort")
        runner.clear_cache()
        with injected_faults(args.seed, f"{root}/cli-faults",
                             [FaultSpec("raise", times=0, match=VICTIM)]):
            code = cli.main(_sweep_argv(
                f"{root}/cli-cache", args.jobs, "--keep-going",
                "--retries", "2"))
            _check(code == 3, f"--keep-going partial sweep exits 3 "
                              f"(exit {code})")
            runner.clear_cache()
            code = cli.main(_sweep_argv(f"{root}/cli-cache2", args.jobs))
            _check(code == 1, f"strict sweep aborts with exit 1 "
                              f"(exit {code})")

        # -- determinism: jobs=1 vs jobs=N -----------------------------
        _log(f"determinism: same fault seed at jobs=1 and "
             f"jobs={args.jobs}")
        serial, _ = _faulted_grid(args.seed, f"{root}/det-faults-1",
                                  f"{root}/det-cache-1", 1, specs)
        parallel, _ = _faulted_grid(args.seed, f"{root}/det-faults-N",
                                    f"{root}/det-cache-N", args.jobs,
                                    specs)
        _check(sorted(f.signature() for f in serial.failures)
               == sorted(f.signature() for f in parallel.failures),
               "identical failure records at jobs=1 and "
               f"jobs={args.jobs}")

        # -- timeout parity: jobs=1 vs jobs=N --------------------------
        _log(f"timeout parity: {VICTIM} hangs past a "
             f"{TIMEOUT_POLICY.timeout}s budget at jobs=1 and "
             f"jobs={args.jobs}")
        stalls = [FaultSpec("hang", duration=STALL),
                  FaultSpec("hang", duration=VICTIM_STALL, match=VICTIM)]
        for jobs in (1, args.jobs):
            grid, _ = _faulted_grid(
                args.seed, f"{root}/timeout-faults-{jobs}",
                f"{root}/timeout-cache-{jobs}", jobs, stalls,
                TIMEOUT_POLICY)
            _check([f.signature() for f in grid.failures]
                   == [(VICTIM, "transient", 1)],
                   f"only {VICTIM} timed out at jobs={jobs}")
    finally:
        runner.set_cache(None)
        runner.clear_cache()
        shutil.rmtree(root, ignore_errors=True)
    _log("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
