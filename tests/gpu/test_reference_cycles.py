"""The engine leaves no per-instruction reference cycles behind.

Every object a run allocates per instruction (inflight entries, queued
RF writes, bank requests, completion records) must be freed by
reference counting the moment the pipeline lets go of it.  A cycle
through any of them — e.g. a queued write whose bank request points
back at the write — strands it, and everything it references, until
the cyclic collector runs: tens of thousands of objects per QUICK
benchmark run.  What may remain is a fixed, run-sized set (the engine
and its stages reference each other), which must not grow with the
trace length.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.core.bow_sm import simulate_design
from repro.experiments.runner import QUICK, benchmark_trace, design_spec

DESIGNS = ("baseline", "bow", "bow-wr", "rfc")
SHORT = replace(QUICK, trace_scale=0.1)

#: Far above the run-sized remainder (~200 objects), far below what a
#: per-write cycle strands on SAD at QUICK scale (5,600 to 67,000).
CEILING = 1_000


def cyclic_garbage(design: str, scale) -> int:
    """Objects the cyclic collector finds after one run with gc off."""
    trace = benchmark_trace(
        "SAD", scale, window_size=3 if design_spec(design).hinted else None
    )
    gc.collect()
    gc.disable()
    try:
        result = simulate_design(design, trace, window_size=3,
                                 memory_seed=scale.memory_seed)
        found = gc.collect()
    finally:
        gc.enable()
    assert result.counters.instructions > 0
    return found


@pytest.mark.parametrize("design", DESIGNS)
def test_run_leaves_no_per_instruction_cycles(design):
    long_run = cyclic_garbage(design, QUICK)
    short_run = cyclic_garbage(design, SHORT)
    assert long_run < CEILING, long_run
    # SAD at QUICK runs ~3.7x the instructions of the short trace; a
    # leak per instruction (or per write) would show up as growth.
    assert long_run <= short_run + 50, (long_run, short_run)
