"""Design-space study: window size vs performance, energy and storage.

The paper picks IW=3 by balancing bypass coverage against collector
size (SS III / SS V-A).  This example sweeps window sizes 1..7 on a
register-hungry workload (SAD by default) and prints, per design point:

* read/write bypass rates (Figure 3's quantities),
* IPC improvement over the baseline (Figure 10's quantity),
* normalized RF dynamic energy (Figure 13's quantity),
* BOC storage added per SM.

Usage::

    python examples/window_design_space.py [BENCHMARK]
"""

import sys
from dataclasses import replace

from repro import EnergyModel, bow_wr_config, simulate_design
from repro.kernels.suites import get_profile
from repro.kernels.synthetic import generate_compiled_trace
from repro.stats.report import format_percent, format_table


def main() -> None:
    bench = sys.argv[1].upper() if len(sys.argv) > 1 else "SAD"
    spec = replace(get_profile(bench).spec, num_warps=16)
    spec = spec.scaled(0.25)
    base_trace = generate_compiled_trace(spec, 3)
    print(f"{bench}: {base_trace.total_instructions} dynamic instructions\n")

    base = simulate_design("baseline", base_trace)
    model = EnergyModel()

    rows = []
    for window_size in range(1, 8):
        # Recompile for each window: the hint bits depend on it.
        trace = generate_compiled_trace(spec, window_size)
        bow = bow_wr_config(window_size)
        result = simulate_design("bow-wr", trace, window_size=window_size)
        counters = result.counters
        normalized = model.normalized(counters, base.counters)
        added_kb = (bow.total_boc_bytes() - 3 * 128 * 32) / 1024
        rows.append([
            window_size,
            format_percent(counters.read_bypass_rate),
            format_percent(counters.write_bypass_rate),
            format_percent(result.ipc / base.ipc - 1.0),
            f"{normalized.total_pj:.3f}",
            f"{added_kb:.0f}KB",
        ])

    print(format_table(
        ["IW", "reads bypassed", "writes bypassed", "IPC gain",
         "norm. RF energy", "added storage"],
        rows,
        title="Window-size design space (BOW-WR, conservative sizing)",
    ))
    print("\nThe paper's pick, IW=3, is where the IPC and energy curves "
          "flatten while storage keeps doubling - the same knee should "
          "be visible above.")


if __name__ == "__main__":
    main()
