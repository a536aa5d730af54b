"""BOW: the paper's primary contribution.

* :mod:`repro.core.window` — sliding/extended instruction-window
  semantics and the trace-level bypass-opportunity analyses behind the
  motivation figures (Figure 3) and Table I.
* :mod:`repro.core.boc` — the Bypassing Operand Collector: a per-warp
  collector with forwarding logic, FIFO capacity management, and the
  three writeback policies (write-through BOW, write-back, and
  compiler-guided BOW-WR).
* :mod:`repro.core.designs` — the declarative design registry; every
  runnable design point is one :class:`~repro.core.designs.DesignSpec`.
* :mod:`repro.core.bow_sm` — ``simulate_design``, the one-call entry
  point running any registered design on the baseline SM engine.
* :mod:`repro.core.rfc` — the register-file-cache comparison point.
* :mod:`repro.core.occupancy` — collector occupancy studies (Figures 8/9).
"""

from .boc import BOWCollectors
from .bow_sm import simulate_design
from .designs import (
    DesignSpec,
    design_names,
    design_specs,
    get_design,
    known_designs,
    register_design,
    temporary_design,
    unregister_design,
)
from .occupancy import (
    OccupancySample,
    boc_occupancy_histogram,
    source_operand_histogram,
)
from .rfc import RFC_ENTRIES_PER_WARP, RFCCollectors
from .window import (
    read_bypass_counts,
    table1_write_counts,
    write_bypass_opportunity_counts,
    writeback_eliminated_counts,
)

__all__ = [
    "read_bypass_counts",
    "write_bypass_opportunity_counts",
    "writeback_eliminated_counts",
    "table1_write_counts",
    "BOWCollectors",
    "DesignSpec",
    "design_names",
    "design_specs",
    "get_design",
    "known_designs",
    "register_design",
    "temporary_design",
    "unregister_design",
    "simulate_design",
    "RFCCollectors",
    "RFC_ENTRIES_PER_WARP",
    "source_operand_histogram",
    "boc_occupancy_histogram",
    "OccupancySample",
]
