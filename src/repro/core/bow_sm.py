"""The one-call simulation entry point for every design point.

``simulate_design`` runs a named design over a trace by resolving the
name through the declarative registry (:mod:`repro.core.designs`),
which covers the paper's configurations: the unmodified GPU, baseline
BOW (write-through), BOW-WB, BOW-WR, the half-size BOW-WR, and the RFC
comparison point.  A ``bow`` override runs a BOW organization with an
arbitrary :class:`~repro.config.BOWConfig` (capacity, eviction policy,
...) — the hook the ablation drivers use.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import BOWConfig, GPUConfig
from ..errors import SimulationError
from ..gpu.sm import SimulationResult, SMEngine
from ..kernels.trace import KernelTrace
from .boc import BOWCollectors
from .designs import get_design, known_designs


def simulate_design(
    design: str,
    trace: KernelTrace,
    window_size: int = 3,
    config: Optional[GPUConfig] = None,
    memory_seed: int = 0,
    preload: Optional[Dict[int, int]] = None,
    recorder=None,
    fast_forward: bool = True,
    bow: Optional[BOWConfig] = None,
) -> SimulationResult:
    """Run a named design (see :func:`repro.core.designs.design_names`).

    Args:
        design: a registered design name.
        trace: per-warp dynamic instruction streams.  Hinted designs
            (BOW-WR) expect hint-compiled traces (see
            :func:`repro.compiler.compile_kernel`); unhinted
            instructions default to the BOTH behaviour, which is
            correct but saves fewer writes.
        window_size: the instruction window (ignored by windowless
            designs and when ``bow`` is given).
        config: machine configuration (Table II defaults).
        memory_seed: seed of the deterministic memory-latency model.
        recorder: optional :class:`~repro.stats.trace.TraceRecorder`
            receiving cycle-level events (``None`` = no tracing work).
        bow: a :class:`BOWConfig` replacing the design's own; only BOW
            organizations (designs with a ``bow_config``) accept one.
    """
    try:
        spec = get_design(design)
    except KeyError:
        raise SimulationError(
            f"unknown design {design!r}; known: {known_designs()}"
        ) from None
    if bow is not None and spec.bow_config is None:
        raise SimulationError(
            f"design {design!r} is not a BOW organization; "
            f"it takes no bow override"
        )
    engine = SMEngine(
        trace,
        config=config,
        provider_factory=(
            (lambda eng: spec.provider(eng, window_size)) if bow is None
            else (lambda eng: BOWCollectors(eng, bow))
        ),
        memory_seed=memory_seed,
        preload=preload,
        recorder=recorder,
        fast_forward=fast_forward,
    )
    return engine.run()
