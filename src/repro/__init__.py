"""BOW: Breathing Operand Windows to Exploit Bypassing in GPUs.

A from-scratch reproduction of the MICRO 2020 paper: a cycle-level GPU
SM model with banked register file and operand collectors, the BOW /
BOW-WB / BOW-WR bypassing designs, the compiler liveness substrate that
drives BOW-WR's writeback hints, calibrated synthetic versions of the
paper's 15-benchmark suite, and an energy/area model — plus one
experiment driver per table and figure of the paper's evaluation.

Quickstart::

    from repro import build_benchmark_trace, simulate_design

    trace = build_benchmark_trace("BTREE", num_warps=8)
    base = simulate_design("baseline", trace)
    bow = simulate_design("bow-wr", trace, window_size=3)
    print(bow.ipc / base.ipc - 1.0)  # IPC improvement
"""

from .compiler import compile_kernel
from .config import (
    BOWConfig,
    GPUConfig,
    SchedulerPolicy,
    WritebackPolicy,
    baseline_config,
    bow_config,
    bow_wb_config,
    bow_wr_config,
)
from .core import simulate_design
from .energy import EnergyModel
from .errors import (
    CompilerError,
    ConfigError,
    DeadlockError,
    EncodingError,
    ExperimentError,
    IsaError,
    KernelError,
    ParseError,
    ReproError,
    SimulationError,
)
from .gpu import SimulationResult, simulate_baseline
from .isa import Instruction, Register, WritebackHint, parse_program
from .kernels import (
    BENCHMARKS,
    BenchmarkProfile,
    KernelTrace,
    WarpTrace,
    benchmark_names,
    btree_snippet,
    build_benchmark_trace,
    get_profile,
)
from .stats import Counters, RunMetrics

__version__ = "1.0.0"

__all__ = [
    "BOWConfig",
    "GPUConfig",
    "SchedulerPolicy",
    "WritebackPolicy",
    "baseline_config",
    "bow_config",
    "bow_wb_config",
    "bow_wr_config",
    "ReproError",
    "ConfigError",
    "IsaError",
    "ParseError",
    "EncodingError",
    "KernelError",
    "CompilerError",
    "SimulationError",
    "DeadlockError",
    "ExperimentError",
    "Instruction",
    "Register",
    "WritebackHint",
    "parse_program",
    "BenchmarkProfile",
    "BENCHMARKS",
    "KernelTrace",
    "WarpTrace",
    "benchmark_names",
    "btree_snippet",
    "build_benchmark_trace",
    "get_profile",
    "compile_kernel",
    "simulate_design",
    "simulate_baseline",
    "SimulationResult",
    "EnergyModel",
    "Counters",
    "RunMetrics",
    "__version__",
]
