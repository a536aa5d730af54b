"""Property-based accounting: trace totals reconcile with Counters.

Over seeded random kernels (the ``test_properties`` program strategy,
extended to multiple warps), every aggregate the recorder maintains must
agree exactly with the corresponding ``Counters`` field — the recorder
is a second, independent bookkeeper of the same run, so any divergence
is a lost or double-counted event.

Two conservation laws tie the counters to the trace itself, for every
design: each source operand is either read from a bank or bypassed
(``rf_reads + bypassed_reads``), and each value written to a real
register either reaches a bank or has its write eliminated
(``rf_writes + bypassed_writes``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BOWConfig, WritebackPolicy
from repro.core.bow_sm import simulate_design
from repro.core.designs import design_names
from repro.experiments.runner import QUICK, benchmark_trace, design_spec
from repro.fuzz.generator import FuzzConfig, generate_case
from repro.gpu.reference import execute_reference
from repro.isa import Instruction
from repro.isa.opcodes import opcode_by_name
from repro.isa.registers import SINK_REGISTER, Register
from repro.kernels.trace import KernelTrace, WarpTrace
from repro.stats.trace import EventKind, TraceRecorder

_ALU_OPS = ["mov", "add", "sub", "mul", "mad", "and", "or", "xor",
            "shl", "shr", "min", "max", "sel"]
_REG = st.integers(min_value=0, max_value=11)


@st.composite
def any_instruction(draw):
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind <= 5:
        name = draw(st.sampled_from(_ALU_OPS))
        opcode = opcode_by_name(name)
        sources = tuple(
            Register(draw(_REG)) for _ in range(opcode.num_sources)
        )
        return Instruction(
            opcode=opcode,
            dest=Register(draw(_REG)),
            sources=sources,
            immediate=draw(st.integers(min_value=0, max_value=0xFFFF)),
        )
    if kind <= 7:
        return Instruction(
            opcode=opcode_by_name("ld.global"),
            dest=Register(draw(_REG)),
            sources=(Register(draw(_REG)),),
        )
    if kind == 8:
        return Instruction(
            opcode=opcode_by_name("st.global"),
            sources=(Register(draw(_REG)), Register(draw(_REG))),
        )
    return Instruction(opcode=opcode_by_name("nop"))


@st.composite
def kernel_traces(draw, max_warps=3, max_size=20):
    warps = draw(st.integers(min_value=1, max_value=max_warps))
    return KernelTrace(name="prop", warps=[
        WarpTrace(warp_id, draw(st.lists(any_instruction(), min_size=1,
                                         max_size=max_size)))
        for warp_id in range(warps)
    ])


def _reconcile(recorder: TraceRecorder, counters) -> None:
    """The full event-kind <-> counter correspondence table."""
    assert recorder.count(EventKind.ISSUE) == counters.issued
    assert recorder.count(EventKind.COMMIT) == counters.instructions
    assert (recorder.count(EventKind.ISSUE_STALL, "scoreboard")
            == counters.issue_stalls_scoreboard)
    assert (recorder.count(EventKind.ISSUE_STALL, "collector")
            == counters.issue_stalls_collector)
    assert (recorder.count(EventKind.DISPATCH_STALL, "exec_busy")
            == counters.exec_busy_stalls)
    assert (recorder.count(EventKind.BANK_CONFLICT)
            == counters.bank_conflicts)
    assert recorder.count(EventKind.BOC_HIT) == counters.bypassed_reads
    assert recorder.count(EventKind.BOC_INSERT) == counters.boc_writes
    assert (recorder.count(EventKind.BOC_EVICT, "capacity")
            == counters.boc_evictions)
    assert (recorder.count(EventKind.EVICTION_WRITEBACK)
            == counters.eviction_writebacks)
    assert (recorder.count(EventKind.WRITE_ELIMINATED)
            == counters.bypassed_writes)
    assert recorder.count(EventKind.WRITEBACK) == counters.rf_writes
    # Structural sanity on top of the exact identities.
    assert recorder.count(EventKind.ISSUE) == recorder.count(EventKind.COMMIT)
    assert (recorder.count(EventKind.BOC_EVICT, "capacity")
            >= counters.eviction_writebacks)


class TestWriteThroughReconciliation:
    @given(kernel_traces(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_totals_reconcile(self, trace, window, seed):
        recorder = TraceRecorder()
        result = simulate_design("bow", trace, window, memory_seed=seed,
                                 recorder=recorder)
        _reconcile(recorder, result.counters)
        # Write-through never eliminates writes nor evicts dirty values.
        assert recorder.count(EventKind.WRITE_ELIMINATED) == 0
        assert recorder.count(EventKind.EVICTION_WRITEBACK) == 0


class TestWriteBackReconciliation:
    @given(kernel_traces(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_totals_reconcile_under_capacity_pressure(self, trace, window,
                                                      capacity):
        # Tiny operand stores force capacity evictions and their
        # writebacks, exercising the eviction accounting.
        recorder = TraceRecorder()
        bow = BOWConfig(window_size=window,
                        writeback=WritebackPolicy.WRITE_BACK,
                        capacity_entries=capacity)
        result = simulate_design("bow-wb", trace, bow=bow, memory_seed=1,
                                 recorder=recorder)
        _reconcile(recorder, result.counters)


class TestCrossDesignInvariants:
    @given(kernel_traces(max_warps=2, max_size=15),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_identical_instructions_across_designs(self, trace, seed):
        totals = set()
        for design in ("baseline", "bow", "bow-wb"):
            recorder = TraceRecorder(kinds={EventKind.COMMIT})
            result = simulate_design(design, trace, window_size=3,
                                     memory_seed=seed, recorder=recorder)
            assert (recorder.count(EventKind.COMMIT)
                    == result.counters.instructions)
            totals.add(recorder.count(EventKind.COMMIT))
        assert len(totals) == 1


def source_operands(trace: KernelTrace) -> int:
    return sum(len(inst.sources) for warp in trace for inst in warp)


def rf_destinations(trace: KernelTrace) -> int:
    """Dynamic instructions writing a real (non-sink) register."""
    return sum(
        1 for warp in trace for inst in warp
        if inst.dest is not None and inst.dest != SINK_REGISTER
    )


def assert_conserved(counters, reads: int, writes: int) -> None:
    assert counters.rf_reads + counters.bypassed_reads == reads
    assert counters.rf_writes + counters.bypassed_writes == writes


_FUZZ = FuzzConfig(max_trace_instructions=80, max_warps=3)


class TestConservationLaws:
    """Every operand read and every register write is accounted once."""

    @given(kernel_traces(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_every_design(self, trace, window, seed):
        reads, writes = source_operands(trace), rf_destinations(trace)
        for design in design_names():
            result = simulate_design(design, trace, window_size=window,
                                     memory_seed=seed)
            assert_conserved(result.counters, reads, writes)

    @given(kernel_traces(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_write_back_under_capacity_pressure(self, trace, window,
                                                capacity):
        bow = BOWConfig(window_size=window,
                        writeback=WritebackPolicy.WRITE_BACK,
                        capacity_entries=capacity)
        result = simulate_design("bow-wb", trace, bow=bow, memory_seed=1)
        assert_conserved(result.counters, source_operands(trace),
                         rf_destinations(trace))

    @pytest.mark.parametrize("design", design_names())
    def test_quick_benchmark(self, design):
        trace = benchmark_trace(
            "MUM", QUICK,
            window_size=3 if design_spec(design).hinted else None)
        result = simulate_design(design, trace, window_size=3,
                                 memory_seed=QUICK.memory_seed)
        assert_conserved(result.counters, source_operands(trace),
                         rf_destinations(trace))

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_predicated_fuzz_kernels(self, seed):
        # A predicated-off instruction still reads its operands but
        # writes nothing, so the write law counts the destinations the
        # functional reference actually wrote.
        case = generate_case(seed, _FUZZ)
        reference = execute_reference(case.plain,
                                      memory_seed=case.memory_seed)
        reads = source_operands(case.plain)
        for design in design_names():
            trace = case.trace_for(design_spec(design).hinted)
            result = simulate_design(design, trace, window_size=case.window,
                                     memory_seed=case.memory_seed)
            assert_conserved(result.counters, reads,
                             reference.register_writes)
