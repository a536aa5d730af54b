"""Property-based tests (hypothesis) for the core invariants.

The headline property is the paper's implicit correctness claim: operand
bypassing is *semantics-preserving*.  For arbitrary generated programs,
every BOW design must produce exactly the reference executor's memory
image, and designs that flush to the RF must match its register image.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.compiler.writeback import (
    WritebackClass,
    classify_linear_writes,
    hint_distribution,
)
from repro.config import BOWConfig, WritebackPolicy
from repro.core.bow_sm import simulate_design
from repro.core.window import (
    read_bypass_counts,
    write_bypass_opportunity_counts,
    writeback_eliminated_counts,
)
from repro.gpu.reference import execute_reference
from repro.isa import (
    Instruction,
    WritebackHint,
    decode_instruction,
    encode_instruction,
)
from repro.isa.opcodes import OPCODE_TABLE, opcode_by_name
from repro.isa.registers import Predicate, Register
from repro.kernels.trace import KernelTrace, WarpTrace

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_ALU_OPS = ["mov", "add", "sub", "mul", "mad", "and", "or", "xor",
            "shl", "shr", "min", "max", "sel"]
_REG = st.integers(min_value=0, max_value=11)


@st.composite
def alu_instruction(draw):
    name = draw(st.sampled_from(_ALU_OPS))
    opcode = opcode_by_name(name)
    sources = tuple(Register(draw(_REG)) for _ in range(opcode.num_sources))
    return Instruction(
        opcode=opcode,
        dest=Register(draw(_REG)),
        sources=sources,
        immediate=draw(st.integers(min_value=0, max_value=0xFFFF)),
    )


@st.composite
def any_instruction(draw):
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind <= 5:
        return draw(alu_instruction())
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


def programs(min_size=1, max_size=40):
    return st.lists(any_instruction(), min_size=min_size, max_size=max_size)


@st.composite
def encodable_instruction(draw):
    opcode = draw(st.sampled_from(sorted(OPCODE_TABLE.values(),
                                         key=lambda o: o.name)))
    sources = tuple(
        Register(draw(st.integers(min_value=0, max_value=254)))
        for _ in range(opcode.num_sources)
    )
    dest = Register(draw(st.integers(0, 255))) if opcode.has_dest else None
    predicate = None
    if draw(st.booleans()):
        predicate = Predicate(draw(st.integers(0, 7)), draw(st.booleans()))
    immediate = draw(st.one_of(st.none(), st.integers(0, 0xFFFF)))
    hint = draw(st.sampled_from(list(WritebackHint)))
    return Instruction(opcode=opcode, dest=dest, sources=sources,
                       immediate=immediate, predicate=predicate, hint=hint)


# ---------------------------------------------------------------------------
# encoder properties
# ---------------------------------------------------------------------------

class TestEncoderProperties:
    @given(encodable_instruction())
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_roundtrip(self, inst):
        back = decode_instruction(encode_instruction(inst))
        assert back.opcode.name == inst.opcode.name
        assert back.sources == inst.sources
        assert back.dest == inst.dest
        assert back.predicate == inst.predicate
        assert back.hint is inst.hint

    @given(encodable_instruction())
    @settings(max_examples=100, deadline=None)
    def test_word_is_64_bits(self, inst):
        assert 0 <= encode_instruction(inst) < (1 << 64)


# ---------------------------------------------------------------------------
# window-analysis properties
# ---------------------------------------------------------------------------

class TestWindowProperties:
    @given(programs(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_read_bypass_bounded(self, program, window):
        bypassed, total = read_bypass_counts(program, window)
        assert 0 <= bypassed <= total

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_read_bypass_monotone_in_window(self, program):
        counts = [read_bypass_counts(program, iw)[0] for iw in (1, 2, 4, 8)]
        assert counts == sorted(counts)

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_write_opportunity_monotone_in_window(self, program):
        counts = [
            write_bypass_opportunity_counts(program, iw)[0]
            for iw in (1, 2, 4, 8)
        ]
        assert counts == sorted(counts)

    @given(programs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_writeback_policy_never_beats_oracle(self, program, window):
        # The hardware-only write-back rule is a subset of the compiler
        # oracle's opportunity.
        wb, wb_total = writeback_eliminated_counts(program, window)
        oracle, oracle_total = write_bypass_opportunity_counts(program, window)
        assert wb_total == oracle_total
        assert wb <= oracle

    @given(programs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_classification_partitions_writes(self, program, window):
        items = classify_linear_writes(program, window)
        writes = sum(
            1 for inst in program
            if inst.dest is not None and inst.dest.id != 255
        )
        assert len(items) == writes
        distribution = hint_distribution(items)
        if items:
            assert math.isclose(sum(distribution.values()), 1.0)

    @given(programs(min_size=2), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_needs_rf_consistent_with_class(self, program, window):
        for item in classify_linear_writes(program, window):
            if item.writeback in (WritebackClass.RF_ONLY, WritebackClass.BOTH):
                assert item.needs_rf
            else:
                assert not item.needs_rf


# ---------------------------------------------------------------------------
# semantics-preservation properties (the big one)
# ---------------------------------------------------------------------------

def _trace(program):
    return KernelTrace(name="prop", warps=[WarpTrace(0, list(program))])


class TestBypassingPreservesSemantics:
    @given(programs(max_size=25), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_write_through_matches_reference(self, program, window, seed):
        trace = _trace(program)
        reference = execute_reference(trace, memory_seed=seed)
        result = simulate_design("bow", trace, window, memory_seed=seed)
        assert result.memory_image == reference.memory
        for key, value in reference.registers.items():
            assert result.register_image[key] == value

    @given(programs(max_size=25), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_write_back_matches_reference(self, program, window, capacity):
        # Including tiny capacities that force eviction writebacks.
        trace = _trace(program)
        reference = execute_reference(trace, memory_seed=1)
        bow = BOWConfig(window_size=window,
                        writeback=WritebackPolicy.WRITE_BACK,
                        capacity_entries=capacity)
        result = simulate_design("bow-wb", trace, bow=bow, memory_seed=1)
        assert result.memory_image == reference.memory
        for key, value in reference.registers.items():
            assert result.register_image[key] == value

    @given(programs(max_size=25), st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_compiler_hints_match_reference_memory(self, program, window):
        # Hint the linear program exactly as the compiler would, then
        # check that memory (the observable output) is preserved.
        items = classify_linear_writes(program, window)
        hints = {item.index: item.writeback.hint for item in items}
        hinted = [
            inst.with_hint(hints[i]) if i in hints else inst
            for i, inst in enumerate(program)
        ]
        trace = _trace(hinted)
        reference = execute_reference(trace, memory_seed=2)
        result = simulate_design("bow-wr", trace, window, memory_seed=2)
        assert result.memory_image == reference.memory

    @given(programs(max_size=20), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_baseline_matches_reference(self, program, seed):
        from repro.gpu.sm import simulate_baseline

        trace = _trace(program)
        reference = execute_reference(trace, memory_seed=seed)
        result = simulate_baseline(trace, memory_seed=seed)
        assert result.memory_image == reference.memory
        for key, value in reference.registers.items():
            assert result.register_image[key] == value


class TestCounterInvariants:
    @given(programs(max_size=25), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_reads_partition(self, program, window):
        trace = _trace(program)
        counters = simulate_design("bow-wb", trace, window).counters
        assert counters.total_reads == trace.total_reads

    @given(programs(max_size=25), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_writes_partition(self, program, window):
        trace = _trace(program)
        counters = simulate_design("bow-wb", trace, window).counters
        non_sink_writes = sum(
            1 for inst in program
            if inst.dest is not None and inst.dest.id != 255
        )
        assert counters.total_writes == non_sink_writes
