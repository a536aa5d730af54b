"""Tests for the Bypassing Operand Collector and its writeback policies.

Exercised through small hand-written traces run on the full engine: the
BOC's observable contract is RF traffic, forwarding counts, and final
architectural state.
"""

import pytest

from repro.config import BOWConfig, WritebackPolicy, baseline_config
from repro.core.boc import BOWCollectors
from repro.core.bow_sm import simulate_design
from repro.errors import SimulationError
from repro.gpu.sm import SMEngine
from repro.isa import WritebackHint, parse_program
from repro.kernels.trace import KernelTrace, WarpTrace


def single_warp(text):
    return KernelTrace(name="t", warps=[
        WarpTrace(warp_id=0, instructions=parse_program(text))
    ])


def run(text, policy, window_size=3, capacity=None):
    bow = BOWConfig(window_size=window_size, writeback=policy,
                    capacity_entries=capacity)
    return simulate_design("bow", single_warp(text), bow=bow)


CHAIN = """
    mov.u32 $r1, 0x1
    add.u32 $r1, $r1, $r1
    add.u32 $r1, $r1, $r1
    st.global.u32 [$r2], $r1
"""


class TestForwarding:
    def test_chain_reads_forwarded(self):
        result = run(CHAIN, WritebackPolicy.WRITE_THROUGH)
        counters = result.counters
        # $r1 reads at instructions 1, 2 (x2 each... add reads it twice)
        # and the store's value read all hit the BOC.
        assert counters.bypassed_reads == 5
        assert counters.rf_reads == 1  # only $r2 (store address)

    def test_forwarded_values_correct(self):
        result = run(CHAIN, WritebackPolicy.WRITE_THROUGH)
        assert result.register_image[(0, 1)] == 4
        stored = list(result.memory_image.values())
        assert stored == [4]

    def test_no_forwarding_beyond_window(self):
        text = """
            mov.u32 $r1, 0x1
            nop
            nop
            nop
            add.u32 $r2, $r1, $r1
        """
        result = run(text, WritebackPolicy.WRITE_THROUGH, window_size=3)
        # The value itself comes from the RF (one physical read); only
        # the same-instruction duplicate slot shares the fetch.
        assert result.counters.rf_reads == 1
        assert result.counters.bypassed_reads == 1
        assert result.register_image[(0, 2)] == 2  # still correct, via RF

    def test_read_miss_deposits_for_reuse(self):
        text = """
            add.u32 $r2, $r1, $r1
            add.u32 $r3, $r1, $r2
        """
        result = run(text, WritebackPolicy.WRITE_THROUGH)
        # First $r1 read misses (RF), second read of $r1 forwards.
        counters = result.counters
        assert counters.rf_reads == 1
        assert counters.bypassed_reads == 3


class TestWriteThrough:
    def test_every_write_reaches_rf(self):
        counters = run(CHAIN, WritebackPolicy.WRITE_THROUGH).counters
        assert counters.rf_writes == 3
        assert counters.bypassed_writes == 0

    def test_boc_also_written(self):
        counters = run(CHAIN, WritebackPolicy.WRITE_THROUGH).counters
        assert counters.boc_writes >= 3


class TestWriteBack:
    def test_consolidates_overwrites(self):
        counters = run(CHAIN, WritebackPolicy.WRITE_BACK).counters
        # $r1 written 3 times; the first two are overwritten in-window.
        assert counters.bypassed_writes == 2
        assert counters.rf_writes == 1

    def test_final_value_flushed(self):
        result = run(CHAIN, WritebackPolicy.WRITE_BACK)
        assert result.register_image[(0, 1)] == 4

    def test_lapsed_value_written_back(self):
        text = """
            mov.u32 $r1, 0x7
            nop
            nop
            nop
            add.u32 $r2, $r1, $r1
        """
        result = run(text, WritebackPolicy.WRITE_BACK)
        counters = result.counters
        assert counters.rf_writes == 2  # both values reach the RF
        assert result.register_image[(0, 2)] == 14


class TestCompilerHints:
    def _hinted(self, text, hints):
        instructions = parse_program(text)
        hinted = []
        for inst, hint in zip(instructions, hints):
            hinted.append(inst.with_hint(hint) if hint else inst)
        return KernelTrace(name="t", warps=[WarpTrace(0, hinted)])

    def test_oc_only_write_never_reaches_rf(self):
        trace = self._hinted("""
            mov.u32 $r1, 0x3
            add.u32 $r2, $r1, $r1
            st.global.u32 [$r4], $r2
        """, [WritebackHint.OC_ONLY, WritebackHint.OC_ONLY, None])
        result = simulate_design("bow-wr", trace)
        assert result.counters.rf_writes == 0
        assert result.counters.bypassed_writes == 2
        assert list(result.memory_image.values()) == [6]

    def test_rf_only_write_skips_boc(self):
        trace = self._hinted("""
            mov.u32 $r1, 0x3
            st.global.u32 [$r4], $r5
        """, [WritebackHint.RF_ONLY, None])
        result = simulate_design("bow-wr", trace)
        counters = result.counters
        assert counters.rf_writes == 1
        # The only BOC fills are the store's two read misses; the
        # RF-only destination was never deposited.
        assert counters.boc_writes == 2

    def test_rf_only_value_still_readable(self):
        # Dynamically a read can land inside the window even though the
        # compiler proved it does not (cross-block conservatism): the
        # read falls back to the RF and stays correct.
        trace = self._hinted("""
            mov.u32 $r1, 0x9
            add.u32 $r2, $r1, $r1
        """, [WritebackHint.RF_ONLY, None])
        result = simulate_design("bow-wr", trace)
        assert result.register_image[(0, 2)] == 18

    def test_both_written_on_slide_out(self):
        # $r1 is forwarded to the add at distance 1 AND read again far
        # beyond the window: the BOTH hint must land it in the RF.
        trace = self._hinted("""
            mov.u32 $r1, 0x2
            add.u32 $r2, $r1, $r1
            nop
            nop
            nop
            add.u32 $r3, $r1, $r1
            st.global.u32 [$r9], $r3
        """, [WritebackHint.BOTH, WritebackHint.OC_ONLY, None, None, None,
              WritebackHint.OC_ONLY, None])
        result = simulate_design("bow-wr", trace)
        assert list(result.memory_image.values()) == [4]  # $r1 came from RF
        assert result.counters.rf_writes == 1  # only $r1's BOTH write


class TestCapacity:
    def test_eviction_under_pressure(self):
        # Capacity 2 with many distinct registers in the window forces
        # FIFO evictions.
        text = """
            mov.u32 $r1, 0x1
            mov.u32 $r2, 0x2
            mov.u32 $r3, 0x3
            add.u32 $r4, $r1, $r2
        """
        result = run(text, WritebackPolicy.WRITE_BACK, capacity=2)
        assert result.counters.boc_evictions > 0
        assert result.register_image[(0, 4)] == 3  # still correct

    def test_dirty_eviction_writes_back(self):
        text = """
            mov.u32 $r1, 0x1
            mov.u32 $r2, 0x2
            mov.u32 $r3, 0x3
        """
        result = run(text, WritebackPolicy.WRITE_BACK, capacity=1)
        counters = result.counters
        assert counters.eviction_writebacks > 0
        # All three values reach the RF despite the tiny buffer.
        assert result.register_image[(0, 1)] == 1
        assert result.register_image[(0, 2)] == 2
        assert result.register_image[(0, 3)] == 3

    def test_full_capacity_no_evictions(self):
        counters = run(CHAIN, WritebackPolicy.WRITE_BACK).counters
        assert counters.boc_evictions == 0


class TestOccupancySampling:
    def test_histogram_collected(self):
        bow = BOWConfig(writeback=WritebackPolicy.WRITE_BACK)
        holder = {}

        def factory(engine):
            provider = BOWCollectors(engine, bow)
            holder["p"] = provider
            return provider

        engine = SMEngine(single_warp(CHAIN), provider_factory=factory)
        engine.run()
        histogram = holder["p"].occupancy_histogram
        assert sum(histogram.values()) > 0
        assert max(histogram) <= bow.effective_capacity


class TestGuards:
    def test_disabled_config_rejected(self):
        engine = SMEngine(single_warp("nop"))
        with pytest.raises(SimulationError):
            BOWCollectors(engine, baseline_config())
