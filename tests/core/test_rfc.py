"""Tests for the register-file-cache comparison design."""


from repro.core.bow_sm import simulate_design
from repro.core.rfc import RFC_ENTRIES_PER_WARP, RFCCollectors
from repro.gpu.reference import execute_reference
from repro.gpu.sm import SMEngine
from repro.isa import parse_program
from repro.kernels.trace import KernelTrace, WarpTrace


def single_warp(text):
    return KernelTrace(name="t", warps=[
        WarpTrace(warp_id=0, instructions=parse_program(text))
    ])


CHAIN = """
    mov.u32 $r1, 0x1
    add.u32 $r1, $r1, $r1
    add.u32 $r2, $r1, $r1
    st.global.u32 [$r3], $r2
"""


class TestRfcBehaviour:
    def test_paper_configuration(self):
        assert RFC_ENTRIES_PER_WARP == 6
        # 6 warp-registers x 128 B x 32 warps = 24 KB (paper SS V-A).
        assert RFC_ENTRIES_PER_WARP * 128 * 32 == 24 * 1024

    def test_hits_bypass_banks(self):
        result = simulate_design("rfc", single_warp(CHAIN))
        assert result.counters.bypassed_reads > 0
        assert result.counters.rf_reads < 6

    def test_results_correct(self):
        trace = single_warp(CHAIN)
        reference = execute_reference(trace)
        result = simulate_design("rfc", trace)
        assert result.memory_image == reference.memory

    def test_dirty_values_flushed_at_drain(self):
        trace = single_warp(CHAIN)
        reference = execute_reference(trace)
        result = simulate_design("rfc", trace)
        for key, value in reference.registers.items():
            assert result.register_image[key] == value

    def test_eviction_writes_back(self):
        # Write more registers than the cache holds.
        lines = [f"mov.u32 $r{i}, 0x{i}" for i in range(1, 10)]
        result = simulate_design("rfc", single_warp("\n".join(lines)))
        assert result.counters.boc_evictions > 0
        for i in range(1, 10):
            assert result.register_image[(0, i)] == i

    def test_consolidates_overwrites(self):
        result = simulate_design("rfc", single_warp("""
            mov.u32 $r1, 0x1
            mov.u32 $r1, 0x2
        """))
        assert result.counters.bypassed_writes == 1
        assert result.register_image[(0, 1)] == 2

    def test_rfc_caches_writes_not_read_misses(self):
        # A register only read (never written) misses every time.
        result = simulate_design("rfc", single_warp("""
            add.u32 $r2, $r1, $r9
            nop
            add.u32 $r3, $r1, $r9
        """))
        # $r1 and $r9 miss twice each: 4 physical reads.
        assert result.counters.rf_reads == 4

    def test_smaller_cache_evicts_more(self):
        lines = "\n".join(f"mov.u32 $r{i}, 0x{i}" for i in range(1, 12))

        def run(entries):
            return SMEngine(single_warp(lines), provider_factory=(
                lambda eng: RFCCollectors(
                    eng, eng.config.num_operand_collectors, entries))).run()

        small, large = run(2), run(8)
        assert small.counters.boc_evictions > large.counters.boc_evictions
