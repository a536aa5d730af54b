"""Tests for the per-warp decode records."""

from repro.config import GPUConfig
from repro.experiments.runner import RunScale, benchmark_trace
from repro.gpu.decode import DecodedOp, decode_warp


def test_one_shared_record_per_static_instruction():
    trace = benchmark_trace("SAD", RunScale(num_warps=2, trace_scale=0.25))
    config = GPUConfig()
    for warp in trace.warps:
        instructions = list(warp.instructions)
        decoded = decode_warp(warp.warp_id, instructions, config)
        assert len(decoded) == len(instructions)
        static = {id(inst) for inst in instructions}
        assert len({id(dec) for dec in decoded}) == len(static)
        assert len(static) < len(instructions)  # loops repeat instructions
        for inst, dec in zip(instructions, decoded):
            assert dec.inst is inst


def test_shared_record_matches_a_fresh_decode():
    trace = benchmark_trace("BFS", RunScale(num_warps=2, trace_scale=0.1))
    warp = trace.warps[1]
    config = GPUConfig()
    for dec in decode_warp(warp.warp_id, warp.instructions, config):
        fresh = DecodedOp(warp.warp_id, dec.inst, config)
        assert all(getattr(dec, name) == getattr(fresh, name)
                   for name in DecodedOp.__slots__)
