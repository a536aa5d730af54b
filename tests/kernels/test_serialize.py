"""Tests for trace serialization."""

import json

import pytest

from repro.errors import KernelError
from repro.isa import WritebackHint, parse_program
from repro.kernels.serialize import (
    FORMAT_VERSION,
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.kernels.suites import build_benchmark_trace
from repro.kernels.trace import KernelTrace, WarpTrace


def small_trace():
    program = parse_program("""
        mov.u32 $r1, 0x1
        add.u32 $r2, $r1, $r1
        set.ne.s32.s32 $p0/$o127, $r1, $r2
        @$p0 st.global.u32 [$r3], $r2
        exit
    """)
    return KernelTrace(name="small", warps=[
        WarpTrace(0, list(program)),
        WarpTrace(1, list(program)),
    ])


class TestRoundtrip:
    def test_structure_preserved(self):
        trace = small_trace()
        back = trace_from_dict(trace_to_dict(trace))
        assert back.name == "small"
        assert back.num_warps == 2
        for original, loaded in zip(trace, back):
            assert len(original) == len(loaded)
            for a, b in zip(original, loaded):
                assert a.opcode.name == b.opcode.name
                assert a.dest == b.dest
                assert a.sources == b.sources
                assert a.immediate == b.immediate
                assert a.predicate == b.predicate
                assert a.pred_dest == b.pred_dest
                assert a.hint == b.hint

    def test_hints_preserved(self):
        program = [
            inst.with_hint(WritebackHint.OC_ONLY) if inst.dest else inst
            for inst in parse_program("mov.u32 $r1, 0x1\nexit")
        ]
        trace = KernelTrace(name="h", warps=[WarpTrace(0, program)])
        back = trace_from_dict(trace_to_dict(trace))
        assert back.warps[0][0].hint is WritebackHint.OC_ONLY

    def test_shared_instructions_stay_shared(self):
        # Loop-expanded traces reference the same static instruction
        # many times; the pool keeps that sharing.
        trace = build_benchmark_trace("BFS", num_warps=2, scale=0.1)
        data = trace_to_dict(trace)
        assert len(data["pool"]) < trace.total_instructions
        back = trace_from_dict(data)
        uids = {}
        for warp_in, warp_out in zip(trace, back):
            for inst_in, inst_out in zip(warp_in, warp_out):
                uids.setdefault(inst_in.uid, set()).add(inst_out.uid)
        # Every original uid maps to exactly one reloaded uid.
        assert all(len(mapped) == 1 for mapped in uids.values())

    def test_file_roundtrip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.total_instructions == trace.total_instructions

    def test_simulations_agree_after_reload(self, tmp_path):
        from repro.core.bow_sm import simulate_design

        trace = build_benchmark_trace("NW", num_warps=3, scale=0.1)
        path = tmp_path / "nw.json"
        save_trace(trace, path)
        reloaded = load_trace(path)
        first = simulate_design("bow", trace, memory_seed=4)
        second = simulate_design("bow", reloaded, memory_seed=4)
        assert first.counters.cycles == second.counters.cycles
        assert first.memory_image == second.memory_image


class TestErrors:
    def test_version_checked(self):
        data = trace_to_dict(small_trace())
        data["version"] = FORMAT_VERSION + 1
        with pytest.raises(KernelError):
            trace_from_dict(data)

    def test_malformed_record(self):
        with pytest.raises(KernelError):
            trace_from_dict({"version": FORMAT_VERSION, "name": "x",
                             "pool": [{}], "warps": []})

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(KernelError):
            load_trace(path)

    @pytest.mark.parametrize("guard", [
        [], [0], [0, 1, 2], [{}, False], ["x", True],
    ], ids=["empty", "short", "long", "dict-id", "str-id"])
    def test_malformed_guard_is_a_kernel_error(self, guard):
        from repro.kernels.external import (
            TraceCase,
            case_from_records,
            case_to_records,
        )

        records = list(case_to_records(TraceCase(small_trace())))
        guarded = next(r for r in records if "guard" in r)
        guarded["guard"] = guard
        with pytest.raises(KernelError, match="guard"):
            case_from_records(records)

    def test_bad_pool_index(self):
        data = trace_to_dict(small_trace())
        data["warps"][0]["instructions"] = [999]
        with pytest.raises(KernelError):
            trace_from_dict(data)


class TestResultRoundTrip:
    def _run(self):
        from repro.core.bow_sm import simulate_design

        trace = build_benchmark_trace("NW", num_warps=2, scale=0.1)
        return simulate_design("bow", trace, window_size=3, memory_seed=4)

    def test_dict_round_trip_equality(self):
        from repro.kernels.serialize import result_from_dict, result_to_dict

        result = self._run()
        assert result_from_dict(result_to_dict(result)) == result

    def test_file_round_trip_equality(self, tmp_path):
        from repro.kernels.serialize import load_result, save_result

        result = self._run()
        path = tmp_path / "run.json"
        save_result(result, path)
        assert load_result(path) == result

    def test_encoding_is_canonical(self):
        import json

        from repro.kernels.serialize import result_to_dict

        result = self._run()
        assert (json.dumps(result_to_dict(result))
                == json.dumps(result_to_dict(self._run())))

    def test_version_checked(self):
        from repro.kernels.serialize import (
            RESULT_FORMAT_VERSION,
            result_from_dict,
            result_to_dict,
        )

        data = result_to_dict(self._run())
        data["version"] = RESULT_FORMAT_VERSION + 1
        with pytest.raises(KernelError):
            result_from_dict(data)

    def test_unknown_counter_rejected(self):
        from repro.kernels.serialize import result_from_dict, result_to_dict

        data = result_to_dict(self._run())
        data["counters"]["flux_capacitor"] = 1
        with pytest.raises(KernelError):
            result_from_dict(data)

    def test_not_json(self, tmp_path):
        from repro.kernels.serialize import load_result

        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(KernelError):
            load_result(path)
