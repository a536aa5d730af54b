"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_benchmarks_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BTREE" in out
        assert "fig10" in out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "BFS", "--warps", "4", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "reads bypassed" in out

    def test_run_reports_fast_forwarded_cycles(self, capsys):
        code = main(["run", "BFS", "--warps", "4", "--scale", "0.1"])
        assert code == 0
        assert "fast-forwarded" in capsys.readouterr().out

    def test_no_fast_forward_flag(self, capsys):
        code = main(["run", "BFS", "--warps", "4", "--scale", "0.1",
                     "--no-fast-forward"])
        assert code == 0
        out = capsys.readouterr().out
        # The reference path ticks every cycle, so nothing is jumped.
        assert "fast-forwarded    0 cycles" in out

    def test_no_fast_forward_matches_default(self, capsys):
        assert main(["run", "BFS", "--warps", "4", "--scale", "0.1"]) == 0
        default = capsys.readouterr().out
        assert main(["run", "BFS", "--warps", "4", "--scale", "0.1",
                     "--no-fast-forward"]) == 0
        reference = capsys.readouterr().out
        # Identical report except the fast-forwarded line itself.
        scrub = lambda text: [line for line in text.splitlines()
                              if "fast-forwarded" not in line]
        assert scrub(default) == scrub(reference)

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        code = main(["run", "DOOM", "--warps", "2", "--scale", "0.1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_design_fails_cleanly(self, capsys):
        code = main(["run", "BFS", "--design", "magic",
                     "--warps", "2", "--scale", "0.1"])
        assert code == 1


class TestRunDevice:
    def test_run_sms_prints_device_ipc(self, capsys):
        code = main(["run", "BFS", "--warps", "8", "--scale", "0.1",
                     "--sms", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 SMs" in out
        assert "device IPC" in out

    def test_run_sms_jobs_accepted(self, capsys):
        code = main(["run", "BFS", "--warps", "8", "--scale", "0.1",
                     "--sms", "2", "--jobs", "2"])
        assert code == 0
        assert "device IPC" in capsys.readouterr().out

    def test_run_single_sm_unchanged(self, capsys):
        code = main(["run", "BFS", "--warps", "4", "--scale", "0.1",
                     "--sms", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "device IPC" not in out
        assert "IPC" in out

    def test_run_zero_sms_fails_cleanly(self, capsys):
        code = main(["run", "BFS", "--warps", "4", "--scale", "0.1",
                     "--sms", "0"])
        assert code == 1
        assert "num_sms" in capsys.readouterr().err

    def test_run_negative_sms_fails_cleanly(self, capsys):
        code = main(["run", "BFS", "--warps", "4", "--scale", "0.1",
                     "--sms", "-2"])
        assert code == 1
        assert "num_sms" in capsys.readouterr().err

    def test_list_designs_show_sms_default(self, capsys):
        assert main(["list", "--designs"]) == 0
        out = capsys.readouterr().out
        assert "sms=1" in out
        assert "--sms" in out  # the discoverability hint


class TestRunSeed:
    def test_seed_flag_accepted(self, capsys):
        code = main(["run", "BFS", "--warps", "2", "--scale", "0.1",
                     "--seed", "13"])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_seed_threaded_into_scale(self, monkeypatch, capsys):
        # Regression: `run` used to drop the memory seed on the floor and
        # always simulate with the RunScale default.
        import repro.experiments.runner as runner

        seeds = []
        real = runner.run_design

        def spy(benchmark, design, window_size=3, scale=None):
            seeds.append(scale.memory_seed)
            return real(benchmark, design, window_size=window_size,
                        scale=scale)

        monkeypatch.setattr(runner, "run_design", spy)
        assert main(["run", "BFS", "--warps", "2", "--scale", "0.1",
                     "--seed", "13"]) == 0
        assert seeds and all(seed == 13 for seed in seeds)


class TestSweep:
    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        from repro.experiments.runner import clear_cache, set_cache

        clear_cache()
        previous = set_cache(None)
        yield
        set_cache(previous)
        clear_cache()

    def test_cold_then_warm(self, tmp_path, capsys):
        from repro.experiments.runner import clear_cache

        argv = ["sweep", "BFS", "NW", "--designs", "baseline,bow",
                "--warps", "2", "--scale", "0.1",
                "--cache-dir", str(tmp_path / "runs")]
        assert main(argv) == 0
        assert "4 simulated" in capsys.readouterr().out
        clear_cache()  # a second process would start with an empty memo
        assert main(argv + ["--expect-warm"]) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out
        assert "4 from disk cache" in out

    def test_expect_warm_fails_on_cold_cache(self, tmp_path, capsys):
        code = main(["sweep", "BFS", "--designs", "baseline",
                     "--warps", "2", "--scale", "0.1",
                     "--cache-dir", str(tmp_path / "runs"),
                     "--expect-warm"])
        assert code == 1
        assert "expected a warm cache" in capsys.readouterr().err

    def test_no_cache_leaves_disk_untouched(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
        assert main(["sweep", "BFS", "--designs", "baseline",
                     "--warps", "2", "--scale", "0.1", "--no-cache"]) == 0
        assert not (tmp_path / "unused").exists()

    def test_unknown_design_fails_cleanly(self, capsys):
        code = main(["sweep", "BFS", "--designs", "magic",
                     "--warps", "2", "--scale", "0.1", "--no-cache"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_windows_fails_cleanly(self, capsys):
        code = main(["sweep", "BFS", "--windows", "abc",
                     "--warps", "2", "--scale", "0.1", "--no-cache"])
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep_sms_reports_device_points(self, capsys):
        code = main(["sweep", "BFS", "--designs", "bow",
                     "--warps", "8", "--scale", "0.1", "--no-cache",
                     "--sms", "2"])
        assert code == 0
        assert "2 SMs" in capsys.readouterr().out

    def test_sweep_zero_sms_fails_cleanly(self, capsys):
        code = main(["sweep", "BFS", "--designs", "bow",
                     "--warps", "8", "--scale", "0.1", "--no-cache",
                     "--sms", "0"])
        assert code == 1
        assert "num_sms" in capsys.readouterr().err

    def test_device_and_single_sm_cached_separately(self, tmp_path, capsys):
        argv = ["sweep", "BFS", "--designs", "bow", "--warps", "8",
                "--scale", "0.1", "--cache-dir", str(tmp_path / "runs")]
        assert main(argv + ["--sms", "2"]) == 0
        assert "1 simulated" in capsys.readouterr().out
        # The single-SM point is a different key: it must simulate too.
        assert main(argv) == 0
        assert "1 simulated" in capsys.readouterr().out


class TestSweepTelemetry:
    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        from repro.experiments.runner import clear_cache, set_cache

        clear_cache()
        previous = set_cache(None)
        yield
        set_cache(previous)
        clear_cache()

    def test_telemetry_written_and_valid(self, tmp_path, capsys):
        import json

        from repro.observe.schema import validate_telemetry_record

        path = tmp_path / "telemetry.jsonl"
        assert main(["sweep", "BFS", "--designs", "baseline,bow",
                     "--warps", "2", "--scale", "0.1", "--no-cache",
                     "--telemetry", str(path)]) == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        for record in records:
            validate_telemetry_record(record)
        assert [r["type"] for r in records] == [
            "start", "point", "point", "summary",
        ]
        assert "telemetry: 4 record(s)" in capsys.readouterr().err


class TestTrace:
    def test_trace_prints_rollup(self, capsys):
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "events recorded" in out
        assert "issue" in out
        assert "boc_hit" in out  # bow is the default design

    def test_trace_exports_chrome_json(self, tmp_path, capsys):
        import json

        from repro.observe.schema import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1",
                     "--out", str(path)]) == 0
        validate_chrome_trace(json.loads(path.read_text()))
        assert "wrote" in capsys.readouterr().out

    def test_trace_exports_jsonl_and_csv(self, tmp_path):
        import json

        from repro.observe.schema import validate_event

        jsonl = tmp_path / "events.jsonl"
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1",
                     "--format", "jsonl", "--out", str(jsonl)]) == 0
        for line in jsonl.read_text().splitlines():
            validate_event(json.loads(line))
        csv_path = tmp_path / "events.csv"
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1",
                     "--format", "csv", "--out", str(csv_path)]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("cycle,kind,warp")

    def test_trace_kinds_filter(self, capsys):
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1",
                     "--kinds", "commit,issue"]) == 0
        out = capsys.readouterr().out
        assert "commit" in out
        assert "boc_hit" not in out

    def test_trace_bad_kinds_rejected(self, capsys):
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1",
                     "--kinds", "teleport"]) == 2
        assert "teleport" not in capsys.readouterr().out

    def test_trace_bad_capacity_rejected(self, capsys):
        assert main(["trace", "BFS", "--warps", "2", "--scale", "0.1",
                     "--capacity", "0"]) == 2
        assert "--capacity" in capsys.readouterr().err

    def test_trace_unknown_design_fails_cleanly(self, capsys):
        assert main(["trace", "BFS", "--design", "magic",
                     "--warps", "2", "--scale", "0.1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_trace_hinted_design_runs(self, capsys):
        assert main(["trace", "BFS", "--design", "bow-wr",
                     "--warps", "2", "--scale", "0.1"]) == 0
        assert "write_eliminated" in capsys.readouterr().out


class TestSweepResilience:
    ARGV = ["sweep", "BFS", "NW", "--designs", "baseline,bow",
            "--warps", "2", "--scale", "0.1"]

    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        from repro.experiments.runner import clear_cache, set_cache

        clear_cache()
        previous = set_cache(None)
        yield
        set_cache(previous)
        clear_cache()

    @pytest.fixture
    def faulted(self, tmp_path):
        """A permanent injected failure on one of the four grid points."""
        from repro.testing.faults import FaultSpec, injected_faults

        with injected_faults(7, tmp_path / "faults",
                             [FaultSpec("raise", times=0,
                                        match="BFS/bow IW3")]):
            yield

    def test_strict_sweep_aborts_naming_the_point(self, faulted, capsys):
        code = main(self.ARGV + ["--no-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert "BFS/bow IW3" in err

    def test_keep_going_prints_partial_grid_and_exits_3(self, faulted,
                                                        capsys):
        code = main(self.ARGV + ["--no-cache", "--keep-going"])
        assert code == 3
        captured = capsys.readouterr()
        assert "3 simulated" in captured.out
        assert "1 FAILED" in captured.out
        assert "1 grid point(s) failed" in captured.err

    def test_keep_going_then_heal(self, faulted, tmp_path, capsys):
        from repro.experiments.runner import clear_cache
        from repro.testing.faults import uninstall

        cached = self.ARGV + ["--cache-dir", str(tmp_path / "runs")]
        assert main(cached + ["--keep-going"]) == 3
        uninstall()  # the fault "goes away"
        clear_cache()
        assert main(cached + ["--expect-sims", "1"]) == 0
        clear_cache()
        assert main(cached + ["--expect-warm"]) == 0

    def test_expect_sims_mismatch_fails(self, tmp_path, capsys):
        code = main(self.ARGV + ["--cache-dir", str(tmp_path / "runs"),
                                 "--expect-sims", "0"])
        assert code == 1
        assert "expected exactly 0 simulated" in capsys.readouterr().err

    def test_retries_flag_bounds_attempts(self, tmp_path, capsys):
        from repro.testing.faults import FaultSpec, injected_faults

        with injected_faults(7, tmp_path / "faults",
                             [FaultSpec("oserror", times=0,
                                        match="BFS/bow IW3")]):
            code = main(self.ARGV + ["--no-cache", "--keep-going",
                                     "--retries", "2"])
        assert code == 3
        assert "2 attempt(s)" in capsys.readouterr().err

    def test_bad_retries_rejected(self, capsys):
        code = main(self.ARGV + ["--no-cache", "--retries", "0"])
        assert code == 2
        assert "--retries" in capsys.readouterr().err

    def test_timeout_flag_is_threaded_through(self, capsys, monkeypatch):
        import repro.experiments.grid as grid_module

        policies = []
        real = grid_module.run_grid

        def spy(*args, **kwargs):
            policies.append(kwargs.get("retry"))
            return real(*args, **kwargs)

        monkeypatch.setattr(grid_module, "run_grid", spy)
        assert main(self.ARGV + ["--no-cache", "--timeout", "60"]) == 0
        assert policies and policies[0].timeout == 60.0

    def test_infinite_timeout_is_the_same_typed_error_as_zero(self, capsys):
        errors = []
        for value in ("0", "inf"):
            code = main(self.ARGV + ["--no-cache", "--jobs", "2",
                                     "--timeout", value])
            errors.append((code, capsys.readouterr().err))
        for code, err in errors:
            assert code == 1
            assert err.startswith("error: ") and "timeout" in err
            assert "Traceback" not in err


class TestExperiment:
    def test_static_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_artifact(self, capsys):
        assert main(["experiment", "fig99"]) == 1


class TestAblation:
    def test_rf_size_ablation(self, capsys):
        assert main(["ablation", "rf-size"]) == 0
        out = capsys.readouterr().out
        assert "transient" in out

    def test_unknown_ablation_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["ablation", "quantum"])


class TestCompile:
    def test_compile_file(self, tmp_path, capsys):
        source = tmp_path / "kernel.asm"
        source.write_text(
            "mov.u32 $r1, 0x1\n"
            "add.u32 $r2, $r1, $r1\n"
            "st.global.u32 [$r3], $r2\n"
        )
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert "oc-only" in out

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.asm"]) == 1

    def test_parse_error_reported(self, tmp_path, capsys):
        source = tmp_path / "bad.asm"
        source.write_text("frobnicate $r1\n")
        assert main(["compile", str(source)]) == 1
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepExitCodePrecedence:
    """All diagnostics print, then the highest-priority code wins:
    failed grid points (3) beat failed expectations (1)."""

    ARGV = ["sweep", "BFS", "NW", "--designs", "baseline,bow",
            "--warps", "2", "--scale", "0.1"]

    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        from repro.experiments.runner import clear_cache, set_cache

        clear_cache()
        previous = set_cache(None)
        yield
        set_cache(previous)
        clear_cache()

    @pytest.fixture
    def faulted(self, tmp_path):
        from repro.testing.faults import FaultSpec, injected_faults

        with injected_faults(7, tmp_path / "faults",
                             [FaultSpec("raise", times=0,
                                        match="BFS/bow IW3")]):
            yield

    def test_failures_beat_expect_warm(self, faulted, capsys):
        code = main(self.ARGV + ["--no-cache", "--keep-going",
                                 "--expect-warm"])
        assert code == 3
        err = capsys.readouterr().err
        # Both diagnostics are reported even though only one code wins.
        assert "expected a warm cache" in err
        assert "grid point(s) failed" in err

    def test_failures_beat_expect_sims(self, faulted, capsys):
        code = main(self.ARGV + ["--no-cache", "--keep-going",
                                 "--expect-sims", "4"])
        assert code == 3
        err = capsys.readouterr().err
        assert "expected exactly 4 simulated" in err
        assert "grid point(s) failed" in err

    def test_expectations_alone_still_exit_1(self, capsys):
        code = main(self.ARGV + ["--no-cache", "--expect-warm",
                                 "--expect-sims", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "expected a warm cache" in err
        assert "expected exactly 0 simulated" in err


class TestServeLoadgenCLI:
    @pytest.fixture(autouse=True)
    def isolated_caches(self):
        from repro.experiments.runner import clear_cache, set_cache

        clear_cache()
        previous = set_cache(None)
        yield
        set_cache(previous)
        clear_cache()

    @pytest.fixture
    def running_server(self):
        """An in-process sweep server on a background thread."""
        import asyncio
        import threading

        from repro.service import SweepServer, SweepService

        holder = {}
        ready = threading.Event()

        def run():
            async def body():
                server = SweepServer(SweepService(cache=None))
                await server.start()
                holder["port"] = server.port
                ready.set()
                try:
                    await server.serve_until_shutdown()
                finally:
                    await server.close()

            asyncio.run(body())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10.0)
        yield holder["port"]
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_loadgen_round_trip_with_expect_dedup(self, running_server,
                                                  tmp_path, capsys):
        import json

        bench = tmp_path / "BENCH_service.json"
        code = main(["loadgen", "--port", str(running_server),
                     "--clients", "4", "--benchmarks", "BFS",
                     "--designs", "baseline,bow", "--warps", "2",
                     "--scale", "0.1", "--expect-dedup", "--shutdown",
                     "--bench-out", str(bench)])
        assert code == 0
        captured = capsys.readouterr()
        assert "single-flight OK" in captured.out
        assert str(bench) in captured.err
        report = json.loads(bench.read_text(encoding="utf-8"))
        assert report["single_flight"]["dedup_ok"]
        assert report["unique_points"] == 2

    def test_loadgen_bad_clients_exits_2(self, capsys):
        code = main(["loadgen", "--clients", "0"])
        assert code == 2
        assert "--clients" in capsys.readouterr().err

    def test_loadgen_bad_points_exits_2(self, capsys):
        code = main(["loadgen", "--points", "0"])
        assert code == 2
        assert "--points" in capsys.readouterr().err

    def test_loadgen_bad_windows_exits_2(self, capsys):
        code = main(["loadgen", "--windows", "abc"])
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_loadgen_unreachable_server_is_a_clean_error(self, capsys,
                                                         monkeypatch):
        from repro.service import client as client_module

        monkeypatch.setattr(client_module, "CONNECT_RETRY_SECONDS", 0.2)
        code = main(["loadgen", "--port", "1", "--clients", "1"])
        assert code == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_serve_bad_retries_exits_2(self, capsys):
        code = main(["serve", "--retries", "0"])
        assert code == 2
        assert "--retries" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--batch-window", "inf"), ("--batch-window", "nan"),
        ("--drain-timeout", "inf"), ("--drain-timeout", "nan")])
    def test_serve_non_finite_timing_is_an_error(self, capsys, flag, value):
        code = main(["serve", "--no-cache", "--port", "0", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "listening" not in err
