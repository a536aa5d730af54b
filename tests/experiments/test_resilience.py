"""Tests for fault-tolerant sweep execution.

Unit coverage of :mod:`repro.experiments.resilience` (policy, taxonomy,
failure records) plus grid-level behaviour under the deterministic
fault injector: crashed workers, transient I/O errors, hangs with
per-point timeouts, deadlocks, and strict-vs-keep-going semantics.
"""

import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    DeadlockError,
    ExperimentError,
    SweepPointError,
    SweepTimeoutError,
)
from repro.experiments.cache import RunCache
from repro.experiments.grid import run_grid
from repro.experiments.resilience import (
    NO_RETRY, PERMANENT, TRANSIENT, RetryPolicy, classify_failure,
    describe_failure,
)
from repro.experiments.runner import RunScale, clear_cache, set_cache
from repro.testing.faults import (
    FaultSpec,
    InjectedFaultError,
    WorkerCrashError,
    injected_faults,
)

TINY = RunScale(num_warps=2, trace_scale=0.1)
BENCHES = ("BFS", "NW")
DESIGNS = ("baseline", "bow")

#: Zero backoff keeps retry-heavy tests fast.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    previous = set_cache(None)
    yield
    set_cache(previous)
    clear_cache()


def faulted_grid(tmp_path, specs, *, jobs=1, retry=FAST, strict=False,
                 seed=11, state="faults", cache=None, **kwargs):
    clear_cache()
    with injected_faults(seed, tmp_path / state, specs):
        return run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=jobs,
                        retry=retry, strict=strict, cache=cache, **kwargs)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_transient_retries_permanent_does_not(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(TRANSIENT, 1)
        assert policy.should_retry(TRANSIENT, 2)
        assert not policy.should_retry(TRANSIENT, 3)
        assert not policy.should_retry(PERMANENT, 1)

    def test_retry_permanent_opt_in(self):
        policy = RetryPolicy(max_attempts=2, retry_permanent=True)
        assert policy.should_retry(PERMANENT, 1)
        assert not policy.should_retry(PERMANENT, 2)

    def test_no_retry_never_retries(self):
        assert not NO_RETRY.should_retry(TRANSIENT, 1)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExperimentError):
            RetryPolicy(timeout=0.0)
        # A NaN timeout would switch the deadline off silently; an
        # infinite one would overflow the pool's wait.
        for field in ("timeout", "backoff_base", "backoff_factor",
                      "backoff_max"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ExperimentError, match="finite"):
                    RetryPolicy(**{field: value})


class TestClassification:
    @pytest.mark.parametrize("error", [
        BrokenProcessPool("worker died"),
        OSError(5, "I/O error"),
        MemoryError(),
        TimeoutError(),
        WorkerCrashError("injected"),
        SweepTimeoutError("BFS/bow IW3", 2.0, 1.0),
    ])
    def test_transient(self, error):
        assert classify_failure(error) == TRANSIENT

    @pytest.mark.parametrize("error", [
        ValueError("bad"),
        DeadlockError("stuck", 0),
        InjectedFaultError("injected"),
        ExperimentError("unknown design"),
    ])
    def test_permanent(self, error):
        assert classify_failure(error) == PERMANENT


class TestPointFailure:
    def failure(self):
        try:
            raise InjectedFaultError("synthetic")
        except InjectedFaultError as error:
            return describe_failure("BFS", "bow", 3, "BFS/bow IW3",
                                    error, 2, 1.5)

    def test_describe_captures_the_event(self):
        failure = self.failure()
        assert failure.kind == PERMANENT
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFaultError"
        assert "synthetic" in failure.message
        assert "InjectedFaultError" in failure.traceback_text

    def test_signature_excludes_error_type(self):
        # kill faults surface as WorkerCrashError at jobs=1 but
        # BrokenProcessPool at jobs>1; the signature must match anyway.
        assert self.failure().signature() == ("BFS/bow IW3", PERMANENT, 2)

    def test_to_error_names_the_point(self):
        error = self.failure().to_error()
        assert isinstance(error, SweepPointError)
        assert "BFS/bow IW3" in str(error)
        assert "InjectedFaultError" in str(error)


class TestGridFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_fault_exhausts_retries(self, tmp_path, jobs):
        grid = faulted_grid(
            tmp_path, [FaultSpec("oserror", times=0, match="BFS/bow IW3")],
            jobs=jobs)
        assert len(grid.results) == 3
        assert [f.signature() for f in grid.failures] == [
            ("BFS/bow IW3", TRANSIENT, FAST.max_attempts)]
        assert not grid.ok and grid.failed == 1

    def test_transient_fault_heals_within_budget(self, tmp_path):
        grid = faulted_grid(
            tmp_path, [FaultSpec("oserror", times=2, match="BFS/bow IW3")])
        assert grid.ok
        assert grid.get("BFS", "bow", 3) is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permanent_fault_fails_first_attempt(self, tmp_path, jobs):
        grid = faulted_grid(
            tmp_path, [FaultSpec("raise", times=0, match="NW/baseline")],
            jobs=jobs)
        assert [f.signature() for f in grid.failures] == [
            ("NW/baseline", PERMANENT, 1)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_crash_charges_only_the_victim(self, tmp_path, jobs):
        """A dying worker (BrokenProcessPool at jobs>1) fails exactly
        the point that killed it; siblings resolve normally."""
        grid = faulted_grid(
            tmp_path, [FaultSpec("kill", times=0, match="BFS/bow IW3")],
            jobs=jobs)
        assert len(grid.results) == 3
        assert [f.signature() for f in grid.failures] == [
            ("BFS/bow IW3", TRANSIENT, FAST.max_attempts)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hang_beyond_timeout_fails_the_point(self, tmp_path, jobs):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=0.6)
        grid = faulted_grid(
            tmp_path,
            [FaultSpec("hang", times=0, duration=1.2, match="NW/bow IW3")],
            jobs=jobs, retry=policy)
        assert len(grid.results) == 3
        assert [f.signature() for f in grid.failures] == [
            ("NW/bow IW3", TRANSIENT, 2)]
        assert grid.failures[0].error_type == "SweepTimeoutError"

    def test_deadline_starts_when_a_worker_starts_the_point(self, tmp_path):
        """Four 1 s points on two workers each fit a 1.5 s budget: the
        two queued behind busy workers are not charged their wait."""
        policy = RetryPolicy(max_attempts=1, backoff_base=0.0, timeout=1.5)
        grid = faulted_grid(tmp_path, [FaultSpec("hang", duration=1.0)],
                            jobs=2, retry=policy)
        assert [f.signature() for f in grid.failures] == []
        assert len(grid.results) == 4

    def test_failure_determinism_across_job_counts(self, tmp_path):
        """Same fault seed, same failure records at jobs=1 and jobs=4."""
        signatures = []
        for jobs, state in ((1, "s1"), (4, "s4")):
            grid = faulted_grid(
                tmp_path,
                [FaultSpec("kill", times=0, match="BFS/bow IW3"),
                 FaultSpec("raise", times=0, match="NW/baseline")],
                jobs=jobs, state=state)
            signatures.append(sorted(f.signature() for f in grid.failures))
        assert signatures[0] == signatures[1] == [
            ("BFS/bow IW3", TRANSIENT, FAST.max_attempts),
            ("NW/baseline", PERMANENT, 1)]


class TestDeadlockPropagation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_sweep_raises_with_the_point_label(self, tmp_path, jobs):
        """A DeadlockError in one point surfaces through run_grid with
        the grid-point label attached, at any job count."""
        with pytest.raises(SweepPointError) as excinfo:
            faulted_grid(
                tmp_path, [FaultSpec("deadlock", times=0, match="NW/bow")],
                jobs=jobs, strict=True)
        assert "NW/bow IW3" in str(excinfo.value)
        assert "DeadlockError" in str(excinfo.value)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keep_going_resolves_the_siblings(self, tmp_path, jobs):
        grid = faulted_grid(
            tmp_path, [FaultSpec("deadlock", times=0, match="NW/bow")],
            jobs=jobs, strict=False)
        assert len(grid.results) == 3
        assert [f.signature() for f in grid.failures] == [
            ("NW/bow IW3", PERMANENT, 1)]
        for bench, design in (("BFS", "baseline"), ("BFS", "bow"),
                              ("NW", "baseline")):
            assert grid.get(bench, design, 3) is not None


class TestGridResultFailureApi:
    def test_get_on_failed_point_names_the_failure(self, tmp_path):
        grid = faulted_grid(
            tmp_path, [FaultSpec("raise", times=0, match="BFS/bow IW3")])
        with pytest.raises(SweepPointError) as excinfo:
            grid.get("BFS", "bow", 3)
        assert "BFS/bow IW3" in str(excinfo.value)
        assert "InjectedFaultError" in str(excinfo.value)

    def test_unknown_point_still_distinct_from_failed(self, tmp_path):
        grid = faulted_grid(
            tmp_path, [FaultSpec("raise", times=0, match="BFS/bow IW3")])
        with pytest.raises(ExperimentError, match="not part of this grid"):
            grid.get("SAD", "bow", 3)

    def test_format_lists_failures(self, tmp_path):
        grid = faulted_grid(
            tmp_path, [FaultSpec("raise", times=0, match="BFS/bow IW3")])
        text = grid.format()
        assert "1 FAILED" in text
        assert "BFS/bow IW3" in text

    def test_raise_failures_mentions_the_count(self, tmp_path):
        grid = faulted_grid(
            tmp_path, [FaultSpec("raise", times=0, match="bow IW3")])
        assert grid.failed == 2
        with pytest.raises(SweepPointError, match=r"\+1 more"):
            grid.raise_failures()

    def test_progress_reports_failures(self, tmp_path):
        lines = []
        grid = faulted_grid(
            tmp_path, [FaultSpec("raise", times=0, match="BFS/bow IW3")],
            progress=lines.append)
        assert len(lines) == len(grid.records) + len(grid.failures)
        assert any("FAILED" in line for line in lines)


class TestNothingFinishedIsLost:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_completed_points_are_cached_before_strict_raises(
            self, tmp_path, jobs):
        """Satellite regression: a strict sweep that aborts must still
        have drained every completed sibling into the cache — the
        retry pass only re-simulates the point that actually failed."""
        cache = RunCache(tmp_path / "runs")
        with pytest.raises(SweepPointError):
            faulted_grid(
                tmp_path, [FaultSpec("raise", times=0, match="BFS/bow IW3")],
                jobs=jobs, strict=True, cache=cache)
        clear_cache()
        healed = run_grid(BENCHES, DESIGNS, (3,), scale=TINY, jobs=1,
                          cache=cache)
        assert healed.ok
        assert healed.simulated == 1
        assert healed.from_cache == 3

    def test_serial_and_parallel_share_wall_clock_accounting(self, tmp_path):
        start = time.perf_counter()
        grid = faulted_grid(
            tmp_path, [FaultSpec("oserror", times=1, match="BFS/bow IW3")],
            jobs=2)
        assert grid.ok
        assert 0.0 < grid.wall_seconds <= time.perf_counter() - start
