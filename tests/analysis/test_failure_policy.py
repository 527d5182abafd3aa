"""Tests for the fault-tolerant sweep runtime: FailurePolicy semantics,
bounded retries with deterministic backoff, per-cell timeouts, persisted
failure records, and known-bad handling on resume."""

from __future__ import annotations

import time

import pytest

from repro.analysis.cache import CellFailure, SweepCache
from repro.analysis.runner import FailurePolicy, SweepRunner
from repro.analysis.sweep import run_sweep
from repro.errors import ConfigurationError, NotMaximalError
from repro.graphs.generators import GraphSpec
from repro.mis.metivier import metivier_mis
from repro.obs.events import EVENT_SWEEP_END, EVENT_SWEEP_FAILURE
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession
from repro.obs.sinks import MemorySink

SPECS = [GraphSpec("tree")]
SIZES = [16, 24]
SEEDS = [0, 1]


def broken_mis(graph, seed=0):
    """Picklable deliberately-wrong algorithm (empty set is never maximal)."""
    from repro.mis.engine import MISResult

    return MISResult(mis=set(), iterations=0, algorithm="broken", seed=seed)


def slow_mis(graph, seed=0):
    """Overruns any sub-100ms cell budget, then answers correctly."""
    time.sleep(0.15)
    return metivier_mis(graph, seed=seed)


class FlakyMIS:
    """Fails the first ``failures`` calls per cell, then succeeds.

    Call counts live in a file path so the double works across retry
    attempts regardless of process boundaries (the serial path reuses
    the instance; a worker would re-import it).
    """

    def __init__(self, counter_dir, failures=1):
        self.counter_dir = counter_dir
        self.failures = failures

    def __call__(self, graph, seed=0):
        marker = self.counter_dir / f"cell-{graph.number_of_nodes()}-{seed}"
        count = int(marker.read_text()) if marker.exists() else 0
        marker.write_text(str(count + 1))
        if count < self.failures:
            raise RuntimeError(f"flaky failure #{count + 1}")
        return metivier_mis(graph, seed=seed)


class TestFailurePolicyConfig:
    def test_defaults_are_fail_fast(self):
        policy = FailurePolicy()
        assert policy.on_error == "fail-fast"
        assert policy.max_attempts == 1
        assert policy.cell_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"on_error": "explode"},
            {"retries": -1},
            {"cell_timeout": 0.0},
            {"cell_timeout": -5.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailurePolicy(**kwargs)

    def test_retry_mode_defaults_to_two_extra_attempts(self):
        assert FailurePolicy(on_error="retry").max_attempts == 3
        assert FailurePolicy(on_error="retry", retries=5).max_attempts == 6

    def test_from_env(self):
        env = {
            "REPRO_SWEEP_ON_ERROR": "continue",
            "REPRO_SWEEP_RETRIES": "3",
            "REPRO_SWEEP_CELL_TIMEOUT": "1.5",
        }
        policy = FailurePolicy.from_env(env)
        assert policy.on_error == "continue"
        assert policy.retries == 3
        assert policy.cell_timeout == 1.5
        assert FailurePolicy.from_env({}).on_error == "fail-fast"

    @pytest.mark.parametrize(
        "key", ["REPRO_SWEEP_RETRIES", "REPRO_SWEEP_CELL_TIMEOUT"]
    )
    def test_from_env_malformed_value_names_the_variable(self, key):
        with pytest.raises(ConfigurationError, match=key):
            FailurePolicy.from_env({key: "abc"})

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FailurePolicy(on_error="continue", retries=4, backoff_base=0.1)
        fp = "ab" * 32
        for attempt in range(1, 5):
            first = policy.backoff_seconds(fp, attempt)
            assert first == policy.backoff_seconds(fp, attempt)
            base = min(policy.backoff_cap, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * base <= first < base

    def test_known_bad_handling_per_mode(self):
        assert not FailurePolicy(on_error="continue").retry_known_bad
        assert FailurePolicy(on_error="retry").retry_known_bad
        assert FailurePolicy().retry_known_bad


class TestContinueMode:
    def test_healthy_cells_survive_a_broken_algorithm(self, tmp_path):
        cache_path = tmp_path / "sweep.jsonl"
        result = run_sweep(
            specs=SPECS,
            sizes=SIZES,
            algorithms={"metivier": metivier_mis, "broken": broken_mis},
            seeds=SEEDS,
            parallel=False,
            cache=cache_path,
            failure_policy=FailurePolicy(on_error="continue"),
        )
        healthy = len(SIZES) * len(SEEDS)
        assert len(result.points) == healthy
        assert len(result.failures) == healthy
        assert all(f.error_type == "NotMaximalError" for f in result.failures)
        cache = SweepCache(cache_path)
        assert len(cache) == healthy
        assert cache.failure_count == healthy

    def test_resume_skips_known_bad_cells(self, tmp_path):
        cache_path = tmp_path / "sweep.jsonl"
        policy = FailurePolicy(on_error="continue")
        kwargs = dict(
            specs=SPECS,
            sizes=SIZES,
            algorithms={"broken": broken_mis},
            seeds=SEEDS,
            parallel=False,
            cache=cache_path,
            failure_policy=policy,
        )
        first = run_sweep(**kwargs)
        lines_after_first = cache_path.read_text().count("\n")
        second = run_sweep(**kwargs)
        # The resumed sweep consulted the failure records instead of
        # re-executing: no new cache lines, same reported failures.
        assert cache_path.read_text().count("\n") == lines_after_first
        assert [f.key for f in second.failures] == [f.key for f in first.failures]

    def test_retry_mode_reattempts_known_bad_on_resume(self, tmp_path):
        cache_path = tmp_path / "sweep.jsonl"
        flaky = FlakyMIS(tmp_path, failures=1)
        kwargs = dict(
            specs=SPECS,
            sizes=[16],
            algorithms={"flaky": flaky},
            seeds=[0],
            parallel=False,
            cache=cache_path,
        )
        # No in-run retries: the first sweep records the cell as bad.
        first = run_sweep(
            failure_policy=FailurePolicy(on_error="continue"), **kwargs
        )
        assert len(first.failures) == 1
        # retry mode re-attempts it on resume; the flake has passed, so the
        # point lands and the failure record is superseded.
        second = run_sweep(
            failure_policy=FailurePolicy(on_error="retry", retries=1), **kwargs
        )
        assert len(second.points) == 1
        assert second.failures == []
        cache = SweepCache(cache_path)
        assert len(cache) == 1
        assert cache.failure_count == 0


class TestRetries:
    def test_flaky_cell_recovers_within_attempts(self, tmp_path):
        flaky = FlakyMIS(tmp_path, failures=2)
        result = run_sweep(
            specs=SPECS,
            sizes=[16],
            algorithms={"flaky": flaky},
            seeds=[0],
            parallel=False,
            failure_policy=FailurePolicy(
                on_error="continue", retries=2, backoff_base=0.001
            ),
        )
        assert len(result.points) == 1
        assert result.failures == []

    def test_attempts_are_bounded(self, tmp_path):
        flaky = FlakyMIS(tmp_path, failures=5)
        result = run_sweep(
            specs=SPECS,
            sizes=[16],
            algorithms={"flaky": flaky},
            seeds=[0],
            parallel=False,
            failure_policy=FailurePolicy(
                on_error="continue", retries=1, backoff_base=0.001
            ),
        )
        assert len(result.points) == 0
        assert result.failures[0].attempts == 2
        assert result.failures[0].error_type == "RuntimeError"


class TestFailFast:
    def test_raises_original_exception_and_records_failure(self, tmp_path):
        cache_path = tmp_path / "sweep.jsonl"
        with pytest.raises(NotMaximalError):
            run_sweep(
                specs=SPECS,
                sizes=[16],
                algorithms={"broken": broken_mis},
                seeds=[0],
                parallel=False,
                cache=cache_path,
                failure_policy=FailurePolicy(),
            )
        # Even fail-fast leaves a forensic record for the next resume.
        assert SweepCache(cache_path).failure_count == 1

    def test_serial_stops_at_first_failure(self, tmp_path):
        calls = tmp_path / "calls"
        calls.mkdir()

        def counting_broken(graph, seed=0):
            (calls / f"{graph.number_of_nodes()}-{seed}").write_text("x")
            return broken_mis(graph, seed=seed)

        with pytest.raises(NotMaximalError):
            run_sweep(
                specs=SPECS,
                sizes=SIZES,
                algorithms={"broken": counting_broken},
                seeds=SEEDS,
                parallel=False,
                failure_policy=FailurePolicy(),
            )
        assert len(list(calls.iterdir())) == 1


class TestCellTimeout:
    def test_serial_overrun_recorded_as_timeout(self):
        result = run_sweep(
            specs=SPECS,
            sizes=[16],
            algorithms={"slow": slow_mis},
            seeds=[0],
            parallel=False,
            failure_policy=FailurePolicy(
                on_error="continue", cell_timeout=0.01, backoff_base=0.001
            ),
        )
        assert len(result.points) == 0
        assert result.failures[0].timed_out
        assert result.failures[0].error_type == "TimeoutError"

    def test_parallel_overrun_abandoned_and_recorded(self):
        result = run_sweep(
            specs=SPECS,
            sizes=[16, 24],
            algorithms={"slow": slow_mis, "metivier": metivier_mis},
            seeds=[0],
            parallel=True,
            max_workers=2,
            failure_policy=FailurePolicy(on_error="continue", cell_timeout=0.05),
        )
        # Healthy cells complete; every slow cell is written off.
        assert {p.algorithm for p in result.points} == {"metivier"}
        assert len(result.failures) == 2
        assert all(f.timed_out for f in result.failures)


class TestFailureCache:
    def test_failure_records_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SweepCache(path)
        failure = CellFailure(
            key="k1",
            family="tree",
            n=16,
            algorithm="broken",
            seed=0,
            error_type="RuntimeError",
            error="boom",
            attempts=3,
            timed_out=False,
        )
        cache.put_failure(failure)
        reloaded = SweepCache(path)
        assert reloaded.failure_count == 1
        assert reloaded.get_failure("k1") == failure
        assert "RuntimeError" in failure.describe()
        assert len(reloaded) == 0  # failures are not points

    def test_later_point_clears_failure(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SweepCache(path)
        cache.put_failure(
            CellFailure("k1", "tree", 16, "a", 0, "RuntimeError", "boom")
        )
        from repro.analysis.sweep import SweepPoint

        point = SweepPoint(GraphSpec("tree"), 16, "a", 0, 2, None, 7)
        cache.put_point("k1", point)
        reloaded = SweepCache(path)
        assert reloaded.get_failure("k1") is None
        assert reloaded.get_point("k1") == point


class TestFailureTelemetry:
    def test_sweep_failure_events_emitted(self):
        sink = MemorySink()
        session = ObsSession(
            "unused", RunManifest(run_id="t", kind="test", created_at="t"), sink
        )
        SweepRunner(
            {"metivier": metivier_mis, "broken": broken_mis},
            parallel=False,
            obs=session,
            failure_policy=FailurePolicy(on_error="continue"),
        ).run(SPECS, [16], [0])
        events = [e for e in sink.events if e.kind == EVENT_SWEEP_FAILURE]
        assert len(events) == 1
        assert events[0].data["algorithm"] == "broken"
        assert events[0].data["error_type"] == "NotMaximalError"
        end = [e for e in sink.events if e.kind == EVENT_SWEEP_END]
        assert end[0].data["failed"] == 1
