"""Fault-path tests for the sharded runtime.

Shard-worker crashes flow through the same
:class:`~repro.analysis.runner.FailurePolicy` contract as sweep cells:
a retried crash heals invisibly (the rerun is bit-identical to a clean
run), exhausted retries degrade the run to an MIS of the surviving
subgraph (validated by :func:`repro.core.repair.validate_under_faults`),
and every failed attempt leaves a ``sweep-failure`` event in the obs
stream.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis.runner import FailurePolicy
from repro.core.repair import validate_under_faults
from repro.mis.validation import is_independent_set, is_maximal_independent_set
from repro.mpc import InjectedShardCrash, ShardCrash, run_sharded
from repro.obs.events import EVENT_SWEEP_FAILURE
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession
from repro.obs.sinks import MemorySink


def _graph():
    return nx.gnp_random_graph(100, 0.06, seed=2)


def _session():
    sink = MemorySink()
    manifest = RunManifest(run_id="t", kind="test", created_at="t")
    return ObsSession("unused", manifest, sink), sink


def test_crash_with_retry_completes_identically():
    """One mid-round crash, healed by a retry: same result as a clean run."""
    graph = _graph()
    clean = run_sharded("metivier", graph, seed=2, shards=4)
    session, sink = _session()
    result = run_sharded(
        "metivier",
        graph,
        seed=2,
        shards=4,
        crashes=[ShardCrash(iteration=1, shard=2, attempts=1)],
        failure_policy=FailurePolicy(on_error="retry"),
        obs=session,
    )
    assert result.mis == clean.mis
    assert result.iterations == clean.iterations
    assert "crashed" not in result.extra
    failures = [e for e in sink.events if e.kind == EVENT_SWEEP_FAILURE]
    assert len(failures) == 1
    record = failures[0].data
    assert record["family"] == "mpc-shard"
    assert record["shard"] == 2
    assert record["error_type"] == "InjectedShardCrash"
    assert record["algorithm"] == "metivier-mpc"


def test_exhausted_retries_degrade_to_surviving_subgraph():
    graph = _graph()
    session, sink = _session()
    result = run_sharded(
        "metivier",
        graph,
        seed=2,
        shards=4,
        crashes=[ShardCrash(iteration=1, shard=2, attempts=99)],
        failure_policy=FailurePolicy(on_error="retry", retries=1),
        obs=session,
    )
    assert result.extra["dead_shards"] == [2]
    crashed = set(result.extra["crashed"])
    assert crashed, "the dead shard still had active nodes"
    survivors = set(graph.nodes) - crashed
    assert set(result.mis) <= survivors
    assert is_independent_set(graph, result.mis)
    assert is_maximal_independent_set(graph.subgraph(survivors), result.mis)
    report = validate_under_faults(graph, result.extra["outputs"], crashed)
    assert report.ok, report
    failures = [e for e in sink.events if e.kind == EVENT_SWEEP_FAILURE]
    assert len(failures) == 2  # one per attempt: first try + one retry
    assert all(e.data["shard"] == 2 for e in failures)


def test_fail_fast_raises_the_crash():
    with pytest.raises(InjectedShardCrash):
        run_sharded(
            "metivier",
            _graph(),
            seed=2,
            shards=4,
            crashes=[ShardCrash(iteration=0, shard=0, attempts=99)],
            failure_policy=FailurePolicy(on_error="fail-fast"),
        )
