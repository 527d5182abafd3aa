"""The coordinator's degenerate-draw audit actually fires, and stays exact.

Luby A draws priorities from ``{1..n⁴}``, so on a 4-node graph (256
values) two active nodes tie every few dozen seeds.  A tie sends the
round through the coordinator-side audit and its exact tuple-rule
fallback instead of the shards' fast path; the run must still equal the
bulk engine bit for bit at every shard count.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.mis.bulk import luby_a_mis_bulk
from repro.mpc import run_sharded
from repro.obs.events import EVENT_MPC_ROUND
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession
from repro.obs.sinks import MemorySink

#: path_graph(4) and a seed whose Luby A draw ties (found by scanning
#: seeds 0..199; 17 is the first that fires).
GRAPH = nx.path_graph(4)
SEED = 17


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_luby_a_tie_fires_the_audit_and_matches_bulk(shards):
    sink = MemorySink()
    manifest = RunManifest(run_id="t", kind="test", created_at="t")
    session = ObsSession("unused", manifest, sink)
    result = run_sharded("luby-a", GRAPH, seed=SEED, shards=shards, obs=session)
    rounds = [e.data for e in sink.events if e.kind == EVENT_MPC_ROUND]
    assert any(r["degenerate"] for r in rounds)
    bulk = luby_a_mis_bulk(GRAPH, seed=SEED)
    assert result.mis == bulk.mis
    assert result.iterations == bulk.iterations
    assert result.active_history == bulk.active_history
