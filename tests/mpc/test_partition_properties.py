"""Property-based tests for the shard partitioner.

Hypothesis drives :func:`repro.mpc.partition.partition_csr` over random
edge sets and shard counts and checks the three invariants the runtime
leans on (see the partition module docstring): the ranges partition the
position space, the frontier relation is symmetric and complete, and the
per-shard fragments reassemble into the exact original CSR — including
graphs with non-integer labels, whose translation must survive the
round-trip.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import csr_from_edges, csr_from_graph
from repro.mpc import partition_csr, reassemble

pytestmark = pytest.mark.property

# A random graph as (n, edge endpoint pairs); duplicates and self-loops
# are allowed because csr_from_edges dedups them, which is exactly the
# construction path the runtime uses.
graph_strategy = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max(0, n - 1)),
                st.integers(min_value=0, max_value=max(0, n - 1)),
            ),
            max_size=120,
        )
        if n
        else st.just([]),
    )
)

shard_counts = st.integers(min_value=1, max_value=9)


def _build(n, edges):
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return csr_from_edges(n, u, v)


@given(graph_strategy, shard_counts)
@settings(max_examples=60, deadline=None)
def test_ranges_partition_position_space(graph, k):
    n, edges = graph
    plan = partition_csr(_build(n, edges), k)
    assert plan.k == k
    assert plan.shards[0].start == 0
    assert plan.shards[-1].stop == n
    for left, right in zip(plan.shards, plan.shards[1:]):
        assert left.stop == right.start
    for shard in plan.shards:
        assert (plan.owner[shard.start : shard.stop] == shard.index).all()


@given(graph_strategy, shard_counts)
@settings(max_examples=60, deadline=None)
def test_frontier_symmetric_and_complete(graph, k):
    n, edges = graph
    csr = _build(n, edges)
    plan = partition_csr(csr, k)
    for shard in plan.shards:
        # Symmetry: what s ships to t is exactly what t receives from s.
        for t, positions in shard.frontier.items():
            assert np.array_equal(plan.shards[t].ghosts[shard.index], positions)
        for t, positions in shard.ghosts.items():
            assert np.array_equal(plan.shards[t].frontier[shard.index], positions)
        # Completeness: every neighbor of a local row is local or a ghost.
        ghost_set = set()
        for positions in shard.ghosts.values():
            ghost_set.update(int(p) for p in positions)
        for row in range(shard.start, shard.stop):
            for j in csr.indices[csr.indptr[row] : csr.indptr[row + 1]]:
                j = int(j)
                assert shard.start <= j < shard.stop or j in ghost_set
        # Frontiers and ghosts are sorted (the wire-format contract) and
        # owned by the right side.
        for t, positions in shard.frontier.items():
            assert (np.diff(positions) > 0).all() if positions.size > 1 else True
            assert (plan.owner[positions] == shard.index).all()
        for t, positions in shard.ghosts.items():
            assert (plan.owner[positions] == t).all()


@given(graph_strategy, shard_counts)
@settings(max_examples=60, deadline=None)
def test_reassemble_round_trips_csr(graph, k):
    n, edges = graph
    csr = _build(n, edges)
    rebuilt = reassemble(partition_csr(csr, k))
    assert np.array_equal(rebuilt.indptr, csr.indptr)
    assert np.array_equal(rebuilt.indices, csr.indices)
    assert np.array_equal(rebuilt.degrees(), csr.degrees())
    # Neighbor lists stay sorted per row (csr_from_edges guarantees it).
    for row in range(n):
        segment = rebuilt.indices[rebuilt.indptr[row] : rebuilt.indptr[row + 1]]
        assert (np.diff(segment) > 0).all() if segment.size > 1 else True


@given(st.integers(min_value=0, max_value=25), shard_counts)
@settings(max_examples=30, deadline=None)
def test_reassemble_preserves_non_integer_labels(n, k):
    graph = nx.relabel_nodes(
        nx.gnp_random_graph(n, 0.2, seed=n), lambda i: f"v{i}"
    )
    csr = csr_from_graph(graph)
    rebuilt = reassemble(partition_csr(csr, k))
    if n:
        assert not rebuilt.integer_labeled
    assert list(rebuilt.labels) == list(csr.labels)
    full = np.ones(n, dtype=bool)
    assert rebuilt.label_set(full) == set(graph.nodes)
