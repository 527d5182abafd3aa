"""Tests for the columnar bulk engines (Métivier, Luby A/B, Ghaffari).

The three-engine equivalence classes here are tier-1: they pin the
DESIGN.md §4 contract that for every seed the CONGEST node program, the
scalar fast engine, and the bulk columnar engine return the *same* MIS.
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np
import pytest

import repro.mis.bulk as bulk_module
from repro.errors import AlgorithmError
from repro.graphs.csr import csr_from_graph
from repro.graphs.generators import bounded_arboricity_graph, random_tree
from repro.mis.bulk import (
    ghaffari_mis_bulk,
    luby_a_mis_bulk,
    luby_b_mis_bulk,
    metivier_mis_bulk,
)
from repro.mis.ghaffari import ghaffari_mis, ghaffari_mis_congest
from repro.mis.luby import (
    luby_a_mis,
    luby_a_mis_congest,
    luby_b_mis,
    luby_b_mis_congest,
)
from repro.mis.metivier import metivier_mis, metivier_mis_congest
from repro.mis.validation import assert_valid_mis

ENGINE_TRIPLES = [
    pytest.param(metivier_mis_bulk, metivier_mis, metivier_mis_congest, id="metivier"),
    pytest.param(luby_a_mis_bulk, luby_a_mis, luby_a_mis_congest, id="luby-a"),
    pytest.param(luby_b_mis_bulk, luby_b_mis, luby_b_mis_congest, id="luby-b"),
    pytest.param(ghaffari_mis_bulk, ghaffari_mis, ghaffari_mis_congest, id="ghaffari"),
]


class TestCsrAdjacency:
    def test_round_trip_degrees(self, arb3_graph):
        csr = csr_from_graph(arb3_graph)
        for i, v in enumerate(csr.labels):
            assert csr.indptr[i + 1] - csr.indptr[i] == arb3_graph.degree(int(v))

    def test_neighbor_positions(self, path5):
        csr = csr_from_graph(path5)
        # Node 1 (position 1) neighbors are positions 0 and 2.
        assert list(csr.indices[csr.indptr[1] : csr.indptr[2]]) == [0, 2]

    def test_non_contiguous_labels(self):
        g = nx.Graph([(10, 20), (20, 40)])
        csr = csr_from_graph(g)
        assert list(csr.labels) == [10, 20, 40]
        assert csr.indptr[-1] == 4

    def test_string_labels_no_longer_crash(self):
        # Regression: the original implementation did np.array(sorted(G)),
        # which raised on non-integer labels (and TypeError'd on mixed ones).
        g = nx.Graph([("b", "a"), ("a", "c")])
        csr = csr_from_graph(g)
        assert list(csr.labels) == ["a", "b", "c"]
        assert csr.indptr[-1] == 4
        # Position 0 is "a"; its neighbors are positions 1 ("b") and 2 ("c").
        assert sorted(csr.indices[csr.indptr[0] : csr.indptr[1]]) == [1, 2]


class TestNonIntegerLabels:
    @pytest.mark.parametrize("bulk_fn,scalar_fn,_congest", ENGINE_TRIPLES)
    def test_string_labeled_graph(self, bulk_fn, scalar_fn, _congest):
        g = nx.Graph([("b", "a"), ("a", "c"), ("c", "d"), ("d", "e")])
        g.add_node("lonely")
        result = bulk_fn(g, seed=3)
        assert result.mis <= set(g.nodes)
        assert "lonely" in result.mis
        assert_valid_mis(g, result.mis)

    def test_mixed_unsortable_labels(self):
        g = nx.Graph([("a", 1), (1, (2, 3))])
        result = metivier_mis_bulk(g, seed=0)
        assert_valid_mis(g, result.mis)


class TestBitIdentity:
    """Tier-1: bulk == scalar-fast == CONGEST for every algorithm and seed."""

    @pytest.mark.parametrize("bulk_fn,scalar_fn,congest_fn", ENGINE_TRIPLES)
    def test_three_engines_agree(self, assorted_graph, bulk_fn, scalar_fn, congest_fn):
        for seed in (0, 7):
            fast = scalar_fn(assorted_graph, seed=seed)
            bulk = bulk_fn(assorted_graph, seed=seed)
            slow = congest_fn(assorted_graph, seed=seed)
            assert bulk.mis == fast.mis == slow.mis
            assert bulk.iterations == fast.iterations
            assert bulk.active_history == fast.active_history

    @pytest.mark.parametrize("bulk_fn,scalar_fn,_congest", ENGINE_TRIPLES)
    def test_identical_on_larger_graph(self, bulk_fn, scalar_fn, _congest):
        g = bounded_arboricity_graph(3000, 3, seed=5)
        assert bulk_fn(g, seed=9).mis == scalar_fn(g, seed=9).mis

    @pytest.mark.parametrize("bulk_fn,scalar_fn,_congest", ENGINE_TRIPLES)
    def test_identical_with_isolated_nodes(self, bulk_fn, scalar_fn, _congest):
        g = nx.Graph()
        g.add_nodes_from(range(10))
        g.add_edges_from([(0, 1), (2, 3)])
        assert bulk_fn(g, seed=1).mis == scalar_fn(g, seed=1).mis

    @pytest.mark.parametrize("bulk_fn,scalar_fn,_congest", ENGINE_TRIPLES)
    def test_accepts_prebuilt_csr(self, arb3_graph, bulk_fn, scalar_fn, _congest):
        # A CSRGraph input (the networkx-free path) draws the same
        # randomness as the nx.Graph input because integer labels key the
        # rng either way.
        csr = csr_from_graph(arb3_graph)
        assert bulk_fn(csr, seed=6).mis == scalar_fn(arb3_graph, seed=6).mis


class TestExhaustion:
    """The bulk engines share the scalar exhaustion contract: a partial
    result with ``extra["completed"] = False``, never a silent truncation."""

    def test_partial_result_flagged(self, arb3_graph):
        fast = metivier_mis(arb3_graph, seed=2, max_iterations=1)
        bulk = metivier_mis_bulk(arb3_graph, seed=2, max_iterations=1)
        assert bulk.extra["completed"] is False
        assert fast.extra["completed"] is False
        assert bulk.mis == fast.mis
        assert bulk.iterations == fast.iterations == 1

    @pytest.mark.parametrize("bulk_fn,scalar_fn,_congest", ENGINE_TRIPLES)
    def test_partial_results_bit_identical(self, arb3_graph, bulk_fn, scalar_fn, _congest):
        fast = scalar_fn(arb3_graph, seed=5, max_iterations=2)
        bulk = bulk_fn(arb3_graph, seed=5, max_iterations=2)
        assert bulk.mis == fast.mis
        assert bulk.extra["completed"] == fast.extra["completed"]

    def test_defensive_no_winner_break_raises(self, arb3_graph, monkeypatch):
        # A Métivier iteration with active nodes always has a winner (the
        # globally maximal (priority, id) node wins its neighborhood).  If a
        # kernel bug ever produced zero winners the engine must fail loudly,
        # not return a truncated MIS.
        def no_winners(csr, contenders, keys, **kwargs):
            return np.zeros(csr.n, dtype=bool)

        monkeypatch.setattr(bulk_module, "masked_competition", no_winners)
        with pytest.raises(AlgorithmError):
            metivier_mis_bulk(arb3_graph, seed=0)
        with pytest.raises(AlgorithmError):
            luby_a_mis_bulk(arb3_graph, seed=0)


class TestBulkCorrectness:
    def test_valid_mis(self, assorted_graph):
        result = metivier_mis_bulk(assorted_graph, seed=4)
        assert_valid_mis(assorted_graph, result.mis)

    def test_empty_graph(self):
        assert metivier_mis_bulk(nx.Graph(), seed=0).mis == set()

    def test_complete_graph(self):
        result = metivier_mis_bulk(nx.complete_graph(40), seed=1)
        assert len(result.mis) == 1

    def test_large_tree(self):
        t = random_tree(20_000, seed=2)
        result = metivier_mis_bulk(t, seed=2)
        # Spot-validate independence (full maximality check is O(n) too,
        # but use the library validator on the whole thing — it's fine).
        assert_valid_mis(t, result.mis)

    def test_completed_flag(self, arb3_graph):
        assert metivier_mis_bulk(arb3_graph, seed=1).extra["completed"]


class TestBulkPerformance:
    def test_faster_than_scalar_at_scale(self):
        g = bounded_arboricity_graph(8000, 2, seed=3)
        start = time.perf_counter()
        metivier_mis(g, seed=3)
        scalar_seconds = time.perf_counter() - start
        start = time.perf_counter()
        metivier_mis_bulk(g, seed=3)
        bulk_seconds = time.perf_counter() - start
        # The CSR build dominates the bulk path; still expect a clear win.
        assert bulk_seconds < scalar_seconds
