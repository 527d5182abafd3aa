"""Property-based tests (hypothesis) on core invariants.

These cover the properties that must hold for *every* input, not just the
fixtures: MIS validity of every algorithm on arbitrary graphs, dual-engine
bit identity, forest partition soundness, coloring properness, read-k
structure detection, and bound monotonicity.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.arb_mis import arb_mis
from repro.core.bounded_arb import bounded_arb_congest, bounded_arb_independent_set
from repro.deterministic.cole_vishkin import forest_three_coloring
from repro.graphs.forests import forest_partition_greedy, is_forest_partition
from repro.graphs.generators import bounded_arboricity_graph, random_tree
from repro.graphs.orientation import bfs_forest_orientation, peeling_orientation
from repro.mis.ghaffari import ghaffari_mis
from repro.mis.luby import luby_a_mis, luby_b_mis
from repro.mis.metivier import metivier_mis, metivier_mis_congest
from repro.mis.validation import assert_valid_mis, is_independent_set
from repro.readk.bounds import read_k_conjunction_bound, read_k_lower_tail_form2
from repro.readk.family import shared_parent_family

pytestmark = pytest.mark.property

# -- graph strategies --------------------------------------------------------


@st.composite
def arbitrary_graph(draw, max_nodes: int = 24):
    """An arbitrary simple graph from a random edge mask."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pair for pair, keep in zip(all_pairs, mask) if keep)
    return g


@st.composite
def small_forest(draw):
    """A forest: a few disjoint random trees."""
    tree_sizes = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = nx.Graph()
    offset = 0
    for i, size in enumerate(tree_sizes):
        t = random_tree(size, seed=seed + i)
        g.add_nodes_from(v + offset for v in t.nodes())
        g.add_edges_from((u + offset, v + offset) for u, v in t.edges())
        offset += size
    return g


SLOWISH = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- MIS validity for every algorithm on arbitrary graphs ---------------------


class TestMISValidityProperties:
    @SLOWISH
    @given(graph=arbitrary_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_metivier_always_valid(self, graph, seed):
        assert_valid_mis(graph, metivier_mis(graph, seed=seed).mis)

    @SLOWISH
    @given(graph=arbitrary_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_luby_a_always_valid(self, graph, seed):
        assert_valid_mis(graph, luby_a_mis(graph, seed=seed).mis)

    @SLOWISH
    @given(graph=arbitrary_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_luby_b_always_valid(self, graph, seed):
        assert_valid_mis(graph, luby_b_mis(graph, seed=seed).mis)

    @SLOWISH
    @given(graph=arbitrary_graph(), seed=st.integers(min_value=0, max_value=1000))
    def test_ghaffari_always_valid(self, graph, seed):
        assert_valid_mis(graph, ghaffari_mis(graph, seed=seed).mis)

    @SLOWISH
    @given(
        graph=arbitrary_graph(max_nodes=18),
        seed=st.integers(min_value=0, max_value=1000),
        alpha=st.integers(min_value=1, max_value=4),
    )
    def test_arb_mis_always_valid_even_with_wrong_alpha(self, graph, seed, alpha):
        # Validity must not depend on alpha actually bounding the arboricity.
        assert_valid_mis(graph, arb_mis(graph, alpha=alpha, seed=seed).mis)


class TestDualEngineIdentity:
    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=16), seed=st.integers(min_value=0, max_value=500))
    def test_metivier_engines_bit_identical(self, graph, seed):
        assert metivier_mis(graph, seed=seed).mis == metivier_mis_congest(graph, seed=seed).mis

    @SLOWISH
    @given(seed=st.integers(min_value=0, max_value=200), alpha=st.integers(min_value=1, max_value=3))
    def test_bounded_arb_engines_identical(self, seed, alpha):
        g = bounded_arboricity_graph(30, alpha, seed=seed)
        fast = bounded_arb_independent_set(g, alpha=alpha, seed=seed)
        slow = bounded_arb_congest(g, alpha=alpha, seed=seed)
        assert fast.independent_set == slow.independent_set
        assert fast.bad_set == slow.bad_set
        assert fast.residual == slow.residual
        assert fast.iterations == slow.iterations


# -- structural properties -----------------------------------------------------


class TestForestProperties:
    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=16))
    def test_greedy_partition_always_valid(self, graph):
        parts = forest_partition_greedy(graph)
        assert is_forest_partition(graph, parts)

    @SLOWISH
    @given(forest=small_forest())
    def test_bfs_orientation_out_degree_one(self, forest):
        orientation = bfs_forest_orientation(forest)
        assert orientation.max_out_degree() <= 1

    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=16))
    def test_peeling_orientation_covers_graph(self, graph):
        orientation = peeling_orientation(graph)
        assert len(orientation.directed_edges()) == graph.number_of_edges()


class TestColoringProperties:
    @SLOWISH
    @given(forest=small_forest())
    def test_cole_vishkin_always_proper_and_three_colors(self, forest):
        orientation = bfs_forest_orientation(forest)
        edges = [
            (v, next(iter(orientation.parents(v))))
            for v in forest.nodes()
            if orientation.parents(v)
        ]
        result = forest_three_coloring(forest.nodes(), edges)
        assert set(result.colors.values()) <= {0, 1, 2}
        for child, parent in edges:
            assert result.colors[child] != result.colors[parent]


# -- read-k properties ----------------------------------------------------------


class TestReadKProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        n=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=1, max_value=50),
    )
    def test_conjunction_bound_dominated_by_independence(self, p, n, k):
        assert read_k_conjunction_bound(p, n, k) >= p**n - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        delta=st.floats(min_value=0.01, max_value=1.0),
        expectation=st.floats(min_value=0.1, max_value=500.0),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_tail_bound_monotone_in_k(self, delta, expectation, k):
        assert read_k_lower_tail_form2(delta, expectation, k) <= read_k_lower_tail_form2(
            delta, expectation, k + 1
        ) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(
        indicators=st.integers(min_value=2, max_value=8),
        children=st.integers(min_value=1, max_value=3),
        sharing=st.integers(min_value=1, max_value=4),
    )
    def test_shared_parent_family_read_parameter(self, indicators, children, sharing):
        sharing = min(sharing, indicators)
        fam = shared_parent_family(indicators, children, sharing)
        assert fam.read_parameter() == sharing


# -- MIS size sanity -------------------------------------------------------------


class TestSizeProperties:
    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=20), seed=st.integers(min_value=0, max_value=100))
    def test_mis_size_at_least_n_over_delta_plus_one(self, graph, seed):
        # Any MIS has size >= n / (Delta + 1).
        result = metivier_mis(graph, seed=seed)
        delta = max((d for _, d in graph.degree()), default=0)
        assert len(result.mis) >= math.ceil(graph.number_of_nodes() / (delta + 1))

    @SLOWISH
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_tree_mis_at_least_half_of_maximum(self, seed):
        # On trees, the maximum independent set is >= n/2; any MIS is a
        # 2-approximation of nothing in general — but it IS at least
        # n/(Delta+1); check the sharper bound that no MIS on a path of
        # even length is smaller than n/3.
        path = nx.path_graph(12)
        result = metivier_mis(path, seed=seed)
        assert len(result.mis) >= 4


# -- extension subsystems ---------------------------------------------------


class TestMatchingProperties:
    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=18), seed=st.integers(min_value=0, max_value=500))
    def test_israeli_itai_always_maximal(self, graph, seed):
        from repro.matching.israeli_itai import israeli_itai_matching
        from repro.matching.validation import assert_valid_maximal_matching

        result = israeli_itai_matching(graph, seed=seed)
        assert_valid_maximal_matching(graph, result.matching)

    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=14), seed=st.integers(min_value=0, max_value=200))
    def test_israeli_itai_engines_identical(self, graph, seed):
        from repro.matching.israeli_itai import (
            israeli_itai_matching,
            israeli_itai_matching_congest,
        )

        fast = israeli_itai_matching(graph, seed=seed)
        slow = israeli_itai_matching_congest(graph, seed=seed)
        assert fast.matching == slow.matching


class TestLinialProperties:
    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=16))
    def test_delta_plus_one_coloring_proper_and_small(self, graph):
        from repro.deterministic.linial import delta_plus_one_coloring

        coloring = delta_plus_one_coloring(graph)
        coloring.validate(graph)
        delta = max((d for _, d in graph.degree()), default=0)
        assert coloring.palette <= delta + 1

    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=16))
    def test_bounded_degree_mis_maximal(self, graph):
        from repro.deterministic.linial import bounded_degree_mis
        from repro.mis.validation import is_maximal_independent_set

        mis, _ = bounded_degree_mis(graph)
        assert is_maximal_independent_set(graph, mis)


class TestBulkEngineProperties:
    @SLOWISH
    @given(graph=arbitrary_graph(max_nodes=20), seed=st.integers(min_value=0, max_value=300))
    def test_bulk_identical_to_scalar(self, graph, seed):
        from repro.mis.bulk import metivier_mis_bulk

        fast = metivier_mis(graph, seed=seed)
        bulk = metivier_mis_bulk(graph, seed=seed)
        assert bulk.mis == fast.mis
        assert bulk.iterations == fast.iterations


class TestLWProperties:
    @SLOWISH
    @given(seed=st.integers(min_value=0, max_value=300), n=st.integers(min_value=1, max_value=80))
    def test_lw_valid_on_random_trees(self, seed, n):
        from repro.mis.lenzen_wattenhofer import lenzen_wattenhofer_tree_mis

        tree = random_tree(n, seed=seed)
        result = lenzen_wattenhofer_tree_mis(tree, seed=seed)
        assert_valid_mis(tree, result.mis)


class TestSynchronizerProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=arbitrary_graph(max_nodes=12),
        seed=st.integers(min_value=0, max_value=200),
        delay_seed=st.integers(min_value=0, max_value=200),
    )
    def test_alpha_synchronizer_equivalence(self, graph, seed, delay_seed):
        from repro.congest.asynchronous import AlphaSynchronizer, AsynchronousNetwork
        from repro.congest.network import Network
        from repro.congest.simulator import SynchronousSimulator
        from repro.mis.engine import mis_from_outputs
        from repro.mis.metivier import MetivierMIS

        net = Network(graph)
        sync = SynchronousSimulator(net, seed=seed).run(MetivierMIS())
        synchronizer = AlphaSynchronizer(net, seed=seed)
        synchronizer.async_net = AsynchronousNetwork(net, seed=delay_seed)
        asyn = synchronizer.run(MetivierMIS())
        assert mis_from_outputs(asyn.outputs) == mis_from_outputs(sync.outputs)
