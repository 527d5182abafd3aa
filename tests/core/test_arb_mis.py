"""Tests for the full ArbMIS pipeline (Algorithm 2)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.arb_mis import arb_mis
from repro.errors import ConfigurationError
from repro.graphs.generators import (
    bounded_arboricity_graph,
    grid_graph,
    k_tree,
    random_maximal_planar_graph,
    starry_arboricity_graph,
)
from repro.mis.validation import assert_valid_mis


class TestCorrectness:
    def test_valid_on_assorted(self, assorted_graph):
        result = arb_mis(assorted_graph, alpha=3, seed=1)
        assert_valid_mis(assorted_graph, result.mis)

    def test_valid_on_planar_with_alpha_3(self, planar_graph):
        result = arb_mis(planar_graph, alpha=3, seed=2)
        assert_valid_mis(planar_graph, result.mis)

    def test_valid_on_grid_with_alpha_2(self):
        g = grid_graph(12, 12)
        assert_valid_mis(g, arb_mis(g, alpha=2, seed=3).mis)

    def test_valid_on_k_tree(self):
        g = k_tree(80, 4, seed=1)
        assert_valid_mis(g, arb_mis(g, alpha=4, seed=1).mis)

    def test_valid_with_hub_degrees(self):
        g = starry_arboricity_graph(800, 3, hubs=4, seed=1)
        assert_valid_mis(g, arb_mis(g, alpha=3, seed=1).mis)

    def test_runs_even_with_understated_alpha(self, planar_graph):
        # Guarantees need alpha >= arboricity, but the algorithm must still
        # terminate with a valid MIS when alpha is understated.
        result = arb_mis(planar_graph, alpha=1, seed=4)
        assert_valid_mis(planar_graph, result.mis)

    def test_empty_graph(self):
        result = arb_mis(nx.Graph(), alpha=2, seed=0)
        assert result.mis == set()

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(3)
        assert arb_mis(g, alpha=1, seed=0).mis == {3}

    def test_disconnected_components(self):
        g = nx.union(
            bounded_arboricity_graph(40, 2, seed=1),
            nx.relabel_nodes(
                bounded_arboricity_graph(40, 2, seed=2), {i: i + 100 for i in range(40)}
            ),
        )
        assert_valid_mis(g, arb_mis(g, alpha=2, seed=5).mis)

    def test_invalid_alpha(self, arb3_graph):
        with pytest.raises(ConfigurationError):
            arb_mis(arb3_graph, alpha=0)


class TestDeterminism:
    def test_reproducible(self, arb3_graph):
        assert arb_mis(arb3_graph, alpha=3, seed=9).mis == arb_mis(arb3_graph, alpha=3, seed=9).mis

    def test_seeds_vary(self, arb3_graph):
        outputs = {frozenset(arb_mis(arb3_graph, alpha=3, seed=s).mis) for s in range(6)}
        assert len(outputs) > 1


class TestReport:
    def test_report_attached(self, starry_graph):
        result = arb_mis(starry_graph, alpha=2, seed=1)
        report = result.extra["report"]
        assert report.parameters.alpha == 2
        assert report.congest_rounds_estimate == result.congest_rounds
        assert "parameters" in result.extra

    def test_stage_summary_renders(self, starry_graph):
        report = arb_mis(starry_graph, alpha=2, seed=1).extra["report"]
        text = report.stage_summary()
        assert "bounded-arb" in text
        assert "CONGEST rounds" in text

    def test_rounds_accounting_consistent(self, starry_graph):
        result = arb_mis(starry_graph, alpha=2, seed=1)
        report = result.extra["report"]
        expected = (
            3 * (report.reduction.iterations if report.reduction else 0)
            + 3 * report.partial.iterations
            + 2 * report.parameters.theta
            + report.finishing.total_finishing_rounds
        )
        assert result.congest_rounds == expected


class TestDegreeReductionIntegration:
    def test_fires_on_high_degree_graph(self):
        g = starry_arboricity_graph(3000, 2, hubs=2, seed=1)
        result = arb_mis(g, alpha=2, seed=1)
        report = result.extra["report"]
        assert report.reduction is not None
        assert report.reduction.max_degree_after <= report.reduction.threshold
        assert_valid_mis(g, result.mis)

    def test_can_be_disabled(self):
        g = starry_arboricity_graph(1000, 2, hubs=2, seed=2)
        result = arb_mis(g, alpha=2, seed=2, apply_degree_reduction=False)
        assert result.extra["report"].reduction is None
        assert_valid_mis(g, result.mis)


class TestProfiles:
    def test_paper_profile_valid(self, arb3_graph):
        result = arb_mis(arb3_graph, alpha=3, seed=1, profile="paper")
        assert_valid_mis(arb3_graph, result.mis)

    def test_practical_profile_runs_scales(self):
        g = starry_arboricity_graph(600, 2, hubs=3, seed=3)
        result = arb_mis(g, alpha=2, seed=3, apply_degree_reduction=False)
        report = result.extra["report"]
        assert report.parameters.theta >= 1
        assert len(report.partial.scale_stats) == report.parameters.theta

