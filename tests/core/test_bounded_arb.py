"""Tests for BoundedArbIndependentSet (Algorithm 1): the fast columnar
engine, and the CONGEST engine it is checked against."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.bounded_arb import (
    bounded_arb_congest,
    bounded_arb_independent_set,
)
from repro.core.parameters import compute_parameters
from repro.errors import ConfigurationError
from repro.graphs.csr import csr_from_graph
from repro.graphs.generators import bounded_arboricity_graph, starry_arboricity_graph
from repro.mis.validation import is_independent_set


class TestFastEngine:
    def test_output_is_independent(self, starry_graph):
        result = bounded_arb_independent_set(starry_graph, alpha=2, seed=1)
        assert is_independent_set(starry_graph, result.independent_set)

    def test_sets_are_disjoint(self, starry_graph):
        result = bounded_arb_independent_set(starry_graph, alpha=2, seed=1)
        i, b, r = result.independent_set, result.bad_set, result.residual
        assert not (i & b) and not (i & r) and not (b & r)

    def test_residual_not_dominated(self, starry_graph):
        # Residual nodes survived: none of them is adjacent to I (they
        # would have been eliminated).
        result = bounded_arb_independent_set(starry_graph, alpha=2, seed=1)
        for v in result.residual:
            assert not any(
                u in result.independent_set for u in starry_graph.neighbors(v)
            )

    def test_reproducible(self, starry_graph):
        a = bounded_arb_independent_set(starry_graph, alpha=2, seed=5)
        b = bounded_arb_independent_set(starry_graph, alpha=2, seed=5)
        assert a.independent_set == b.independent_set
        assert a.bad_set == b.bad_set

    def test_scale_stats_recorded(self, starry_graph):
        result = bounded_arb_independent_set(starry_graph, alpha=2, seed=1)
        assert len(result.scale_stats) == result.parameters.theta
        for stats in result.scale_stats:
            assert stats.active_after <= stats.active_before

    def test_invariant_enforced_by_construction(self, starry_graph):
        # After step 2(b) of each scale, no active node violates the
        # scale's invariant — that is exactly what "bad" removal does.
        result = bounded_arb_independent_set(starry_graph, alpha=2, seed=1)
        for stats in result.scale_stats:
            assert stats.invariant_satisfied

    def test_paper_profile_is_noop(self, arb3_graph):
        result = bounded_arb_independent_set(arb3_graph, alpha=3, seed=1, profile="paper")
        assert result.parameters.theta == 0
        assert result.independent_set == set()
        assert result.residual == set(arb3_graph.nodes())

    def test_invalid_alpha(self, arb3_graph):
        with pytest.raises(ConfigurationError):
            bounded_arb_independent_set(arb3_graph, alpha=0)

    def test_explicit_parameters_override(self, arb3_graph):
        from repro.graphs.properties import max_degree

        params = compute_parameters(3, max_degree(arb3_graph), "practical")
        result = bounded_arb_independent_set(arb3_graph, alpha=3, parameters=params)
        assert result.parameters is params

    def test_csr_input_matches_graph_input(self, starry_graph):
        from_graph = bounded_arb_independent_set(starry_graph, alpha=2, seed=4)
        from_csr = bounded_arb_independent_set(
            csr_from_graph(starry_graph), alpha=2, seed=4
        )
        assert from_csr.independent_set == from_graph.independent_set
        assert from_csr.bad_set == from_graph.bad_set
        assert from_csr.residual == from_graph.residual
        assert from_csr.scale_stats == from_graph.scale_stats

    def test_tracing_leaves_output_unchanged(self, starry_graph):
        from repro.obs.events import EVENT_SPAN
        from repro.obs.manifest import RunManifest
        from repro.obs.session import ObsSession
        from repro.obs.sinks import MemorySink
        from repro.obs.trace import SPAN_ARB_SCALE, SPAN_NAMES

        session = ObsSession(
            "unused", RunManifest(run_id="t", kind="test", created_at="t"), MemorySink()
        )
        session.enable_tracing()
        plain = bounded_arb_independent_set(starry_graph, alpha=2, seed=6)
        traced = bounded_arb_independent_set(
            starry_graph, alpha=2, seed=6, tracer=session.tracer
        )
        session.finish()
        assert traced.independent_set == plain.independent_set
        assert traced.scale_stats == plain.scale_stats
        names = [e.phase for e in session.sink.events if e.kind == EVENT_SPAN]
        assert names.count(SPAN_ARB_SCALE) == plain.parameters.theta
        assert set(names) <= SPAN_NAMES

    def test_empty_graph(self):
        result = bounded_arb_independent_set(nx.Graph(), alpha=2, seed=0)
        assert result.independent_set == set()
        assert result.bad_set == set()
        assert result.residual == set()

    def test_runs_at_scale(self):
        g = bounded_arboricity_graph(30_000, 2, seed=1)
        result = bounded_arb_independent_set(g, alpha=2, seed=1)
        assert is_independent_set(g, result.independent_set)
        assert len(result.independent_set) > 0


class TestCongestEngine:
    def test_bit_identical_to_fast(self, starry_graph):
        fast = bounded_arb_independent_set(starry_graph, alpha=2, seed=7)
        slow = bounded_arb_congest(starry_graph, alpha=2, seed=7)
        assert fast.independent_set == slow.independent_set
        assert fast.bad_set == slow.bad_set
        assert fast.residual == slow.residual
        assert fast.iterations == slow.iterations

    def test_identity_across_seeds(self, arb3_graph):
        for seed in (0, 1, 2):
            fast = bounded_arb_independent_set(arb3_graph, alpha=3, seed=seed)
            slow = bounded_arb_congest(arb3_graph, alpha=3, seed=seed)
            assert fast.independent_set == slow.independent_set
            assert fast.iterations == slow.iterations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_on_arb_graphs(self, seed):
        g = bounded_arboricity_graph(400, 3, seed=seed)
        fast = bounded_arb_independent_set(g, alpha=3, seed=seed)
        slow = bounded_arb_congest(g, alpha=3, seed=seed)
        assert fast.independent_set == slow.independent_set
        assert fast.bad_set == slow.bad_set
        assert fast.residual == slow.residual
        assert fast.iterations == slow.iterations

    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_on_starry_graphs(self, seed):
        g = starry_arboricity_graph(600, 2, hubs=4, seed=seed)
        fast = bounded_arb_independent_set(g, alpha=2, seed=seed)
        slow = bounded_arb_congest(g, alpha=2, seed=seed)
        assert fast.independent_set == slow.independent_set
        assert fast.bad_set == slow.bad_set
        assert fast.residual == slow.residual
        assert fast.iterations == slow.iterations

    def test_scale_stats_account_for_the_congest_sets(self, starry_graph):
        fast = bounded_arb_independent_set(starry_graph, alpha=2, seed=1)
        slow = bounded_arb_congest(starry_graph, alpha=2, seed=1)
        stats = fast.scale_stats
        assert [s.scale for s in stats] == list(slow.parameters.scales())
        assert sum(s.joined for s in stats) == len(slow.independent_set)
        assert sum(s.bad_added for s in stats) == len(slow.bad_set)
        assert stats[-1].active_after == len(slow.residual)
        for before, after in zip(stats, stats[1:]):
            assert after.active_before == before.active_after

    def test_congest_budget_respected(self, small_tree):
        result = bounded_arb_congest(small_tree, alpha=1, seed=2, enforce_congest=True)
        assert is_independent_set(small_tree, result.independent_set)

    def test_round_budget(self, starry_graph):
        result = bounded_arb_congest(starry_graph, alpha=2, seed=1)
        params = result.parameters
        assert result.extra["congest_rounds"] <= params.theta * (
            3 * params.lambda_iterations + 2
        )
