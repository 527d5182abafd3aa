"""Integration tests: the full pipeline across subsystems.

These exercise paths that unit tests cannot: the complete ArbMIS pipeline
under CONGEST enforcement, cross-algorithm agreement on workloads, fault
tolerance of the competition process, and the consistency between the
instrumentation modules and the algorithm they instrument.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest

from repro.congest.faults import CrashSchedule
from repro.congest.network import Network
from repro.congest.simulator import SynchronousSimulator
from repro.core.arb_mis import arb_mis
from repro.core.bounded_arb import BoundedArbNodeProgram, bounded_arb_independent_set
from repro.core.parameters import compute_parameters
from repro.core.shattering import analyze_bad_components
from repro.graphs.generators import (
    bounded_arboricity_graph,
    grid_graph,
    k_tree,
    random_maximal_planar_graph,
    random_tree,
    starry_arboricity_graph,
)
from repro.graphs.properties import max_degree
from repro.mis.engine import mis_from_outputs
from repro.mis.metivier import MetivierMIS
from repro.mis.registry import available_algorithms, get_algorithm
from repro.mis.validation import assert_valid_mis, is_independent_set


class TestFullPipelineAcrossFamilies:
    @pytest.mark.parametrize(
        "builder,alpha",
        [
            (lambda: random_tree(300, seed=1), 1),
            (lambda: bounded_arboricity_graph(300, 2, seed=1), 2),
            (lambda: bounded_arboricity_graph(300, 4, seed=1), 4),
            (lambda: random_maximal_planar_graph(200, seed=1), 3),
            (lambda: grid_graph(15, 15), 2),
            (lambda: k_tree(150, 3, seed=1), 3),
            (lambda: starry_arboricity_graph(400, 2, hubs=4, seed=1), 2),
        ],
    )
    def test_arb_mis_on_family(self, builder, alpha):
        g = builder()
        result = arb_mis(g, alpha=alpha, seed=3)
        assert_valid_mis(g, result.mis)
        assert result.congest_rounds > 0

    def test_all_registered_algorithms_agree_on_validity(self):
        g = bounded_arboricity_graph(150, 2, seed=7)
        for name in available_algorithms():
            fn = get_algorithm(name)
            kwargs = {"alpha": 2} if name == "arb-mis" else {}
            if name in ("tree-independent-set", "lenzen-wattenhofer"):
                continue  # these require a forest
            result = fn(g, seed=7, **kwargs)
            assert_valid_mis(g, result.mis)


class TestCongestComplianceEndToEnd:
    def test_bounded_arb_program_within_budget(self):
        g = starry_arboricity_graph(200, 2, hubs=3, seed=2)
        params = compute_parameters(2, max_degree(g), "practical")
        net = Network(g)
        program = BoundedArbNodeProgram(params)
        sim = SynchronousSimulator(net, seed=2, enforce_congest=True)
        run = sim.run(program, max_rounds=program.total_rounds + 3)
        assert run.metrics.congest_compliant

    def test_message_sizes_logarithmic_across_n(self):
        # max message bits should grow like log n, not n.
        sizes = []
        for n in (64, 256, 1024):
            g = bounded_arboricity_graph(n, 2, seed=1)
            net = Network(g)
            run = SynchronousSimulator(net, seed=1).run(MetivierMIS())
            sizes.append(run.metrics.max_message_bits)
        assert sizes[-1] <= sizes[0] + 40  # only the node-id component grows


class TestFaultTolerance:
    def test_metivier_on_survivors_is_mis_of_survivor_graph(self):
        g = bounded_arboricity_graph(80, 2, seed=3)
        crashed = {0, 1, 2, 3, 4}
        schedule = CrashSchedule.single(0, crashed)
        net = Network(g)
        run = SynchronousSimulator(net, seed=3, crash_schedule=schedule).run(
            MetivierMIS(), max_rounds=2000
        )
        assert run.halted
        mis = mis_from_outputs(run.outputs)
        survivor_graph = g.subgraph(set(g.nodes()) - crashed)
        assert_valid_mis(survivor_graph, mis)

    def test_mid_run_crash_keeps_independence(self):
        g = bounded_arboricity_graph(80, 2, seed=4)
        schedule = CrashSchedule.single(3, {10, 11, 12})
        net = Network(g)
        run = SynchronousSimulator(net, seed=4, crash_schedule=schedule).run(
            MetivierMIS(), max_rounds=2000
        )
        mis = mis_from_outputs(run.outputs)
        # Independence always holds; maximality only over survivors that
        # were never neighbors of a pre-crash winner.
        assert is_independent_set(g, mis)


class TestInstrumentationConsistency:
    def test_shattering_report_matches_bad_set(self):
        g = starry_arboricity_graph(400, 2, hubs=4, seed=5)
        partial = bounded_arb_independent_set(g, alpha=2, seed=5)
        report = analyze_bad_components(g, partial.bad_set)
        assert report.bad_count == len(partial.bad_set)
        assert sum(report.component_sizes) == len(partial.bad_set)

    def test_scale_stats_account_for_all_nodes(self):
        g = starry_arboricity_graph(400, 2, hubs=4, seed=6)
        partial = bounded_arb_independent_set(g, alpha=2, seed=6)
        if not partial.scale_stats:
            pytest.skip("no scales ran")
        first = partial.scale_stats[0]
        assert first.active_before == g.number_of_nodes()
        last = partial.scale_stats[-1]
        assert last.active_after == len(partial.residual)

    def test_partial_plus_finish_covers_graph(self):
        g = bounded_arboricity_graph(200, 3, seed=8)
        result = arb_mis(g, alpha=3, seed=8)
        covered = set(result.mis)
        for v in result.mis:
            covered.update(g.neighbors(v))
        assert covered == set(g.nodes())


class TestCrossAlgorithmComparisons:
    def test_all_algorithms_same_order_of_mis_size(self):
        # MIS sizes on the same graph differ by at most the Delta+1 factor
        # in theory; empirically they are close.  Guard against gross bugs.
        g = bounded_arboricity_graph(300, 2, seed=9)
        sizes = {}
        for name in ("metivier", "luby-a", "luby-b", "ghaffari"):
            sizes[name] = len(get_algorithm(name)(g, seed=9).mis)
        assert max(sizes.values()) <= 2 * min(sizes.values())

    def test_arb_mis_iterations_scale_with_parameters(self):
        # Every scale plays Λ iterations unless the graph runs out of
        # active nodes first: the paper's fixed schedule.
        g = starry_arboricity_graph(500, 2, hubs=4, seed=10)
        base = compute_parameters(2, max_degree(g), "practical")
        for lambda_iterations in (1, 2, base.lambda_iterations):
            params = dataclasses.replace(base, lambda_iterations=lambda_iterations)
            result = arb_mis(g, alpha=2, seed=10, parameters=params)
            assert_valid_mis(g, result.mis)
            partial = result.extra["report"].partial
            for stats in partial.scale_stats:
                assert stats.iterations_used <= lambda_iterations
                if stats.iterations_used < lambda_iterations:
                    assert stats.active_after == 0
            assert partial.iterations == sum(
                s.iterations_used for s in partial.scale_stats
            )
            assert partial.iterations <= params.total_iterations()
