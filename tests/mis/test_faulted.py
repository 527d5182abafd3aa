"""Tests for the fault-injected MIS orchestration (`run_under_faults`):
every engine must end with an MIS of the *surviving* subgraph, the repair
accounting must add up, and same-seed runs must be telemetry-identical.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.faults import (
    CorruptAdversary,
    CrashSchedule,
    DropAdversary,
    DuplicateAdversary,
    compose,
)
from repro.graphs.generators import bounded_arboricity_graph, random_tree
from repro.mis.faulted import run_under_faults
from repro.mis.registry import available_node_programs
from repro.mis.validation import is_maximal_independent_set
from repro.obs.events import EVENT_FAULT
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession, SimulatorObserver
from repro.obs.sinks import MemorySink
from repro.obs.summary import diff_streams

pytestmark = pytest.mark.property

ENGINES = available_node_programs()


def assert_fault_contract(graph, result):
    """The graceful-degradation contract, checked independently of the
    library's own validation: final MIS ⊆ survivors, independent and
    maximal on the surviving subgraph."""
    survivors = set(graph.nodes) - set(result.crashed)
    assert result.ok, result.summary()
    assert set(result.mis) <= survivors
    assert is_maximal_independent_set(
        graph.subgraph(survivors), set(result.mis)
    )


class TestEnginesUnderFaults:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_stop(self, engine):
        graph = random_tree(40, seed=2)
        result = run_under_faults(
            graph,
            algorithm=engine,
            seed=1,
            crash_schedule=CrashSchedule.single(2, [0, 5, 11]),
        )
        assert result.crashed == frozenset({0, 5, 11})
        assert_fault_contract(graph, result)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_message_adversary(self, engine):
        graph = bounded_arboricity_graph(50, 2, seed=3)
        result = run_under_faults(
            graph,
            algorithm=engine,
            seed=4,
            adversary=compose(DropAdversary(0.05), DuplicateAdversary(0.05)),
        )
        assert result.faults_injected > 0
        assert_fault_contract(graph, result)

    def test_crash_recovery_survivor_includes_recovered(self):
        graph = random_tree(30, seed=6)
        result = run_under_faults(
            graph,
            algorithm="metivier",
            seed=0,
            crash_schedule=CrashSchedule.parse(["2:0,1"], ["8:0"]),
        )
        assert result.recovered == frozenset({0})
        assert result.crashed == frozenset({1})
        assert_fault_contract(graph, result)

    def test_fault_free_run_needs_no_repair(self):
        graph = random_tree(25, seed=1)
        result = run_under_faults(graph, algorithm="metivier", seed=3)
        assert result.repair is None
        assert result.repair_rounds == 0
        assert result.total_rounds == result.rounds
        assert_fault_contract(graph, result)

    def test_repair_skippable_for_degradation_measurement(self):
        graph = random_tree(40, seed=2)
        result = run_under_faults(
            graph,
            algorithm="metivier",
            seed=1,
            crash_schedule=CrashSchedule.single(1, [3]),
            repair_output=False,
        )
        assert result.repair is None
        # The raw validation is still reported either way.
        assert result.validation.survivors == frozenset(set(graph.nodes) - {3})

    def test_total_rounds_adds_repair_cost(self):
        graph = random_tree(40, seed=2)
        result = run_under_faults(
            graph,
            algorithm="metivier",
            seed=1,
            crash_schedule=CrashSchedule.single(2, [0, 5, 11]),
        )
        if result.repair is not None:
            assert result.total_rounds == result.rounds + result.repair.repair_rounds

    def test_same_seed_same_result(self):
        graph = bounded_arboricity_graph(40, 2, seed=1)
        kwargs = dict(
            algorithm="ghaffari",
            seed=9,
            adversary=compose(DropAdversary(0.1), CorruptAdversary(0.02)),
            crash_schedule=CrashSchedule.single(3, [2]),
        )
        first = run_under_faults(graph, **kwargs)
        second = run_under_faults(graph, **kwargs)
        assert first.mis == second.mis
        assert first.metrics.fault_counts == second.metrics.fault_counts
        assert first.total_rounds == second.total_rounds


class TestPropertyFaultContract:
    @given(
        n=st.integers(min_value=4, max_value=32),
        graph_seed=st.integers(min_value=0, max_value=50),
        run_seed=st.integers(min_value=0, max_value=50),
        crash_round=st.integers(min_value=0, max_value=6),
        crash_picks=st.sets(st.integers(min_value=0, max_value=31), max_size=4),
        engine=st.sampled_from(ENGINES),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_engine_is_mis_of_surviving_subgraph(
        self, n, graph_seed, run_seed, crash_round, crash_picks, engine
    ):
        graph = nx.gnp_random_graph(n, 0.2, seed=graph_seed)
        crashes = {v for v in crash_picks if v < n}
        schedule = (
            CrashSchedule.single(crash_round, crashes) if crashes else None
        )
        result = run_under_faults(
            graph,
            algorithm=engine,
            seed=run_seed,
            adversary=DropAdversary(0.05),
            crash_schedule=schedule,
        )
        assert_fault_contract(graph, result)


def memory_observer():
    sink = MemorySink()
    manifest = RunManifest(run_id="t", kind="test", created_at="t")
    session = ObsSession("unused", manifest, sink)
    return SimulatorObserver(session), sink


class TestObsDeterminism:
    def test_same_seed_same_adversary_identical_streams(self):
        graph = random_tree(30, seed=4)

        def stream():
            observer, sink = memory_observer()
            run_under_faults(
                graph,
                algorithm="metivier",
                seed=7,
                adversary=compose(DropAdversary(0.1), DuplicateAdversary(0.05)),
                crash_schedule=CrashSchedule.parse(["2:1"], ["6:1"]),
                observer=observer,
            )
            return [event.to_dict() for event in sink.events]

        first, second = stream(), stream()
        diff = diff_streams(first, second)
        assert diff.identical, diff.render()
        assert any(e["kind"] == EVENT_FAULT for e in first)
