"""Tests for the serving layer's algorithmic core: mutations, update
repair, transactional epochs, and the incremental → recompute ladder."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.mis.validation import assert_valid_mis
from repro.serve.errors import BadRequestError
from repro.serve.incremental import (
    ComputeAborted,
    GraphSession,
    Mutation,
    RepairBudgetExceeded,
    apply_mutations,
    graph_fingerprint,
    mutations_from_records,
    rollback_mutations,
    update_repair,
)


def _raw_mutation(op, u, v=None):
    """A Mutation bypassing __post_init__ validation (tests only)."""
    m = object.__new__(Mutation)
    object.__setattr__(m, "op", op)
    object.__setattr__(m, "u", u)
    object.__setattr__(m, "v", v)
    return m


class TestMutation:
    def test_unknown_op_rejected(self):
        with pytest.raises(BadRequestError):
            Mutation("frobnicate", 1)

    def test_edge_ops_need_both_endpoints(self):
        with pytest.raises(BadRequestError):
            Mutation("add-edge", 1)

    def test_round_trips_through_dict(self):
        m = Mutation("add-edge", 1, 2)
        assert Mutation.from_dict(m.to_dict()) == m

    def test_self_loop_rejected_at_parse_time(self):
        # Parse-time rejection: a self-loop must never reach a batch
        # where it could fail mid-application.
        with pytest.raises(BadRequestError):
            Mutation("add-edge", 3, 3)
        with pytest.raises(BadRequestError):
            Mutation.from_dict({"op": "add-edge", "u": 3, "v": 3})

    def test_malformed_record_rejected(self):
        with pytest.raises(BadRequestError):
            Mutation.from_dict({"op": "add-edge", "u": "x", "v": 2})
        with pytest.raises(BadRequestError):
            mutations_from_records([{"u": 1}])


class TestApplyMutations:
    def test_damaged_set_covers_endpoints(self):
        g = nx.path_graph(4)
        damaged = apply_mutations(g, [Mutation("add-edge", 0, 3)])
        assert damaged == {0, 3}

    def test_removed_node_damages_former_neighbors(self):
        g = nx.star_graph(4)  # hub 0
        damaged = apply_mutations(g, [Mutation("remove-node", 0)])
        assert damaged == {1, 2, 3, 4}
        assert not g.has_node(0)

    def test_idempotent_noops(self):
        g = nx.path_graph(3)
        damaged = apply_mutations(
            g,
            [
                Mutation("add-edge", 0, 1),  # already present
                Mutation("remove-edge", 0, 2),  # absent
                Mutation("remove-node", 99),  # unknown
            ],
        )
        # Present-edge re-adds still touch the endpoints; true no-ops don't.
        assert damaged == {0, 1}
        assert sorted(g.edges) == [(0, 1), (1, 2)]

    def test_self_loop_rejected_at_apply_time(self):
        # Defense in depth behind the parse-time check: a mutation built
        # outside the validating constructor still cannot apply.
        with pytest.raises(BadRequestError):
            apply_mutations(nx.Graph(), [_raw_mutation("add-edge", 5, 5)])

    def test_rollback_restores_graph_exactly(self):
        g = nx.gnp_random_graph(20, 0.2, seed=1)
        before_fp = graph_fingerprint(g)
        undo = []
        apply_mutations(
            g,
            [
                Mutation("add-edge", 0, 19),
                Mutation("add-edge", 100, 101),  # creates both nodes
                Mutation("remove-node", 3),
                Mutation("remove-edge", 1, 2),
                Mutation("add-node", 55),
                Mutation("remove-node", 55),
            ],
            undo=undo,
        )
        rollback_mutations(g, undo)
        assert graph_fingerprint(g) == before_fp


class TestUpdateRepair:
    def test_empty_damage_is_free(self):
        g = nx.path_graph(5)
        report = update_repair(g, {0, 2, 4}, set(), seed=0, epoch=0)
        assert report.repair_rounds == 0
        assert report.mis == frozenset({0, 2, 4})

    def test_inserted_edge_conflict_is_repaired(self):
        g = nx.path_graph(5)
        g.add_edge(0, 2)
        report = update_repair(g, {0, 2, 4}, {0, 2}, seed=0, epoch=0)
        assert_valid_mis(g, set(report.mis))
        assert len(report.evicted) == 1
        assert report.repair_rounds >= 1

    def test_deleted_dominator_recovers_coverage(self):
        g = nx.path_graph(5)
        g.remove_node(2)  # 2 dominated 1 and 3
        report = update_repair(g, {0, 4}, {1, 3}, seed=0, epoch=0)
        assert_valid_mis(g, set(report.mis))

    def test_round_accounting(self):
        g = nx.path_graph(6)
        g.add_edge(0, 2)
        report = update_repair(g, {0, 2, 4}, {0, 2}, seed=0, epoch=0)
        assert (
            report.repair_rounds
            == 1 + ROUNDS_PER_ITERATION * report.iterations
        )

    def test_repair_is_local(self):
        # Damage at one end of a long path leaves the far end untouched.
        g = nx.path_graph(30)
        mis = set(range(0, 30, 2))
        g.add_edge(0, 2)
        report = update_repair(g, mis, {0, 2}, seed=0, epoch=0)
        assert set(range(10, 30, 2)) <= report.mis

    def test_epoch_keys_differ(self):
        g = nx.gnp_random_graph(25, 0.2, seed=2)
        mis = set()
        damaged = set(g.nodes)
        a = update_repair(g, mis, damaged, seed=7, epoch=0)
        b = update_repair(g, mis, damaged, seed=7, epoch=1)
        again = update_repair(g, mis, damaged, seed=7, epoch=0)
        assert a.mis == again.mis  # same epoch → same coins
        assert_valid_mis(g, set(b.mis))

    def test_budget_exceeded_raises(self):
        g = nx.gnp_random_graph(30, 0.3, seed=3)
        with pytest.raises(RepairBudgetExceeded):
            update_repair(g, set(), set(g.nodes), seed=0, epoch=0, max_iterations=0)

    def test_cooperative_abort(self):
        g = nx.gnp_random_graph(30, 0.3, seed=3)
        with pytest.raises(ComputeAborted):
            update_repair(
                g, set(), set(g.nodes), seed=0, epoch=0,
                should_abort=lambda: True,
            )


class TestGraphSession:
    def test_epochs_maintain_validity(self):
        session = GraphSession("s", seed=1)
        session.apply_epoch([Mutation("add-edge", u, u + 1) for u in range(10)])
        for epoch in range(5):
            session.apply_epoch([Mutation("add-edge", 2 * epoch, 2 * epoch + 5)])
            assert_valid_mis(session.graph, set(session.mis))

    def test_damage_cap_forces_recompute(self):
        session = GraphSession("s", seed=1, repair_damage_cap=0.1)
        report = session.apply_epoch(
            [Mutation("add-edge", u, u + 1) for u in range(20)]
        )
        assert report.mode == "recompute"
        assert session.recomputes == 1

    def test_small_damage_repairs_incrementally(self):
        session = GraphSession(
            "s", seed=1, graph=nx.gnp_random_graph(40, 0.1, seed=4)
        )
        report = session.apply_epoch([Mutation("add-edge", 0, 1)])
        assert report.mode == "repair"
        assert report.rounds <= 1 + ROUNDS_PER_ITERATION * report.damaged

    def test_failed_epoch_rolls_back(self):
        session = GraphSession(
            "s", seed=1, graph=nx.gnp_random_graph(30, 0.15, seed=5)
        )
        fp = session.fingerprint
        mis = session.mis
        epoch = session.epoch
        with pytest.raises(ComputeAborted):
            session.apply_epoch(
                [Mutation("add-edge", 0, 9), Mutation("remove-node", 3)],
                should_abort=lambda: True,
            )
        assert session.fingerprint == fp
        assert session.mis == mis
        assert session.epoch == epoch
        # And the replay commits cleanly.
        report = session.apply_epoch(
            [Mutation("add-edge", 0, 9), Mutation("remove-node", 3)]
        )
        assert report.epoch == epoch + 1

    def test_mid_batch_failure_rolls_back_whole_batch(self):
        # A mutation that raises at apply time (validation bypassed to
        # simulate it) must not leave earlier batch members applied:
        # the epoch either commits whole or leaves no trace.
        session = GraphSession("s", seed=1, graph=nx.path_graph(6))
        fp = session.fingerprint
        mis = session.mis
        epoch = session.epoch
        with pytest.raises(BadRequestError):
            session.apply_epoch(
                [Mutation("add-edge", 0, 2), _raw_mutation("add-edge", 3, 3)]
            )
        assert not session.graph.has_edge(0, 2)
        assert session.fingerprint == fp
        assert session.mis == mis
        assert session.epoch == epoch
        # The session is not bricked: the next clean epoch commits.
        report = session.apply_epoch([Mutation("add-edge", 0, 5)])
        assert report.epoch == epoch + 1

    def test_same_seed_sessions_identical(self):
        batches = [
            [Mutation("add-edge", u, u + 3) for u in range(e, e + 4)]
            for e in range(6)
        ]
        finals = []
        for _ in range(2):
            session = GraphSession("s", seed=9)
            reports = [session.apply_epoch(batch) for batch in batches]
            finals.append((session.mis, [r.rounds for r in reports]))
        assert finals[0] == finals[1]

    def test_empty_graph_session(self):
        session = GraphSession("s", seed=0)
        report = session.apply_epoch([])
        assert report.mis_size == 0
        assert report.rounds == 0
