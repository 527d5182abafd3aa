"""E21 — serving under churn: incremental repair vs full recompute.

The serving layer's core bet (docs/serving.md) is that under bounded
churn, repairing the damaged neighborhood costs far fewer CONGEST rounds
per update than recomputing the MIS from scratch.  This experiment pins
that: the same seeded workload (``repro.serve.loadgen``) is applied to
two sessions — one that always repairs (``repair_damage_cap=1.0``) and
one that always recomputes (``repair_damage_cap=0.0``) — across a sweep
of churn rates, and the repaired rounds-per-update must stay below the
recompute line at every churn rate, most decisively at the highest.
Both sessions serve the greedy MIS of one fixed priority order, so they
must also commit the same MIS after every epoch.

A second table checks the recompute's depth: the parallel greedy MIS of
a random order needs O(log n) iterations (Fischer–Noever,
arXiv:1707.05124), and the recompute of an arboricity-2 graph must take
at most log₂ n of them at n = 10², 10³ and 10⁴.

Everything is deterministic (keyed RNG end to end), so the row contents
are reproducible bit-for-bit; the committed throughput baseline lives in
``benchmarks/baselines/BENCH_e21_serve.json`` and is gated by
``benchmarks/perf_gate.py --check --experiment e21`` in CI.
"""

from __future__ import annotations

import math
import time

from _common import emit
from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.graphs import bounded_arboricity_graph
from repro.mis.validation import assert_valid_mis
from repro.serve.incremental import GraphSession, Mutation
from repro.serve.loadgen import LoadGenConfig, initial_edges, mutation_batches

NODES = 400
EPOCHS = 15
CHURNS = [2, 8, 16]
SEED = 0
DEPTH_SIZES = [10**2, 10**3, 10**4]


def run_churn(mode: str, churn: int):
    """Apply the seeded workload in one maintenance mode; return stats."""
    config = LoadGenConfig(seed=SEED, nodes=NODES, epochs=EPOCHS, churn=churn)
    cap = 1.0 if mode == "repair" else 0.0
    session = GraphSession(f"e21-{mode}", seed=SEED, repair_damage_cap=cap)
    bootstrap = [Mutation("add-edge", u, v) for u, v in initial_edges(config)]
    session.apply_epoch(bootstrap)
    rounds = updates = 0
    history = []
    start = time.perf_counter()
    for batch in mutation_batches(config):
        report = session.apply_epoch(batch)
        rounds += report.rounds
        updates += report.mutations
        history.append(session.mis)
    seconds = time.perf_counter() - start
    assert_valid_mis(session.graph, set(session.mis))
    return {
        "rounds": rounds,
        "updates": updates,
        "rounds_per_update": rounds / max(1, updates),
        "mis_size": len(session.mis),
        "seconds": seconds,
        "fingerprint": session.fingerprint,
        "history": history,
    }


def test_e21_repair_beats_recompute_under_churn(benchmark):
    rows = []
    by_churn = {}
    for churn in CHURNS:
        pair = {}
        for mode in ("repair", "recompute"):
            stats = run_churn(mode, churn)
            pair[mode] = stats
            rows.append(
                {
                    "churn": churn,
                    "mode": mode,
                    "epochs": EPOCHS,
                    "rounds": stats["rounds"],
                    "rounds/update": round(stats["rounds_per_update"], 2),
                    "|MIS|": stats["mis_size"],
                    "wall s": round(stats["seconds"], 3),
                }
            )
        by_churn[churn] = pair
        # Both maintenance modes walk the graph through identical states,
        # and commit the same MIS after every epoch.
        assert (
            pair["repair"]["fingerprint"] == pair["recompute"]["fingerprint"]
        ), churn
        assert pair["repair"]["history"] == pair["recompute"]["history"], churn
    emit(
        "e21_serve_churn",
        rows,
        f"E21: rounds per update, repair vs recompute "
        f"(n={NODES}, {EPOCHS} epochs, seed={SEED})",
    )

    # The headline claim: incremental repair is cheaper per update at
    # every churn rate, including the highest.
    for churn, pair in by_churn.items():
        assert (
            pair["repair"]["rounds_per_update"]
            < pair["recompute"]["rounds_per_update"]
        ), (churn, pair["repair"]["rounds_per_update"],
            pair["recompute"]["rounds_per_update"])

    benchmark.pedantic(
        lambda: run_churn("repair", CHURNS[-1]), rounds=3, iterations=1
    )


def test_e21_repair_cost_tracks_churn_not_graph_size():
    """Repair rounds should scale with damage, not with n: doubling the
    graph at fixed churn must not double the repaired rounds."""
    totals = {}
    for nodes in (NODES, 2 * NODES):
        config = LoadGenConfig(seed=SEED, nodes=nodes, epochs=10, churn=4)
        session = GraphSession("e21-local", seed=SEED, repair_damage_cap=1.0)
        session.apply_epoch(
            [Mutation("add-edge", u, v) for u, v in initial_edges(config)]
        )
        totals[nodes] = sum(
            session.apply_epoch(batch).rounds
            for batch in mutation_batches(config)
        )
    assert totals[2 * NODES] < 2 * totals[NODES], totals


def test_e21_recompute_depth_is_logarithmic():
    """The recompute is the parallel greedy MIS of a random order: its
    iteration count (3 rounds each) is the greedy depth, ≤ log₂ n."""
    rows = []
    for n in DEPTH_SIZES:
        graph = bounded_arboricity_graph(n, 2, seed=SEED)
        session = GraphSession("e21-depth", seed=SEED, repair_damage_cap=0.0)
        report = session.apply_epoch(
            [Mutation("add-node", v) for v in graph]
            + [Mutation("add-edge", u, v) for u, v in graph.edges]
        )
        assert report.mode == "recompute"
        iterations = report.rounds // ROUNDS_PER_ITERATION
        rows.append(
            {
                "n": n,
                "iterations": iterations,
                "log2 n": round(math.log2(n), 2),
                "|MIS|": report.mis_size,
            }
        )
        assert iterations <= math.log2(n), (n, iterations)
    emit(
        "e21_serve_depth",
        rows,
        f"E21: recompute iterations vs log2 n (arboricity 2, seed={SEED})",
    )
