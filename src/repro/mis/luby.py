"""Luby's MIS algorithms (1986): Algorithm A and Algorithm B.

*Algorithm A* draws, per iteration, an integer priority uniformly from
``{1, ..., n^4}`` and selects local minima (equivalently maxima; we keep
Luby's minima convention internally but expose the same competition
interface).  As the paper's footnote 1 notes, this is "essentially
identical" to Métivier et al. — the difference is only the priority range,
so ties are possible and tie-broken by node id.

*Algorithm B* — what the paper (and folklore) calls "Luby's algorithm" — is
the degree-based marking process: each active node marks itself with
probability ``1/(2 deg(v))`` (probability 1 if its active degree is 0); a
marked node joins unless a marked neighbor has strictly larger
``(degree, id)``; winners and neighbors leave.  O(log n) iterations w.h.p.

Both come in fast and CONGEST flavors with shared randomness, like every
algorithm in :mod:`repro.mis`.
"""

from __future__ import annotations

from typing import Tuple

import networkx as nx

from repro.congest.algorithm import NodeContext
from repro.congest.network import Network
from repro.congest.simulator import SynchronousSimulator
from repro.mis.engine import (
    MISResult,
    PhasedMISNodeProgram,
    competition_winners,
    mis_from_outputs,
    run_competition,
)
from repro.rng import priority_draw, uniform_draw

__all__ = [
    "luby_a_mis",
    "luby_b_mis",
    "LubyAMIS",
    "LubyBMIS",
    "luby_a_mis_congest",
    "luby_b_mis_congest",
]

_LUBY_B_TAG = 17  # rng tag separating Luby B's coin from priority draws


def _luby_a_priority(seed: int, node: int, iteration: int, n: int) -> int:
    """A uniform draw from {1, ..., n^4} derived from the 64-bit stream."""
    range_size = max(1, n) ** 4
    return 1 + priority_draw(seed, node, iteration) % range_size


def luby_a_mis(graph: nx.Graph, seed: int = 0, max_iterations: int = 10_000) -> MISResult:
    """Fast engine for Luby's Algorithm A."""
    n = graph.number_of_nodes()

    def step(iteration, active, adjacency):
        keys = {v: (_luby_a_priority(seed, v, iteration, n), v) for v in active}
        return competition_winners(active, adjacency, keys)

    return run_competition(graph, step, max_iterations).result("luby-a", seed)


class LubyAMIS(PhasedMISNodeProgram):
    """CONGEST engine for Luby's Algorithm A."""

    name = "luby-a"

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        return (_luby_a_priority(ctx.seed, ctx.node, iteration, ctx.n), ctx.node)


def luby_a_mis_congest(graph: nx.Graph, seed: int = 0, max_rounds: int = 30_000) -> MISResult:
    """Run the Algorithm A CONGEST engine and package the result."""
    network = Network(graph)
    run = SynchronousSimulator(network, seed=seed).run(LubyAMIS(), max_rounds=max_rounds)
    return MISResult(
        mis=mis_from_outputs(run.outputs),
        iterations=(run.metrics.rounds + 2) // 3,
        algorithm="luby-a-congest",
        seed=seed,
        congest_rounds=run.metrics.rounds,
        metrics=run.metrics,
        extra={"completed": run.halted},
    )


def _luby_b_marked(seed: int, node: int, iteration: int, active_degree: int) -> bool:
    """Luby B's marking coin: probability 1/(2d), or 1 when d = 0."""
    if active_degree == 0:
        return True
    return uniform_draw(seed, node, iteration, tag=_LUBY_B_TAG) < 1.0 / (2.0 * active_degree)


def luby_b_mis(graph: nx.Graph, seed: int = 0, max_iterations: int = 10_000) -> MISResult:
    """Fast engine for Luby's Algorithm B (degree-based marking).

    Key encoding: unmarked nodes play ``(0, 0, v)`` and are ineligible;
    marked nodes play ``(1, active_degree, v)``.  A marked node is a winner
    iff its key beats every active neighbor's key, which reproduces Luby's
    rule "unmark if a marked neighbor has larger (degree, id)" exactly.
    """

    def step(iteration, active, adjacency):
        degrees = {v: sum(1 for u in adjacency[v] if u in active) for v in active}
        marked = {
            v for v in active if _luby_b_marked(seed, v, iteration, degrees[v])
        }
        keys = {v: (1, degrees[v], v) if v in marked else (0, 0, v) for v in active}
        return competition_winners(active, adjacency, keys, eligible=marked)

    return run_competition(graph, step, max_iterations).result("luby-b", seed)


class LubyBMIS(PhasedMISNodeProgram):
    """CONGEST engine for Luby's Algorithm B."""

    name = "luby-b"

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        degree = len(ctx.state["active_neighbors"])
        if _luby_b_marked(ctx.seed, ctx.node, iteration, degree):
            ctx.state["marked"] = True
            return (1, degree, ctx.node)
        ctx.state["marked"] = False
        return (0, 0, ctx.node)

    def may_win(self, ctx: NodeContext, iteration: int) -> bool:
        return bool(ctx.state.get("marked"))


def luby_b_mis_congest(graph: nx.Graph, seed: int = 0, max_rounds: int = 30_000) -> MISResult:
    """Run the Algorithm B CONGEST engine and package the result."""
    network = Network(graph)
    run = SynchronousSimulator(network, seed=seed).run(LubyBMIS(), max_rounds=max_rounds)
    return MISResult(
        mis=mis_from_outputs(run.outputs),
        iterations=(run.metrics.rounds + 2) // 3,
        algorithm="luby-b-congest",
        seed=seed,
        congest_rounds=run.metrics.rounds,
        metrics=run.metrics,
        extra={"completed": run.halted},
    )
