"""The MIS algorithm of Métivier, Robson, Saheb-Djahromi and Zemmari.

This is the primitive inside every tree/arboricity algorithm the paper
discusses: in each iteration every still-active node ``v`` draws a priority
``r(v)`` uniformly at random and joins the MIS iff ``r(v)`` exceeds the
priorities of all still-active neighbors; winners and their neighbors then
leave.  O(log n) iterations suffice w.h.p.

Priorities here are 64-bit integers (see :mod:`repro.rng` and DESIGN.md §3
substitution 2) with node-id tie-breaking, which keeps messages at
O(log n) bits and the process distribution equal to the real-valued version
up to 2^-64 tie events.

Two engines (DESIGN.md §4): :func:`metivier_mis` (fast) and
:class:`MetivierMIS` (CONGEST); identical seeds give identical MIS outputs.
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
from repro.rng import priority_draw

__all__ = ["metivier_mis", "MetivierMIS", "metivier_mis_congest"]


def metivier_mis(
    graph: nx.Graph,
    seed: int = 0,
    max_iterations: int = 10_000,
) -> MISResult:
    """Fast engine: run Métivier et al. to completion.

    Returns a :class:`MISResult` whose ``iterations`` counts priority
    exchanges (each costs 3 CONGEST rounds; the CONGEST engine reports the
    exact round count).
    """

    def step(iteration, active, adjacency):
        keys = {v: (priority_draw(seed, v, iteration), v) for v in active}
        return competition_winners(active, adjacency, keys)

    return run_competition(graph, step, max_iterations).result("metivier", seed)


class MetivierMIS(PhasedMISNodeProgram):
    """CONGEST engine: the same process as a node program.

    Keys are ``(priority, node)`` with the priority drawn from
    ``(seed, node, iteration)`` — the identical stream the fast engine uses.
    """

    name = "metivier"

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        return (priority_draw(ctx.seed, ctx.node, iteration), ctx.node)


def metivier_mis_congest(
    graph: nx.Graph,
    seed: int = 0,
    max_rounds: int = 30_000,
    enforce_congest: bool = False,
) -> MISResult:
    """Run the CONGEST engine and package the result as a :class:`MISResult`."""
    network = Network(graph)
    simulator = SynchronousSimulator(network, seed=seed, enforce_congest=enforce_congest)
    run = simulator.run(MetivierMIS(), max_rounds=max_rounds)
    mis = mis_from_outputs(run.outputs)
    iterations = (run.metrics.rounds + 2) // 3
    return MISResult(
        mis=mis,
        iterations=iterations,
        algorithm="metivier-congest",
        seed=seed,
        congest_rounds=run.metrics.rounds,
        metrics=run.metrics,
        extra={"completed": run.halted},
    )
