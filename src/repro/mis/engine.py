"""Shared machinery for the dual-engine MIS implementations.

The randomized MIS algorithms in this library are all *competition
processes*: in each iteration every still-active node gets a comparable
key, locally-maximal nodes join the MIS, and winners plus their neighbors
leave the graph.  This module holds the pieces they share:

* :class:`MISResult` — the uniform return type (MIS, iteration count,
  CONGEST round count and metrics when available, per-iteration history);
* :func:`active_adjacency` — mutable adjacency for the fast engines;
* :func:`competition_winners` / :func:`eliminate_winners` — one iteration
  of the competition process;
* :func:`run_competition` — the scalar loop that repeats that iteration
  until no node is active or the budget runs out; each algorithm supplies
  only its per-iteration winner rule;
* :class:`PhasedMISNodeProgram` — the CONGEST skeleton implementing the
  3-round iteration structure (priorities → join announcements → leave
  announcements) that Luby A, Métivier, Ghaffari and the paper's algorithm
  all share.

Keys are tuples whose last component is the node id, so keys are unique and
"strictly greater than every neighbor" is well defined even under the
astronomically unlikely 64-bit priority collision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.metrics import RunMetrics

__all__ = [
    "MISResult",
    "active_adjacency",
    "competition_winners",
    "eliminate_winners",
    "CompetitionRun",
    "run_competition",
    "PhasedMISNodeProgram",
    "PHASE_KEYS",
    "PHASE_DECIDE",
    "PHASE_NOTIFY",
]

#: The three phases of one logical iteration in the CONGEST programs.
PHASE_KEYS = 0  # exchange competition keys
PHASE_DECIDE = 1  # local maxima join and announce
PHASE_NOTIFY = 2  # dominated nodes announce departure


@dataclass
class MISResult:
    """Output of any MIS algorithm in this library."""

    mis: Set[int]
    iterations: int
    algorithm: str
    seed: int
    congest_rounds: Optional[int] = None
    metrics: Optional[RunMetrics] = None
    active_history: List[int] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.mis)

    def summary(self) -> str:
        parts = [
            f"{self.algorithm}: |MIS|={self.size}",
            f"iterations={self.iterations}",
        ]
        if self.congest_rounds is not None:
            parts.append(f"congest_rounds={self.congest_rounds}")
        return " ".join(parts)


def active_adjacency(graph: nx.Graph) -> Dict[int, Set[int]]:
    """Mutable adjacency-dict copy used by the fast engines."""
    return {v: set(graph.neighbors(v)) for v in graph.nodes()}


def competition_winners(
    active: Set[int],
    adjacency: Dict[int, Set[int]],
    keys: Dict[int, Tuple],
    eligible: Optional[Set[int]] = None,
) -> Set[int]:
    """One competition step: nodes whose key beats every active neighbor's.

    ``eligible`` restricts who may *win* (e.g. the paper's non-competitive
    high-degree nodes still hold a key — the all-zero one — but can never
    join).  Keys must be unique, which the node-id last component ensures.
    """
    winners: Set[int] = set()
    for v in active:
        if eligible is not None and v not in eligible:
            continue
        key = keys[v]
        if all(keys[u] < key for u in adjacency[v] if u in active):
            winners.add(v)
    return winners


def eliminate_winners(
    active: Set[int],
    adjacency: Dict[int, Set[int]],
    winners: Set[int],
) -> Set[int]:
    """Remove winners and their neighbors from ``active`` (in place).

    Returns the set of nodes removed (winners ∪ their active neighbors).
    Adjacency sets of surviving nodes are pruned so future degree queries
    see only active neighbors.
    """
    removed: Set[int] = set()
    for w in winners:
        removed.add(w)
        removed.update(u for u in adjacency[w] if u in active)
    active -= removed
    for gone in removed:
        for u in adjacency[gone]:
            adjacency[u].discard(gone)
        adjacency[gone] = set()
    return removed


#: One competition iteration: ``step(iteration, active, adjacency)``
#: returns the winners; :func:`run_competition` removes them and their
#: neighbours.
CompetitionStep = Callable[[int, Set[int], Dict[int, Set[int]]], Set[int]]


@dataclass
class CompetitionRun:
    """What :func:`run_competition` produced."""

    mis: Set[int]
    iterations: int
    #: Nodes still active when the loop stopped (empty iff it completed).
    active: Set[int]
    #: Active-node count at the start of each iteration.
    history: List[int]

    def result(self, algorithm: str, seed: int, **extra: Any) -> MISResult:
        """Package as an :class:`MISResult` with ``extra["completed"]``."""
        return MISResult(
            mis=self.mis,
            iterations=self.iterations,
            algorithm=algorithm,
            seed=seed,
            active_history=self.history,
            extra={"completed": not self.active, **extra},
        )


def run_competition(
    graph: nx.Graph, step: CompetitionStep, max_iterations: int
) -> CompetitionRun:
    """The scalar competition loop over every node of ``graph``.

    Each iteration records the active count, asks ``step`` for the
    winners, adds them to the MIS and eliminates them with their active
    neighbours, until no node is active or ``max_iterations`` iterations
    have run.  ``step`` may raise to stop the run early.
    """
    adjacency = active_adjacency(graph)
    active: Set[int] = set(graph.nodes())
    mis: Set[int] = set()
    history: List[int] = []
    iteration = 0
    while active and iteration < max_iterations:
        history.append(len(active))
        winners = step(iteration, active, adjacency)
        mis |= winners
        eliminate_winners(active, adjacency, winners)
        iteration += 1
    return CompetitionRun(mis, iteration, active, history)


class PhasedMISNodeProgram(NodeAlgorithm):
    """CONGEST skeleton for 3-round-per-iteration competition algorithms.

    Subclasses override :meth:`competition_key` (and optionally
    :meth:`may_win` and :meth:`on_iteration_end`).  The skeleton maintains
    each node's view of its still-active neighborhood, runs the
    keys → decide → notify phase cycle, and halts nodes with output
    ``("mis", iteration)`` or ``("dominated", iteration)``.

    Round ``r`` of the simulator corresponds to iteration ``r // 3``, phase
    ``r % 3``; competition keys for iteration ``t`` must be drawn from
    ``(seed, node, t)`` so the fast engine reproduces them exactly.
    """

    name = "phased-mis"

    # -- subclass hooks ------------------------------------------------------

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        """The comparable key this node plays in ``iteration``.

        Must be unique across nodes (include ``ctx.node`` as the last
        component) and computable from local state + the shared seed.
        """
        raise NotImplementedError

    def may_win(self, ctx: NodeContext, iteration: int) -> bool:
        """Whether this node is eligible to join in ``iteration``."""
        return True

    def wins(
        self,
        ctx: NodeContext,
        iteration: int,
        my_key: Tuple,
        neighbor_keys: Dict[int, Tuple],
    ) -> bool:
        """The join rule.  Default: strict local maximum among active keys.

        Ghaffari's algorithm overrides this (a marked node joins only if
        *no* neighbor is marked, regardless of key order).
        """
        return self.may_win(ctx, iteration) and all(
            k < my_key for k in neighbor_keys.values()
        )

    def on_iteration_end(self, ctx: NodeContext, iteration: int, neighbor_keys: Dict[int, Tuple]) -> None:
        """Hook after the decide phase (e.g. Ghaffari's desire update)."""

    # -- skeleton -------------------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["active_neighbors"] = set(ctx.neighbors)
        ctx.state["my_key"] = None
        ctx.state["neighbor_keys"] = {}

    def on_round(self, ctx: NodeContext, inbox) -> None:
        phase = ctx.round_index % 3
        iteration = ctx.round_index // 3
        active: Set[int] = ctx.state["active_neighbors"]

        if phase == PHASE_KEYS:
            # Leave-announcements from the previous iteration arrive here.
            for message in inbox:
                if message.payload[0] == "leave":
                    active.discard(message.sender)
            key = self.competition_key(ctx, iteration)
            ctx.state["my_key"] = key
            ctx.state["neighbor_keys"] = {}
            for u in active:
                ctx.send(u, ("key",) + tuple(key))

        elif phase == PHASE_DECIDE:
            neighbor_keys = {
                message.sender: tuple(message.payload[1:])
                for message in inbox
                if message.payload[0] == "key" and message.sender in active
            }
            ctx.state["neighbor_keys"] = neighbor_keys
            my_key = ctx.state["my_key"]
            if self.wins(ctx, iteration, my_key, neighbor_keys):
                for u in active:
                    ctx.send(u, ("join",))
                ctx.halt(("mis", iteration))
                return
            self.on_iteration_end(ctx, iteration, neighbor_keys)

        else:  # PHASE_NOTIFY
            if any(message.payload[0] == "join" for message in inbox):
                joined = {
                    message.sender
                    for message in inbox
                    if message.payload[0] == "join"
                }
                active -= joined
                for u in active:
                    ctx.send(u, ("leave",))
                ctx.halt(("dominated", iteration))


def mis_from_outputs(outputs: Dict[int, Any]) -> Set[int]:
    """Extract the MIS from a :class:`RunResult`'s outputs mapping."""
    return {v for v, out in outputs.items() if out is not None and out[0] == "mis"}
