"""Incremental MIS maintenance under churn — the serving layer's core.

Each session fixes one priority per node,

    π(v) = (priority_draw(seed, v, 0, tag=53), v),

and serves the **greedy MIS of that order**: ``v`` is a member iff no
higher-π neighbour is.  That set is a function of the current graph and
the session seed alone — not of the mutation history, of how mutations
were batched into epochs, or of whether repair or recompute produced it.
It is what Métivier's competition computes when every node keeps its
first key instead of redrawing one per iteration: the parallel
randomized greedy MIS, whose depth is O(log n) (Fischer–Noever,
arXiv:1707.05124) and which changes O(1) nodes per update in expectation
(Censor-Hillel–Haramaty–Karnin, arXiv:1507.04330).  Any node can compute
any neighbour's π from its id, so no key is ever exchanged.

**Round accounting.**  :func:`update_repair` runs synchronous *waves*,
and each wave is one CONGEST round:

* wave 1 re-evaluates the damaged nodes (mutation endpoints, inserted
  nodes, former neighbours of deleted nodes) against their higher-π
  neighbours' membership;
* each later wave re-evaluates the lower-π neighbours of the nodes that
  flipped in the wave before — the flip is the one message they receive;
* the repair ends after a wave that leaves nobody to re-evaluate: nothing
  flipped in it, or no node that flipped has a lower-π neighbour.

``repair_rounds`` is the number of waves, and nothing else is charged.
A full recompute (:meth:`GraphSession._recompute`) runs the scalar
competition loop :func:`repro.mis.engine.run_competition` with every key
fixed at π(v), charged ``ROUNDS_PER_ITERATION`` rounds per iteration.
It returns the same set, so the damage cap and the wave budget decide
what an epoch costs, never what it commits.

:class:`GraphSession` owns one named dynamic graph: transactional
epochs, the repair → recompute fallback when the damage fraction or the
wave budget is exceeded, and ``assert_valid_mis`` after *every* epoch.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.errors import ReproError
from repro.mis.engine import competition_winners, run_competition
from repro.mis.validation import assert_valid_mis
from repro.obs.trace import SPAN_SERVE_RECOMPUTE, SPAN_SERVE_REPAIR
from repro.rng import priority_draw
from repro.serve.errors import BadRequestError

__all__ = [
    "Mutation",
    "UpdateRepairReport",
    "EpochReport",
    "GraphSession",
    "RepairBudgetExceeded",
    "ComputeAborted",
    "apply_mutations",
    "rollback_mutations",
    "update_repair",
    "graph_fingerprint",
    "priority",
    "wire_int",
    "MUTATION_OPS",
]

#: Keyed-RNG tag of the session priority π; distinct from the crash
#: repair tag (47) and the finishing tags (41/43) so churn repair never
#: replays another stage's coins.
_UPDATE_TAG = 53

MUTATION_OPS = ("add-node", "remove-node", "add-edge", "remove-edge")


class RepairBudgetExceeded(ReproError):
    """Internal signal: incremental repair would exceed its wave budget.

    Callers (the session's epoch loop) catch this and fall back to a
    full recompute — it never escapes the serving layer.
    """


class ComputeAborted(ReproError):
    """Cooperative cancellation: the abort callback returned True.

    Raised before a repair wave or a recompute; the server maps it to a
    ``deadline-exceeded`` response.
    """


def wire_int(value: Any, what: str) -> int:
    """A node id or seed read off the wire: an ``int`` that is not a ``bool``.

    ``int()`` would quietly read ``1.9`` as node 1 and ``true`` as node 1;
    anything but a plain integer is a :class:`BadRequestError` instead.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{what} must be an integer, got {value!r}")
    return value


def priority(seed: int, node: int) -> Tuple[int, int]:
    """π(node): the fixed priority the session's greedy MIS is ordered by."""
    return (priority_draw(seed, node, 0, tag=_UPDATE_TAG), node)


@dataclass(frozen=True)
class Mutation:
    """One graph update: an edge or node insert/delete.

    Mutations are **idempotent**: adding a present edge, deleting an
    absent one, or deleting an unknown node is a no-op, which makes
    coalesced batches insensitive to duplication and reordering races
    in open-loop traffic.
    """

    op: str
    u: int
    v: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise BadRequestError(
                f"unknown mutation op {self.op!r}; use one of {MUTATION_OPS}"
            )
        if self.op.endswith("-edge"):
            if self.v is None:
                raise BadRequestError(f"{self.op} requires both endpoints")
            if self.u == self.v:
                raise BadRequestError(
                    f"self-loop {self.u}-{self.v} is not a graph edge"
                )

    @classmethod
    def from_dict(cls, record: Dict) -> "Mutation":
        try:
            return cls(
                op=record["op"],
                u=wire_int(record["u"], "u"),
                v=wire_int(record["v"], "v") if record.get("v") is not None else None,
            )
        except (KeyError, TypeError, BadRequestError) as exc:
            raise BadRequestError(f"malformed mutation {record!r}: {exc}") from None

    def to_dict(self) -> Dict:
        out: Dict = {"op": self.op, "u": self.u}
        if self.v is not None:
            out["v"] = self.v
        return out


def graph_fingerprint(graph: nx.Graph) -> str:
    """Content hash of a graph: the ``fingerprint`` of every snapshot.

    Hashes the sorted node and edge lists, so isomorphic-but-relabeled
    graphs differ and mutation no-ops leave the fingerprint unchanged.
    """
    digest = hashlib.sha256()
    for v in sorted(graph.nodes):
        digest.update(b"n%d;" % v)
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        digest.update(b"e%d-%d;" % (u, v))
    return digest.hexdigest()[:16]


def apply_mutations(
    graph: nx.Graph,
    mutations: Sequence[Mutation],
    undo: Optional[List[Tuple]] = None,
) -> Set[int]:
    """Apply a mutation batch in place; return the damaged node set.

    The damaged set is every node whose membership or domination status
    could have changed: endpoints of inserted/deleted edges, inserted
    nodes, and the former neighbors of deleted nodes.  Deleted nodes
    themselves are *not* damaged (they no longer exist).

    When ``undo`` is given, an inverse record is appended for every
    *effective* change (no-ops record nothing), so a failed epoch can
    roll the graph back with :func:`rollback_mutations` — an epoch
    either commits whole or leaves no trace.
    """
    damaged: Set[int] = set()
    for m in mutations:
        if m.op == "add-node":
            if not graph.has_node(m.u):
                graph.add_node(m.u)
                if undo is not None:
                    undo.append(("del-node", m.u, None, ()))
            damaged.add(m.u)
        elif m.op == "remove-node":
            if graph.has_node(m.u):
                damaged.update(graph.neighbors(m.u))
                if undo is not None:
                    undo.append(
                        ("restore-node", m.u, None, tuple(graph.edges(m.u)))
                    )
                graph.remove_node(m.u)
            damaged.discard(m.u)
        elif m.op == "add-edge":
            if m.u == m.v:
                raise BadRequestError(f"self-loop {m.u}-{m.v} is not a graph edge")
            if not graph.has_edge(m.u, m.v):
                fresh = tuple(
                    v for v in (m.u, m.v) if not graph.has_node(v)
                )
                graph.add_edge(m.u, m.v)
                if undo is not None:
                    undo.append(("del-edge", m.u, m.v, fresh))
            damaged.update((m.u, m.v))
        else:  # remove-edge
            if graph.has_edge(m.u, m.v):
                graph.remove_edge(m.u, m.v)
                if undo is not None:
                    undo.append(("restore-edge", m.u, m.v, ()))
                damaged.update((m.u, m.v))
    return {v for v in damaged if graph.has_node(v)}


def rollback_mutations(graph: nx.Graph, undo: List[Tuple]) -> None:
    """Undo an :func:`apply_mutations` log (inverse ops, reverse order)."""
    for kind, u, v, extra in reversed(undo):
        if kind == "del-node":
            graph.remove_node(u)
        elif kind == "restore-node":
            graph.add_node(u)
            graph.add_edges_from(extra)
        elif kind == "del-edge":
            graph.remove_edge(u, v)
            for node in extra:  # endpoints the edge insertion created
                graph.remove_node(node)
        else:  # restore-edge
            graph.add_edge(u, v)


@dataclass(frozen=True)
class UpdateRepairReport:
    """What one incremental-repair pass changed and what it cost."""

    mis: frozenset
    #: Members that left the MIS (deleted nodes are not counted).
    evicted: frozenset
    #: Nodes that joined the MIS.
    added: frozenset
    #: CONGEST rounds distributed: one per wave.
    repair_rounds: int
    damaged: int


def update_repair(
    graph: nx.Graph,
    mis: Set[int],
    damaged: Set[int],
    seed: int,
    max_iterations: int = 10_000,
    should_abort: Optional[Callable[[], bool]] = None,
) -> UpdateRepairReport:
    """Restore the π-greedy MIS after mutations that damaged ``damaged``.

    ``mis`` is the π-greedy MIS of the graph before the mutations (nodes
    deleted since may still be in it).  Only the damaged nodes can
    disagree with their higher-π neighbours, so the waves of the module
    docstring start there and spread only along flips, toward lower π:
    the cost scales with the churn, not the graph.  Raises
    :class:`RepairBudgetExceeded` when a wave is still due after
    ``max_iterations`` waves, and :class:`ComputeAborted` when
    ``should_abort`` fires before a wave (cooperative cancellation).
    """
    members = {v for v in mis if graph.has_node(v)}
    changed: Set[int] = set()
    keys: Dict[int, Tuple[int, int]] = {}

    def key(v: int) -> Tuple[int, int]:
        if v not in keys:
            keys[v] = priority(seed, v)
        return keys[v]

    frontier = damaged
    waves = 0
    while frontier:
        if waves == max_iterations:
            raise RepairBudgetExceeded(
                f"update repair exceeded {max_iterations} wave(s)"
            )
        if should_abort is not None and should_abort():
            raise ComputeAborted(f"update repair aborted before wave {waves + 1}")
        waves += 1
        # Synchronous: every node reads the membership the wave started
        # with.  A node flips when it is a member with a higher-π member
        # neighbour, or a non-member without one.
        flipped = [
            v
            for v in frontier
            if (v in members)
            == any(u in members and key(u) > key(v) for u in graph.adj[v])
        ]
        members.symmetric_difference_update(flipped)
        changed.symmetric_difference_update(flipped)
        frontier = {u for v in flipped for u in graph.adj[v] if key(u) < key(v)}

    return UpdateRepairReport(
        mis=frozenset(members),
        evicted=frozenset(changed - members),
        added=frozenset(changed & members),
        repair_rounds=waves,
        damaged=len(damaged),
    )


@dataclass
class EpochReport:
    """Outcome of committing one coalesced mutation batch."""

    epoch: int
    #: ``"repair"`` (incremental) or ``"recompute"`` (budget fallback).
    mode: str
    mutations: int
    damaged: int
    #: CONGEST-round cost of this epoch: the repair's waves, or
    #: ``ROUNDS_PER_ITERATION`` per recompute iteration.
    rounds: int
    #: Members that left the MIS, and nodes that joined it (repair only).
    evicted: int
    added: int
    mis_size: int
    fingerprint: str


class GraphSession:
    """One named dynamic graph and the π-greedy MIS of its current state.

    The session is the compute half of the serving layer: it owns the
    graph, the current MIS, the epoch counter, and the incremental →
    recompute half of the degradation ladder, whose two rungs commit the
    same set.  It is synchronous and single-writer — the asyncio service
    serializes epochs per session (coalescing concurrent mutations into
    one epoch) and runs them on an executor.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        graph: Optional[nx.Graph] = None,
        repair_iteration_budget: int = 10_000,
        repair_damage_cap: float = 1.0,
    ):
        self.name = name
        self.seed = seed
        self.graph = graph if graph is not None else nx.Graph()
        self.epoch = 0
        #: Optional span tracer (set by the service); spans are recorded
        #: around the synchronous compute only, where nesting is strict.
        self.tracer = None
        self.repair_iteration_budget = repair_iteration_budget
        self.repair_damage_cap = repair_damage_cap
        self.mis: frozenset = frozenset()
        self.total_repair_rounds = 0
        self.total_recompute_rounds = 0
        self.repairs = 0
        self.recomputes = 0
        self._fingerprint: Optional[str] = None
        if self.graph.number_of_nodes():
            self._recompute(should_abort=None)

    # -- identity -------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Current graph content hash (cached until the next mutation)."""
        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    # -- compute --------------------------------------------------------------

    def _recompute(self, should_abort: Optional[Callable[[], bool]]) -> int:
        """Full recompute: the competition with every key fixed at π(v).

        Returns its round cost.  The highest-π active node wins every
        iteration, so ``n`` iterations always suffice.
        """
        if should_abort is not None and should_abort():
            raise ComputeAborted("recompute aborted before start")
        keys = {v: priority(self.seed, v) for v in self.graph}
        run = run_competition(
            self.graph,
            lambda _, active, adjacency: competition_winners(active, adjacency, keys),
            max_iterations=self.graph.number_of_nodes(),
        )
        self.mis = frozenset(run.mis)
        return ROUNDS_PER_ITERATION * run.iterations

    def _span(self, name: str):
        """A tracer span when tracing is on, else a no-op context."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def apply_epoch(
        self,
        mutations: Sequence[Mutation],
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> EpochReport:
        """Commit one coalesced mutation batch as one epoch.

        Attempts incremental repair first; falls back to full recompute
        when the damage fraction or the wave budget is exceeded.  Both
        commit the π-greedy MIS of the mutated graph, which is validated
        with ``assert_valid_mis`` before the epoch commits — a serving
        layer must never commit or return an invalid set.
        """
        undo: List[Tuple] = []
        prev_mis = self.mis
        mode = "repair"
        evicted = added = 0
        try:
            damaged = apply_mutations(self.graph, mutations, undo=undo)
            self._fingerprint = None
            n = self.graph.number_of_nodes()
            try:
                if damaged and n and len(damaged) > self.repair_damage_cap * n:
                    raise RepairBudgetExceeded(
                        f"{len(damaged)}/{n} nodes damaged exceeds the "
                        f"{self.repair_damage_cap:.0%} repair cap"
                    )
                with self._span(SPAN_SERVE_REPAIR):
                    report = update_repair(
                        self.graph,
                        set(self.mis),
                        damaged,
                        seed=self.seed,
                        max_iterations=self.repair_iteration_budget,
                        should_abort=should_abort,
                    )
                self.mis = report.mis
                rounds = report.repair_rounds
                evicted, added = len(report.evicted), len(report.added)
            except RepairBudgetExceeded:
                mode = "recompute"
                with self._span(SPAN_SERVE_RECOMPUTE):
                    rounds = self._recompute(should_abort)
            assert_valid_mis(self.graph, set(self.mis))
        except BaseException:
            # Transactional epochs: any failure — a bad mutation raised
            # mid-application, an aborted or failed compute, a validation
            # error — rolls the mutations and the MIS back, so the
            # session keeps a consistent (graph, mis, epoch) triple and a
            # retry replays the exact same epoch.
            rollback_mutations(self.graph, undo)
            self.mis = prev_mis
            self._fingerprint = None
            raise

        if mode == "repair":
            self.repairs += 1
            self.total_repair_rounds += rounds
        else:
            self.recomputes += 1
            self.total_recompute_rounds += rounds
        self.epoch += 1
        return EpochReport(
            epoch=self.epoch,
            mode=mode,
            mutations=len(mutations),
            damaged=len(damaged),
            rounds=rounds,
            evicted=evicted,
            added=added,
            mis_size=len(self.mis),
            fingerprint=self.fingerprint,
        )

    # -- queries --------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The query response body: MIS + session metadata."""
        return {
            "session": self.name,
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
            "mis": sorted(self.mis),
            "mis_size": len(self.mis),
            "repairs": self.repairs,
            "recomputes": self.recomputes,
            "repair_rounds": self.total_repair_rounds,
            "recompute_rounds": self.total_recompute_rounds,
        }


def mutations_from_records(records: Iterable[Dict]) -> List[Mutation]:
    """Parse a wire-form mutation list (raises BadRequestError)."""
    return [Mutation.from_dict(record) for record in records]
