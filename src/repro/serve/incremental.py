"""Incremental MIS maintenance under churn — the serving layer's core.

The paper's algorithms assume a static input, but Ghaffari's
local-complexity view (arXiv:1506.05093) observes that the residual
instance after partial progress is itself an MIS instance.  That is
exactly the property this module exploits: after a batch of graph
mutations, the *damaged neighborhood* (mutation endpoints plus fallout)
is a small residual MIS instance, and an MIS of the new graph is
recovered by

1. an **eviction round** — every new member–member edge (only edge
   insertions can create one) is resolved by keyed priority, the loser
   withdraws — followed by
2. a **restricted Métivier competition** over the nodes left
   undominated (eviction fallout, nodes whose dominator was deleted,
   fresh nodes).

Both steps are the crash repair's own code — the eviction round is
:func:`repro.core.repair.evict_conflicts` and the competition is
:func:`repro.core.finishing.restricted_metivier_mis` — called on a
dedicated tag and driven by *update* faults instead of crashes.

Costs are reported in honest CONGEST rounds: one eviction round when an
eviction happened plus ``ROUNDS_PER_ITERATION`` per competition
iteration — the ``repair_rounds`` metric the E21 benchmark compares
against recompute-from-scratch across churn rates.

Determinism: epoch ``k`` of a session draws every coin from
``derive_seed(seed, k)`` under a dedicated tag, so same-seed mutation
sequences repair identically — the Hypothesis suite pins repair ≡ valid
MIS and same-seed obs-stream identity on top of this.

:class:`GraphSession` owns one named dynamic graph and implements the
compute half of the degradation ladder: incremental repair, with
automatic fallback to **full recompute** when the repair budget (damage
fraction or competition iterations) is exceeded, and
``assert_valid_mis`` validation after *every* epoch.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.finishing import restricted_metivier_mis
from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.core.repair import evict_conflicts
from repro.errors import ReproError
from repro.mis.validation import assert_valid_mis
from repro.obs.trace import SPAN_SERVE_RECOMPUTE, SPAN_SERVE_REPAIR
from repro.rng import derive_seed
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
    "wire_int",
    "MUTATION_OPS",
]

#: Keyed-RNG tag for update-repair priorities; distinct from the crash
#: repair tag (47) and the finishing tags (41/43) so churn repair never
#: replays another stage's coins.
_UPDATE_TAG = 53

MUTATION_OPS = ("add-node", "remove-node", "add-edge", "remove-edge")


class RepairBudgetExceeded(ReproError):
    """Internal signal: incremental repair would exceed its budget.

    Callers (the session's epoch loop) catch this and fall back to a
    full recompute — it never escapes the serving layer.
    """


class ComputeAborted(ReproError):
    """Cooperative cancellation: the abort callback returned True.

    Raised between competition iterations; the server maps it to a
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
    evicted: frozenset
    added: frozenset
    #: CONGEST rounds distributed: one eviction round (only when a
    #: member-member conflict existed) plus 3 per competition iteration.
    repair_rounds: int
    iterations: int
    damaged: int


def update_repair(
    graph: nx.Graph,
    mis: Set[int],
    damaged: Set[int],
    seed: int,
    epoch: int,
    max_iterations: int = 10_000,
    should_abort: Optional[Callable[[], bool]] = None,
) -> UpdateRepairReport:
    """Repair ``mis`` after mutations that damaged ``damaged`` nodes.

    Generalizes :func:`repro.core.repair.repair` from crash faults to
    update faults: only the damaged neighborhood is inspected, so the
    cost scales with the churn, not the graph.  The eviction round is
    :func:`repro.core.repair.evict_conflicts` and the re-cover pass is
    :func:`repro.core.finishing.restricted_metivier_mis`, both on this
    module's own tag and the epoch's seed.  Raises
    :class:`RepairBudgetExceeded` when nodes are still active after
    ``max_iterations`` competition iterations, and
    :class:`ComputeAborted` when ``should_abort`` fires before the pass or
    at the start of an iteration (cooperative cancellation).
    """
    epoch_seed = derive_seed(seed, epoch)
    members = {v for v in mis if graph.has_node(v)}

    # Empty damage: the old MIS survives verbatim, zero rounds.  (The
    # same early-return contract the crash repair now honors.)
    if not damaged:
        return UpdateRepairReport(
            mis=frozenset(members),
            evicted=frozenset(),
            added=frozenset(),
            repair_rounds=0,
            iterations=0,
            damaged=0,
        )

    if should_abort is not None and should_abort():
        raise ComputeAborted("update repair aborted before start")

    # Eviction round: only an inserted edge can make two members
    # adjacent, and both its endpoints are damaged, so scanning damaged
    # members finds every conflict.
    violating: List[Tuple[int, int]] = []
    for v in sorted(members & damaged):
        for u in graph.neighbors(v):
            if u in members and (u > v or u not in damaged):
                violating.append((v, u))
    evicted = evict_conflicts(violating, epoch_seed, _UPDATE_TAG)
    members -= evicted

    # Undominated region: domination can only have changed for damaged
    # nodes and the neighbors of evicted members.
    candidates = set(damaged)
    for v in evicted:
        candidates.update(graph.neighbors(v))
    candidates -= members
    uncovered = {
        v
        for v in candidates
        if not any(u in members for u in graph.neighbors(v))
    }

    def checkpoint(iteration: int) -> None:
        if should_abort is not None and should_abort():
            raise ComputeAborted(f"update repair aborted at iteration {iteration}")

    added, iterations = restricted_metivier_mis(
        graph,
        uncovered,
        blocked=set(),
        seed=epoch_seed,
        tag=_UPDATE_TAG,
        max_iterations=max_iterations,
        checkpoint=checkpoint,
    )
    if iterations == max_iterations:
        # The competition stopped on its budget; nodes that neither joined
        # nor neighbour a new member were still active.
        covered = added.union(*(graph.adj[v] for v in added))
        still_active = uncovered - covered
        if still_active:
            raise RepairBudgetExceeded(
                f"update repair exceeded {max_iterations} iteration(s) "
                f"with {len(still_active)} node(s) still active"
            )

    return UpdateRepairReport(
        mis=frozenset(members | added),
        evicted=frozenset(evicted),
        added=frozenset(added),
        repair_rounds=(1 if violating else 0)
        + ROUNDS_PER_ITERATION * iterations,
        iterations=iterations,
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
    #: Honest CONGEST-round cost of this epoch: repair rounds for the
    #: incremental path, the engine's round count for recompute.
    rounds: int
    evicted: int
    added: int
    mis_size: int
    fingerprint: str


class GraphSession:
    """One named dynamic graph with an always-valid maintained MIS.

    The session is the compute half of the serving layer: it owns the
    graph, the current MIS, the epoch counter, and the incremental →
    recompute half of the degradation ladder.  It is synchronous and
    single-writer — the asyncio service serializes epochs per session
    (coalescing concurrent mutations into one epoch) and runs them on an
    executor.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        algorithm: str = "metivier",
        engine: Optional[str] = None,
        graph: Optional[nx.Graph] = None,
        repair_iteration_budget: int = 10_000,
        repair_damage_cap: float = 1.0,
    ):
        self.name = name
        self.seed = seed
        self.algorithm = algorithm
        self.engine = engine
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
        """Full recompute of the MIS; returns its round cost."""
        if should_abort is not None and should_abort():
            raise ComputeAborted("recompute aborted before start")
        if self.graph.number_of_nodes() == 0:
            self.mis = frozenset()
            return 0
        from repro.mis.registry import get_algorithm

        fn = get_algorithm(self.algorithm, engine=self.engine)
        result = fn(self.graph, seed=derive_seed(self.seed, self.epoch))
        self.mis = frozenset(result.mis)
        if result.congest_rounds is not None:
            return result.congest_rounds
        return ROUNDS_PER_ITERATION * result.iterations

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
        when the damage fraction or the competition-iteration budget is
        exceeded.  The resulting MIS is validated with
        ``assert_valid_mis`` before the epoch commits — a serving layer
        must never commit or return an invalid set.
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
                        epoch=self.epoch,
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
            # retry replays the exact same epoch (same coins, same
            # damage).
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
            "algorithm": self.algorithm,
            "engine": self.engine or "scalar",
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
