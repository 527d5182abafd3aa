"""Graceful degradation: validate and repair MIS outputs under faults.

The paper's correctness statements assume a fault-free execution.  Under
crashes and message faults the library still promises a *graceful
degradation contract*:

* :func:`validate_under_faults` — the formal "MIS under faults" check:
  the claimed members among the **survivors** (nodes alive at the end of
  the run) must form an independent set of the surviving subgraph, and
  every survivor must be dominated by it.  The report enumerates the
  violations instead of raising, because under an adversary violations
  are expected data, not bugs.
* :func:`repair` — a bounded finishing pass restoring the contract: one
  synchronous eviction round resolves independence violations by keyed
  priority (both endpoints of a violating edge know it — the loser
  withdraws), then a restricted Métivier competition re-runs on the
  still-undominated survivors.  The cost is reported in CONGEST rounds
  (``1`` eviction round + 3 per competition iteration, the usual
  keys/decide/notify accounting), which is the ``repair_rounds`` metric
  the E18 benchmark sweeps.

Everything here is deterministic in ``(seed, graph, outputs)``: eviction
priorities and competition keys come from :func:`repro.rng.priority_draw`
on a dedicated tag, so repairing the same faulty run twice yields the
same MIS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, Iterable, Optional, Set, Tuple

import networkx as nx

from repro.core.finishing import restricted_metivier_mis
from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.rng import priority_draw

__all__ = [
    "FaultValidationReport",
    "RepairReport",
    "claimed_members",
    "validate_under_faults",
    "repair",
]

#: Keyed-RNG tag for repair priorities; distinct from the finishing tags
#: (41/43) so a repair pass never replays a finishing stage's coins.
_REPAIR_TAG = 47


def claimed_members(outputs: Dict[int, Any], survivors: AbstractSet[int]) -> Set[int]:
    """Surviving nodes whose output claims MIS membership.

    Understands every engine's output convention: the phased programs'
    ``("mis", iteration)``, BoundedArb's ``("mis", scale, iteration)``,
    and a bare ``"mis"`` string.
    """
    members: Set[int] = set()
    for v in survivors:
        out = outputs.get(v)
        if out == "mis":
            members.add(v)
        elif isinstance(out, (tuple, list)) and out and out[0] == "mis":
            members.add(v)
    return members


@dataclass(frozen=True)
class FaultValidationReport:
    """Outcome of checking one run's output against the fault contract."""

    survivors: frozenset
    members: frozenset
    #: Edges of the surviving subgraph with both endpoints claiming
    #: membership (independence violations).
    violating_edges: Tuple[Tuple[int, int], ...]
    #: Survivors neither in the set nor adjacent to a surviving member
    #: (maximality violations — includes nodes falsely believing a now-dead
    #: neighbor dominates them).
    undominated: Tuple[int, ...]
    #: Survivors that never produced an output (did not halt).
    undecided: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        """True iff the members form an MIS of the surviving subgraph."""
        return not self.violating_edges and not self.undominated

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATED"
        return (
            f"{status}: {len(self.members)} members / {len(self.survivors)} "
            f"survivors, {len(self.violating_edges)} violating edge(s), "
            f"{len(self.undominated)} undominated, "
            f"{len(self.undecided)} undecided"
        )


def validate_under_faults(
    graph: nx.Graph,
    outputs: Dict[int, Any],
    crashed: Iterable[int] = (),
) -> FaultValidationReport:
    """Check the graceful-degradation contract on one run's outputs.

    ``crashed`` are the nodes dead at the end of the run (recovered nodes
    are survivors).  The contract: ``claimed_members`` restricted to the
    survivors is an independent set of ``graph[survivors]`` and dominates
    every survivor.
    """
    survivors = set(graph.nodes) - set(crashed)
    members = claimed_members(outputs, survivors)

    violating = []
    for v in sorted(members):
        for u in graph.neighbors(v):
            if u in members and u > v:
                violating.append((v, u))

    dominated = set(members)
    for v in members:
        dominated.update(u for u in graph.neighbors(v) if u in survivors)
    undominated = tuple(sorted(survivors - dominated))
    undecided = tuple(sorted(v for v in survivors if outputs.get(v) is None))

    return FaultValidationReport(
        survivors=frozenset(survivors),
        members=frozenset(members),
        violating_edges=tuple(violating),
        undominated=undominated,
        undecided=undecided,
    )


@dataclass(frozen=True)
class RepairReport:
    """What the repair pass changed and what it cost."""

    mis: frozenset
    evicted: frozenset
    added: frozenset
    #: CONGEST rounds the repair would take distributed: one eviction
    #: round (only if there was an independence violation) plus 3 per
    #: restricted-competition iteration.
    repair_rounds: int
    iterations: int
    before: FaultValidationReport
    after: FaultValidationReport

    @property
    def repaired(self) -> bool:
        return self.after.ok


def repair(
    graph: nx.Graph,
    outputs: Dict[int, Any],
    crashed: Iterable[int] = (),
    seed: int = 0,
    max_iterations: int = 10_000,
    report: Optional[FaultValidationReport] = None,
) -> RepairReport:
    """Restore the fault contract with a bounded finishing pass.

    Pass ``report`` to reuse an existing :func:`validate_under_faults`
    result; otherwise one is computed.  The repair is local: only violated
    neighborhoods change — surviving members outside violating edges are
    never touched, and new members are drawn only from the undominated
    region, so the pass is exactly a restricted finishing stage, not a
    re-run.
    """
    before = report or validate_under_faults(graph, outputs, crashed)
    survivors = set(before.survivors)
    members = set(before.members)

    # Fast paths: an empty surviving subgraph (everything crashed) and a
    # report with nothing to evict or re-cover are already terminal — the
    # contract either holds vacuously or holds as-is.  Returning here
    # keeps ``repair_rounds == 0`` honest (no eviction round, no
    # restricted pass) instead of spinning up a full restricted-Métivier
    # competition over an empty region.
    if not survivors or (not before.violating_edges and not before.undominated):
        return RepairReport(
            mis=frozenset(members),
            evicted=frozenset(),
            added=frozenset(),
            repair_rounds=0,
            iterations=0,
            before=before,
            after=before,
        )

    # Round 1 (eviction).  Both endpoints of a member–member edge observe
    # the conflict; the one with the lower keyed priority withdraws.
    # Per-edge local decisions can over-evict (a node may lose one
    # conflict while its other conflict partner also withdraws) — safe,
    # because anything left undominated is re-covered below.
    violating = before.violating_edges
    priority = {
        v: (priority_draw(seed, v, 0, tag=_REPAIR_TAG), v)
        for edge in violating
        for v in edge
    }
    evicted = {u if priority[u] < priority[v] else v for u, v in violating}
    members -= evicted

    # Remaining rounds: restricted Métivier competition over survivors that
    # ended up undominated (never-covered nodes plus eviction fallout).
    dominated = set(members)
    for v in members:
        dominated.update(u for u in graph.neighbors(v) if u in survivors)
    uncovered = survivors - dominated
    added, iterations = restricted_metivier_mis(
        graph.subgraph(survivors),
        uncovered,
        blocked=set(),
        seed=seed,
        tag=_REPAIR_TAG,
        max_iterations=max_iterations,
    )
    final = members | added

    repaired_outputs = {v: ("mis",) if v in final else ("dominated",) for v in survivors}
    after = validate_under_faults(graph, repaired_outputs, crashed)
    repair_rounds = (1 if violating else 0) + (
        ROUNDS_PER_ITERATION * iterations
    )
    return RepairReport(
        mis=frozenset(final),
        evicted=frozenset(evicted),
        added=frozenset(added),
        repair_rounds=repair_rounds,
        iterations=iterations,
        before=before,
        after=after,
    )
