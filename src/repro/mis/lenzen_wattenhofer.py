"""The Lenzen–Wattenhofer tree MIS algorithm (PODC 2011).

The paper's direct predecessor: "MIS on trees" in
O(sqrt(log n)·log log n) rounds w.h.p.  Its structure is the original
shattering recipe, which Barenboim et al. (and hence this library's core)
refined:

* **Phase 1** — run the Métivier et al. priority competition, but only
  for ``T = ⌈c·sqrt(log₂ n · log₂ log₂ n)⌉`` iterations instead of to
  completion.  "In a sense all the important hard work happens in this
  phase": on a tree, after T iterations the surviving nodes induce
  components of polylogarithmic size w.h.p.
* **Phase 2** — finish every surviving component *in parallel* with a
  deterministic tree MIS (here: BFS-orient each component — they are
  trees — Cole–Vishkin 3-color it, sweep the classes), respecting the
  phase-1 members.

The returned :class:`~repro.mis.engine.MISResult` reports phase-1
iterations as ``iterations`` and carries the phase-2 accounting
(component count/sizes, parallel deterministic rounds) in ``extra`` — the
quantities Lenzen & Wattenhofer's analysis bounds.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.deterministic.small_components import finish_components
from repro.errors import GraphError
from repro.mis.engine import MISResult, competition_winners, run_competition
from repro.rng import priority_draw

__all__ = ["lenzen_wattenhofer_tree_mis", "shattering_length"]

_LW_TAG = 71


def shattering_length(n: int, constant: float = 2.0) -> int:
    """Phase-1 length ``⌈c·sqrt(log₂n · log₂log₂n)⌉`` (≥ 1)."""
    if n < 4:
        return 1
    log_n = math.log2(n)
    return max(1, math.ceil(constant * math.sqrt(log_n * max(1.0, math.log2(log_n)))))


def lenzen_wattenhofer_tree_mis(
    graph: nx.Graph,
    seed: int = 0,
    constant: float = 2.0,
    validate_forest: bool = True,
) -> MISResult:
    """Compute an MIS of a forest with the LW two-phase structure.

    Parameters
    ----------
    graph:
        An unoriented forest (the LW setting; checked unless
        ``validate_forest=False`` — on general graphs the output is still
        a valid MIS, only the round guarantee is void).
    constant:
        The c in the phase-1 length; LW's analysis needs a sufficiently
        large constant, and the E-style experiments sweep it.
    """
    if validate_forest and graph.number_of_nodes() > 0 and not nx.is_forest(graph):
        raise GraphError("lenzen_wattenhofer_tree_mis expects a forest")

    def step(iteration, active, adjacency):
        keys = {v: (priority_draw(seed, v, iteration, tag=_LW_TAG), v) for v in active}
        return competition_winners(active, adjacency, keys)

    phase1_budget = shattering_length(graph.number_of_nodes(), constant)
    phase1 = run_competition(graph, step, phase1_budget)
    mis, active = phase1.mis, phase1.active

    residual_after_phase1 = len(active)
    component_report = None
    if active:
        dominated = {
            v
            for v in active
            if any(u in mis for u in graph.neighbors(v))
        }
        # Survivors are never adjacent to MIS members (they would have
        # been eliminated), so `dominated` is empty — asserted cheaply
        # because the phase-2 correctness argument relies on it.
        if dominated:
            raise AssertionError("phase-1 survivor adjacent to the MIS (bug)")
        component_report = finish_components(
            graph, active, alpha=1, blocked=set()
        )
        mis |= component_report.independent_set

    return MISResult(
        mis=mis,
        iterations=phase1.iterations,
        algorithm="lenzen-wattenhofer",
        seed=seed,
        active_history=phase1.history,
        extra={
            "phase1_budget": phase1_budget,
            "residual_after_phase1": residual_after_phase1,
            "phase2_components": component_report.component_count if component_report else 0,
            "phase2_largest_component": component_report.largest_component if component_report else 0,
            "phase2_parallel_rounds": component_report.max_rounds if component_report else 0,
        },
    )
