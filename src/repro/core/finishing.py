"""Finishing up the MIS computation (§3.3, steps 2–4 of Algorithm 2).

After BoundedArbIndependentSet returns (I, B, VIB):

1. **Split VIB** by the final degree threshold ``Δ/2^Θ + α`` into ``Vlo``
   (degree within VIB at most the threshold — G[Vlo] has small maximum
   degree by definition) and ``Vhi`` (the rest — small maximum degree *in
   G[Vhi]* because each member has few high-degree neighbors, by the
   Invariant at scale Θ).
2. Compute an MIS ``Ilo`` of G[Vlo] (nodes dominated by I excluded), then
   ``Ihi`` of G[Vhi ∖ Γ(Ilo)] — the paper uses the bounded-degree MIS of
   Barenboim et al. Theorem 7.4 here.  Two strategies are provided:
   ``"metivier"`` (default; randomized, O(log D)-ish measured rounds) and
   ``"linial"`` (fully deterministic: Linial coloring → (Δ+1)-coloring →
   color-schedule MIS, the Theorem-7.4 flavor; see
   :mod:`repro.deterministic.linial`).
3. Process the components of B (minus anything now dominated) with the
   deterministic machinery of Lemma 3.8.

All stages respect previously chosen members: a node adjacent to the
already-selected set never joins again — this is what makes the final
union an MIS of the whole graph, which :func:`finish` asserts before
returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import networkx as nx

from repro.core.bounded_arb import BoundedArbResult
from repro.core.parameters import Parameters, ROUNDS_PER_ITERATION
from repro.deterministic.small_components import ComponentFinishReport, finish_components
from repro.mis.engine import competition_winners, run_competition
from repro.mis.validation import assert_valid_mis
from repro.rng import priority_draw

__all__ = ["FinishReport", "finish", "split_vlo_vhi", "restricted_metivier_mis"]

_FINISH_TAG_LO = 41
_FINISH_TAG_HI = 43


def split_vlo_vhi(
    graph: nx.Graph, residual: Set[int], parameters: Parameters
) -> Dict[str, Set[int]]:
    """Partition VIB by the final degree threshold ``Δ/2^Θ + α``.

    Degrees are taken within the residual (that is deg_IB, as in the
    paper's step 2 of Algorithm 2).
    """
    threshold = parameters.final_degree_threshold()
    degrees = {
        v: sum(1 for u in graph.neighbors(v) if u in residual) for v in residual
    }
    vlo = {v for v in residual if degrees[v] <= threshold}
    return {"vlo": vlo, "vhi": residual - vlo}


def restricted_metivier_mis(
    graph: nx.Graph,
    nodes: Set[int],
    blocked: Set[int],
    seed: int,
    tag: int,
    max_iterations: int = 10_000,
) -> tuple:
    """Métivier competition on G[nodes], with ``blocked`` nodes unable to
    join (they are already dominated by earlier stages) and absent from
    the competition graph entirely.

    Returns (independent set, iterations used).
    """

    def step(iteration, active, adjacency):
        keys = {v: (priority_draw(seed, v, iteration, tag=tag), v) for v in active}
        return competition_winners(active, adjacency, keys)

    run = run_competition(graph.subgraph(nodes - blocked), step, max_iterations)
    return run.mis, run.iterations


def _restricted_linial_mis(
    graph: nx.Graph, nodes: Set[int], blocked: Set[int]
) -> tuple:
    """Deterministic stage MIS: Linial (Δ+1)-coloring + color schedule.

    Returns (members, *round-equivalent iterations*): the linial round
    count is divided by 3 (rounded up) so it plugs into the same
    3-rounds-per-iteration accounting as the Métivier stages.
    """
    from repro.deterministic.linial import bounded_degree_mis

    eligible = nodes - blocked
    if not eligible:
        return set(), 0
    subgraph = graph.subgraph(eligible)
    members, rounds = bounded_degree_mis(subgraph)
    return members, (rounds + ROUNDS_PER_ITERATION - 1) // ROUNDS_PER_ITERATION


@dataclass
class FinishReport:
    """Everything the finishing phase produced and what it cost."""

    mis: Set[int]
    ilo: Set[int]
    ihi: Set[int]
    bad_members: Set[int]
    vlo_size: int
    vhi_size: int
    vlo_iterations: int
    vhi_iterations: int
    component_report: Optional[ComponentFinishReport] = None
    strategy: str = "metivier"
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def total_finishing_rounds(self) -> int:
        """CONGEST rounds of the finishing phase: 3 per stage iteration
        (keys/decide/notify, or the Linial round-equivalent) plus the
        parallel component cost."""
        component = self.component_report.max_rounds if self.component_report else 0
        return ROUNDS_PER_ITERATION * (self.vlo_iterations + self.vhi_iterations) + component


def finish(
    graph: nx.Graph,
    partial: BoundedArbResult,
    alpha: int,
    seed: int = 0,
    validate: bool = True,
    strategy: str = "metivier",
) -> FinishReport:
    """Run §3.3 on the output of BoundedArbIndependentSet.

    ``partial.independent_set`` is extended to an MIS of the *whole*
    graph; the result is validated with :func:`assert_valid_mis` unless
    ``validate=False``.  ``strategy`` selects the Vlo/Vhi stage engine:
    ``"metivier"`` (randomized) or ``"linial"`` (deterministic).
    """
    if strategy not in ("metivier", "linial"):
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown finishing strategy {strategy!r}; use 'metivier' or 'linial'"
        )
    selected = set(partial.independent_set)
    dominated = {u for v in selected for u in graph.neighbors(v)}

    split = split_vlo_vhi(graph, partial.residual, partial.parameters)
    vlo, vhi = split["vlo"], split["vhi"]

    if strategy == "metivier":
        ilo, vlo_iterations = restricted_metivier_mis(
            graph, vlo, blocked=dominated, seed=seed, tag=_FINISH_TAG_LO
        )
    else:
        ilo, vlo_iterations = _restricted_linial_mis(graph, vlo, blocked=dominated)
    selected |= ilo
    dominated |= {u for v in ilo for u in graph.neighbors(v)}

    if strategy == "metivier":
        ihi, vhi_iterations = restricted_metivier_mis(
            graph, vhi, blocked=dominated, seed=seed, tag=_FINISH_TAG_HI
        )
    else:
        ihi, vhi_iterations = _restricted_linial_mis(graph, vhi, blocked=dominated)
    selected |= ihi
    dominated |= {u for v in ihi for u in graph.neighbors(v)}

    component_report = finish_components(
        graph,
        partial.bad_set,
        alpha=alpha,
        blocked=dominated & partial.bad_set,
    )
    selected |= component_report.independent_set

    if validate:
        assert_valid_mis(graph, selected)

    return FinishReport(
        mis=selected,
        ilo=ilo,
        ihi=ihi,
        bad_members=component_report.independent_set,
        vlo_size=len(vlo),
        vhi_size=len(vhi),
        vlo_iterations=vlo_iterations,
        vhi_iterations=vhi_iterations,
        component_report=component_report,
        strategy=strategy,
    )
