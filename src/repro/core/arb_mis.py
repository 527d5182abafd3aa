"""Algorithm 2: ArbMIS — the complete pipeline.

    (I, B) ← BoundedArbIndependentSet(G)        [after degree reduction]
    split VIB into Vlo / Vhi, MIS each in turn   [§3.3]
    finish the components of B deterministically [Lemma 3.8]
    return the union

This is the user-facing entry point for the paper's contribution.  It
returns a standard :class:`~repro.mis.engine.MISResult` (so it is
interchangeable with every baseline in benchmarks) whose ``extra`` carries
the full :class:`ArbMISReport` with stage-by-stage accounting.

Round accounting (the quantity Theorem 2.1 bounds): 3 CONGEST rounds per
competition iteration (keys / decide / notify), 2 per scale boundary
(degree exchange + bad announcement), plus the finishing rounds, plus the
degree-reduction iterations — all measured per run, never modeled.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, Optional

import networkx as nx

from repro.core.bounded_arb import BoundedArbResult, bounded_arb_independent_set
from repro.core.degree_reduction import (
    DegreeReductionResult,
    degree_reduction_threshold,
    reduce_max_degree,
)
from repro.core.finishing import FinishReport, finish
from repro.core.parameters import Parameters, ROUNDS_PER_ITERATION, compute_parameters
from repro.errors import ConfigurationError
from repro.graphs.properties import max_degree as graph_max_degree
from repro.mis.engine import MISResult

__all__ = [
    "ArbMISReport",
    "arb_mis",
    "PHASE_DEGREE_REDUCTION",
    "PHASE_SHATTERING",
    "PHASE_FINISHING",
]

#: Stage names the pipeline reports to an observer's phase timer — the
#: split the paper's analysis argues about (shattering Lemma vs. the
#: Lemma 3.8 finishing) plus the Theorem-7.2 preprocessing.
PHASE_DEGREE_REDUCTION = "degree-reduction"
PHASE_SHATTERING = "shattering"
PHASE_FINISHING = "finishing"


def _phase(observer, name: str):
    """``observer.phase(name)`` or a no-op context.

    The observer (duck-typed; see :class:`repro.obs.session.ObsSession`)
    owns all wall clocks — this package never imports ``time`` (lint R3).
    """
    if observer is None:
        return nullcontext()
    return observer.phase(name)


@dataclass
class ArbMISReport:
    """Stage-by-stage accounting for one ArbMIS run."""

    parameters: Parameters
    reduction: Optional[DegreeReductionResult]
    partial: BoundedArbResult
    finishing: FinishReport
    congest_rounds_estimate: int

    def stage_summary(self) -> str:
        lines = [
            f"parameters: profile={self.parameters.profile} theta={self.parameters.theta} "
            f"lambda={self.parameters.lambda_iterations}",
        ]
        if self.reduction is not None and not self.reduction.was_noop:
            lines.append(
                f"degree-reduction: {self.reduction.iterations} iterations, "
                f"max degree {self.reduction.max_degree_before} -> "
                f"{self.reduction.max_degree_after}"
            )
        lines.append(self.partial.summary())
        lines.append(
            f"finishing: |Vlo|={self.finishing.vlo_size} |Vhi|={self.finishing.vhi_size} "
            f"components rounds={self.finishing.component_report.max_rounds if self.finishing.component_report else 0}"
        )
        lines.append(f"total CONGEST rounds (measured): {self.congest_rounds_estimate}")
        return "\n".join(lines)


def arb_mis(
    graph: nx.Graph,
    alpha: int,
    seed: int = 0,
    profile: str = "practical",
    p_constant: int = 1,
    apply_degree_reduction: bool = True,
    parameters: Optional[Parameters] = None,
    validate: bool = True,
    finishing_strategy: str = "metivier",
    observer=None,
) -> MISResult:
    """Compute an MIS of ``graph`` with the paper's full pipeline.

    Algorithm 1 runs on its one fast engine, the columnar
    :func:`~repro.core.bounded_arb.bounded_arb_independent_set`, on the
    paper's fixed Θ·Λ schedule; there is no engine or schedule option.
    Its CONGEST program
    (:class:`~repro.core.bounded_arb.BoundedArbNodeProgram`) is the
    fidelity anchor: on every graph with n ≤ 5 this stage's
    ``(I, B, VIB, iterations)`` equals it (tested exhaustively).

    Parameters
    ----------
    graph:
        Any undirected graph; the guarantees assume arboricity ≤ ``alpha``.
    alpha:
        Arboricity bound (α ≥ 1).  α = 1 gives Barenboim et al.'s
        TreeIndependentSet (see :func:`repro.mis.tree.tree_mis`).
    profile:
        ``"practical"`` (default) or ``"paper"`` parameters
        (:mod:`repro.core.parameters`).
    apply_degree_reduction:
        Run the Theorem-7.2-style preprocessing when Δ exceeds
        ``α·2^sqrt(log n log log n)`` (a verified no-op otherwise).
    validate:
        Assert the output is an MIS (cheap; leave on).
    finishing_strategy:
        ``"metivier"`` (randomized, default) or ``"linial"`` (fully
        deterministic Vlo/Vhi stages via (Δ+1)-coloring; the Theorem-7.4
        flavor the paper cites in §3.3).
    observer:
        Optional phase-timer host (anything with an
        ``ObsSession``-compatible ``phase(name)`` context manager); the
        degree-reduction, shattering, and finishing stages report their
        wall time through it.  Timing never affects the computation.
    """
    if alpha < 1:
        raise ConfigurationError(f"alpha must be >= 1, got {alpha}")
    if graph.number_of_nodes() == 0:
        empty_params = parameters or compute_parameters(alpha, 0, profile, p_constant)
        report = None
        return MISResult(
            mis=set(),
            iterations=0,
            algorithm="arb-mis",
            seed=seed,
            extra={"report": report, "parameters": empty_params},
        )

    reduction: Optional[DegreeReductionResult] = None
    working = graph
    pre_selected = set()
    if apply_degree_reduction:
        threshold = degree_reduction_threshold(graph.number_of_nodes(), alpha)
        if graph_max_degree(graph) > threshold:
            with _phase(observer, PHASE_DEGREE_REDUCTION):
                reduction = reduce_max_degree(
                    graph, alpha, seed=seed, threshold=threshold
                )
                pre_selected = set(reduction.independent_set)
                working = graph.subgraph(reduction.surviving).copy()

    params = parameters or compute_parameters(
        alpha, graph_max_degree(working), profile=profile, p_constant=p_constant
    )
    with _phase(observer, PHASE_SHATTERING):
        partial = bounded_arb_independent_set(
            working,
            alpha=alpha,
            seed=seed,
            parameters=params,
        )
    # Fold the preprocessing's independent set in before finishing, so the
    # finishing stages treat its members and their neighbors as decided.
    partial_for_finish = replace(
        partial, independent_set=partial.independent_set | pre_selected
    )
    with _phase(observer, PHASE_FINISHING):
        finishing = finish(
            graph,
            partial_for_finish,
            alpha=alpha,
            seed=seed,
            validate=validate,
            strategy=finishing_strategy,
        )

    reduction_iterations = reduction.iterations if reduction else 0
    congest_rounds = (
        ROUNDS_PER_ITERATION * reduction_iterations
        + ROUNDS_PER_ITERATION * partial.iterations
        + 2 * params.theta
        + finishing.total_finishing_rounds
    )
    report = ArbMISReport(
        parameters=params,
        reduction=reduction,
        partial=partial,
        finishing=finishing,
        congest_rounds_estimate=congest_rounds,
    )
    return MISResult(
        mis=finishing.mis,
        iterations=reduction_iterations + partial.iterations
        + finishing.vlo_iterations
        + finishing.vhi_iterations,
        algorithm="arb-mis",
        seed=seed,
        congest_rounds=congest_rounds,
        extra={"report": report, "parameters": params},
    )
