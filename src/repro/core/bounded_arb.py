"""Algorithm 1: BoundedArbIndependentSet.

The paper's engine.  Θ scales; in scale k, Λ iterations of the Métivier
priority competition in which nodes with active degree above ρ_k are
*non-competitive* (priority pinned to 0, the mechanism behind the read-ρ_k
analysis of Event (2)); after the Λ iterations, nodes with more than
Δ/2^(k+2) high-degree neighbors (degree > Δ/2^k + α) are marked *bad*,
moved to B, and taken out of the game.  Returns ``(I, B)`` plus the
residual active set VIB, which §3.3's finishing machinery completes.

The algorithm needs no orientation and no knowledge of a forest
decomposition — only α and Δ enter through the parameters, exactly as in
the paper.

Engines
-------
* :func:`bounded_arb_independent_set` — the fast engine: each iteration
  is a handful of segment reductions over the columnar substrate
  (:mod:`repro.mis.csr`), on a networkx graph or a prebuilt
  :class:`~repro.graphs.csr.CSRGraph`.  It returns per-scale statistics;
* :class:`BoundedArbNodeProgram` — the CONGEST engine and fidelity
  anchor: the fast engine's ``(I, B, VIB, iterations)`` is bit-identical
  to it (tested exhaustively on n ≤ 5 through ``arb_mis``).  Each scale
  costs 3Λ + 2 rounds: 3 per iteration (keys / decide / notify) plus a
  degree exchange and a bad-announcement round at the scale boundary.

Both run the paper's fixed schedule: every scale plays its Λ iterations
(or until no node is active), because ending a scale early would need a
global check no CONGEST round pays for.  There is no engine option:
these are the only two implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import networkx as nx
import numpy as np

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.network import Network
from repro.congest.simulator import SynchronousSimulator
from repro.core.parameters import Parameters, ROUNDS_PER_ITERATION, compute_parameters
from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.graphs.properties import max_degree as graph_max_degree
from repro.mis.csr import (
    keyed_priorities,
    masked_competition,
    neighbor_count,
    spread_to_neighbors,
)
from repro.obs.trace import (
    SPAN_ARB_SCALE,
    SPAN_BULK_ITERATION,
    SPAN_KERNEL_COMPETE,
    SPAN_KERNEL_DEGREES,
    SPAN_KERNEL_ELIMINATE,
    SPAN_RUN,
)
from repro.rng import priority_draw

__all__ = [
    "ScaleStats",
    "BoundedArbResult",
    "bounded_arb_independent_set",
    "BoundedArbNodeProgram",
    "bounded_arb_congest",
]


@dataclass
class ScaleStats:
    """What happened during one scale (experiments E6/E7 read these)."""

    scale: int
    iterations_used: int
    active_before: int
    active_after: int
    joined: int
    eliminated: int
    bad_added: int
    max_high_degree_neighbors: int
    bad_threshold: float
    invariant_satisfied: bool


@dataclass
class BoundedArbResult:
    """Output of Algorithm 1: the sets (I, B) and the residual VIB."""

    independent_set: Set[int]
    bad_set: Set[int]
    residual: Set[int]
    parameters: Parameters
    #: Competition iterations run until the last node left the
    #: competition; the schedule length is ``parameters.total_iterations()``.
    iterations: int
    seed: int
    scale_stats: List[ScaleStats] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"bounded-arb: |I|={len(self.independent_set)} |B|={len(self.bad_set)} "
            f"|VIB|={len(self.residual)} scales={self.parameters.theta} "
            f"iterations={self.iterations}"
        )


def bounded_arb_independent_set(
    graph: Union[nx.Graph, CSRGraph],
    alpha: int,
    seed: int = 0,
    profile: str = "practical",
    p_constant: int = 1,
    parameters: Optional[Parameters] = None,
    tracer=None,
) -> BoundedArbResult:
    """Fast engine for Algorithm 1.

    Parameters
    ----------
    graph:
        The input graph (arboricity ≤ ``alpha`` for the guarantees to
        apply; the algorithm runs — without them — on any graph).  A
        prebuilt :class:`~repro.graphs.csr.CSRGraph` skips the conversion,
        so no ``networkx`` object is ever materialized (E17 at n = 10⁷).
    alpha:
        The arboricity bound fed into the parameter formulas.
    profile / p_constant / parameters:
        Parameter selection; an explicit ``parameters`` overrides the
        profile computation (used by the ablation benchmark E10).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; opens the ``run``,
        ``arb:scale``, ``bulk:iteration`` and ``kernel:*`` spans.
    """
    if alpha < 1:
        raise ConfigurationError(f"alpha must be >= 1, got {alpha}")
    csr = graph if isinstance(graph, CSRGraph) else csr_from_graph(graph)
    params = parameters or compute_parameters(
        alpha, csr.max_degree(), profile=profile, p_constant=p_constant
    )

    n = csr.n
    if n == 0:
        return BoundedArbResult(
            independent_set=set(),
            bad_set=set(),
            residual=set(),
            parameters=params,
            iterations=0,
            seed=seed,
        )

    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    stats: List[ScaleStats] = []
    iteration_counter = 0

    def high_degree_counts(threshold: float) -> np.ndarray:
        high = active & (neighbor_count(active, csr) > threshold)
        return neighbor_count(high, csr)

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    for k in params.scales():
        scale_span = (
            tracer.begin(SPAN_ARB_SCALE) if tracer is not None else None
        )
        if scale_span is not None:
            scale_span.add(scale=k)
        rho_k = params.rho(k)
        active_before = int(active.sum())
        joined_this_scale = 0
        eliminated_this_scale = 0
        iterations_used = 0
        high_threshold = params.high_degree_threshold(k)
        bad_threshold = params.bad_threshold(k)

        for _ in range(params.lambda_iterations):
            if not active.any():
                break
            it_span = (
                tracer.begin(SPAN_BULK_ITERATION, round=iteration_counter)
                if tracer is not None
                else None
            )
            k_span = (
                tracer.begin(SPAN_KERNEL_DEGREES, round=iteration_counter)
                if tracer is not None
                else None
            )
            # The paper's priority rule: r(v) = 0 when deg_IB(v) > ρ_k,
            # uniform otherwise.
            competitive = active & (neighbor_count(active, csr) <= rho_k)
            priorities = keyed_priorities(csr, seed, iteration_counter)
            masked = np.where(competitive, priorities, np.uint64(0))
            if tracer is not None:
                tracer.end(k_span)
                k_span = tracer.begin(SPAN_KERNEL_COMPETE, round=iteration_counter)
            # Competitive nodes play (1, priority, id); active
            # non-competitive neighbors play (0, 0, id): they can never
            # win and never block a competitive neighbor.
            winners = masked_competition(
                csr,
                contenders=competitive,
                keys=masked,
                blockers=active,
                exact_key=lambda i: (
                    (1, int(masked[i]), csr.tiebreak_id(i))
                    if competitive[i]
                    else (0, 0, csr.tiebreak_id(i))
                ),
            )
            if tracer is not None:
                tracer.end(k_span)
                k_span = tracer.begin(SPAN_KERNEL_ELIMINATE, round=iteration_counter)

            in_mis |= winners
            eliminated = (winners | spread_to_neighbors(winners, csr)) & active
            joined_this_scale += int(winners.sum())
            eliminated_this_scale += int(eliminated.sum()) - int(winners.sum())
            active &= ~eliminated
            if tracer is not None:
                tracer.end(k_span, winners=int(winners.sum()))
                tracer.end(it_span)
            iteration_counter += 1
            iterations_used += 1

        # Step 2(b): mark and remove bad nodes.
        counts = high_degree_counts(high_threshold)
        newly_bad = active & (counts > bad_threshold)
        bad |= newly_bad
        active &= ~newly_bad

        remaining = high_degree_counts(high_threshold)[active]
        stats.append(
            ScaleStats(
                scale=k,
                iterations_used=iterations_used,
                active_before=active_before,
                active_after=int(active.sum()),
                joined=joined_this_scale,
                eliminated=eliminated_this_scale,
                bad_added=int(newly_bad.sum()),
                max_high_degree_neighbors=int(remaining.max()) if remaining.size else 0,
                bad_threshold=bad_threshold,
                invariant_satisfied=bool((remaining <= bad_threshold).all()),
            )
        )
        if tracer is not None:
            tracer.end(
                scale_span,
                iterations=iterations_used,
                joined=joined_this_scale,
            )

    if tracer is not None:
        tracer.end(run_span, iterations=iteration_counter)
    return BoundedArbResult(
        independent_set=csr.label_set(in_mis),
        bad_set=csr.label_set(bad),
        residual=csr.label_set(active),
        parameters=params,
        iterations=iteration_counter,
        seed=seed,
        scale_stats=stats,
    )


# ---------------------------------------------------------------------------
# CONGEST engine
# ---------------------------------------------------------------------------

_PHASE_KEYS = 0
_PHASE_DECIDE = 1
_PHASE_NOTIFY = 2
_PHASE_DEGREES = 3  # scale boundary: exchange active degrees
_PHASE_BAD = 4  # scale boundary: bad nodes announce and leave


class BoundedArbNodeProgram(NodeAlgorithm):
    """CONGEST engine for Algorithm 1.

    Every node derives the same :class:`Parameters` locally from the
    globally-known (α, Δ) — the standard CONGEST assumption the paper also
    makes — so the whole network agrees on the round → (scale, phase)
    mapping without coordination.  Nodes halt with outputs
    ``("mis", ...)``, ``("dominated", ...)``, ``("bad", scale)`` or, when
    the scale loop ends, ``("residual",)``.
    """

    name = "bounded-arb"

    def __init__(self, parameters: Parameters):
        self.params = parameters
        self.rounds_per_scale = ROUNDS_PER_ITERATION * parameters.lambda_iterations + 2
        self.total_rounds = parameters.theta * self.rounds_per_scale

    def _locate(self, round_index: int) -> Tuple[int, int, int]:
        """Map a round to (scale k, phase, global iteration index)."""
        scale_index = round_index // self.rounds_per_scale  # 0-based
        within = round_index % self.rounds_per_scale
        if within < ROUNDS_PER_ITERATION * self.params.lambda_iterations:
            phase = within % ROUNDS_PER_ITERATION
            iteration_in_scale = within // ROUNDS_PER_ITERATION
        else:
            phase = (
                _PHASE_DEGREES
                if within == ROUNDS_PER_ITERATION * self.params.lambda_iterations
                else _PHASE_BAD
            )
            iteration_in_scale = self.params.lambda_iterations
        global_iteration = scale_index * self.params.lambda_iterations + iteration_in_scale
        return scale_index + 1, phase, global_iteration

    def iterations_until(self, rounds: int) -> int:
        """Competition iterations run before the last node halted.

        ``rounds`` is the run's round count, so the last node halted in
        round ``rounds - 1``: during an iteration's keys, decide or notify
        round, that iteration counts; at a scale boundary, every
        iteration of the scales so far does.  This is what the fast
        engine reports as ``iterations``.
        """
        if rounds == 0:
            return 0
        _, phase, iteration = self._locate(rounds - 1)
        return iteration + 1 if phase < _PHASE_DEGREES else iteration

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["active_neighbors"] = set(ctx.neighbors)
        ctx.state["my_key"] = None
        if self.total_rounds == 0:
            ctx.halt(("residual",))

    def on_round(self, ctx: NodeContext, inbox) -> None:
        k, phase, iteration = self._locate(ctx.round_index)
        active: Set[int] = ctx.state["active_neighbors"]

        if phase == _PHASE_KEYS:
            for message in inbox:
                if message.payload[0] in ("leave", "bad-leave"):
                    active.discard(message.sender)
            degree = len(active)
            if degree > self.params.rho(k):
                ctx.state["my_key"] = (0, 0, ctx.node)
                ctx.state["competitive"] = False
            else:
                ctx.state["my_key"] = (1, priority_draw(ctx.seed, ctx.node, iteration), ctx.node)
                ctx.state["competitive"] = True
            for u in active:
                ctx.send(u, ("key",) + ctx.state["my_key"])

        elif phase == _PHASE_DECIDE:
            neighbor_keys = {
                m.sender: tuple(m.payload[1:])
                for m in inbox
                if m.payload[0] == "key" and m.sender in active
            }
            my_key = ctx.state["my_key"]
            if ctx.state["competitive"] and all(
                key < my_key for key in neighbor_keys.values()
            ):
                for u in active:
                    ctx.send(u, ("join",))
                ctx.halt(("mis", k, iteration))

        elif phase == _PHASE_NOTIFY:
            if any(m.payload[0] == "join" for m in inbox):
                for u in active:
                    ctx.send(u, ("leave",))
                ctx.halt(("dominated", k, iteration))

        elif phase == _PHASE_DEGREES:
            for message in inbox:
                if message.payload[0] in ("leave", "bad-leave"):
                    active.discard(message.sender)
            for u in active:
                ctx.send(u, ("deg", len(active)))

        else:  # _PHASE_BAD
            neighbor_degrees = {
                m.sender: m.payload[1]
                for m in inbox
                if m.payload[0] == "deg" and m.sender in active
            }
            threshold = self.params.high_degree_threshold(k)
            high_count = sum(1 for d in neighbor_degrees.values() if d > threshold)
            if high_count > self.params.bad_threshold(k):
                for u in active:
                    ctx.send(u, ("bad-leave",))
                ctx.halt(("bad", k))
                return
            if ctx.round_index + 1 >= self.total_rounds:
                ctx.halt(("residual",))


def bounded_arb_congest(
    graph: nx.Graph,
    alpha: int,
    seed: int = 0,
    profile: str = "practical",
    p_constant: int = 1,
    enforce_congest: bool = False,
) -> BoundedArbResult:
    """Run the CONGEST engine and package its output as
    :class:`BoundedArbResult` (same shape as the fast engine's)."""
    params = compute_parameters(
        alpha, graph_max_degree(graph), profile=profile, p_constant=p_constant
    )
    network = Network(graph)
    program = BoundedArbNodeProgram(params)
    simulator = SynchronousSimulator(network, seed=seed, enforce_congest=enforce_congest)
    run = simulator.run(program, max_rounds=program.total_rounds + 3)

    independent, bad, residual = set(), set(), set()
    for v, out in run.outputs.items():
        if out is None:
            continue
        if out[0] == "mis":
            independent.add(v)
        elif out[0] == "bad":
            bad.add(v)
        elif out[0] == "residual":
            residual.add(v)

    return BoundedArbResult(
        independent_set=independent,
        bad_set=bad,
        residual=residual,
        parameters=params,
        iterations=program.iterations_until(run.metrics.rounds),
        seed=seed,
        extra={"congest_rounds": run.metrics.rounds, "metrics": run.metrics},
    )
