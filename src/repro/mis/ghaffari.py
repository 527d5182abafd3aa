"""Ghaffari's MIS algorithm (SODA 2016) — the paper's stronger comparator.

The paper concedes (§1.2) that Ghaffari's algorithm dominates its own round
complexity for all α and n; experiment E12 confirms the ordering
empirically.  The algorithm: every node keeps a *desire level*
``p_t(v)``, initially 1/2.  Each iteration:

* ``v`` marks itself with probability ``p_t(v)``;
* a marked node with **no marked neighbor** joins the MIS (note: unlike the
  Luby/Métivier family, two adjacent marked nodes both back off — there is
  no tie-break winner);
* the desire level updates against the *effective degree*
  ``d_t(v) = Σ_{u ∈ N_active(v)} p_t(u)``:
  ``p_{t+1}(v) = p_t(v)/2`` if ``d_t(v) ≥ 2``, else ``min(2 p_t(v), 1/2)``.

Desire levels are dyadic (``2^-j``), so the CONGEST engine transmits just
the exponent — O(log log)-bit payloads, comfortably within budget.

Like the Luby/Métivier analyses, the main phase leaves a shattered residue;
the paper's §3.3 notes its finishing-up machinery applies to Ghaffari too.
Here the fast/CONGEST engines simply run the marking process to completion
(it is a complete MIS algorithm on its own, just with a weaker tail
guarantee), and ``extra["iterations_to_shatter"]`` reports when the active
count first dropped below ``n / log²n`` for the E12 analysis.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.congest.algorithm import NodeContext
from repro.congest.network import Network
from repro.congest.simulator import SynchronousSimulator
from repro.mis.engine import (
    MISResult,
    PhasedMISNodeProgram,
    mis_from_outputs,
    run_competition,
)
from repro.rng import uniform_draw

__all__ = ["ghaffari_mis", "GhaffariMIS", "ghaffari_mis_congest", "shatter_iteration"]

_MARK_TAG = 23  # rng tag for the marking coin
_MIN_EXPONENT = 60  # floor for p = 2^-j, keeps exponents bounded


def _marked(seed: int, node: int, iteration: int, exponent: int) -> bool:
    """Marking coin: probability 2^-exponent, from the shared keyed stream."""
    return uniform_draw(seed, node, iteration, tag=_MARK_TAG) < 2.0**-exponent


def shatter_iteration(history: List[int], n: int) -> Optional[int]:
    """First iteration whose active count is at most ``n / log²n``.

    ``history`` is the per-iteration active count (``active_history``);
    None when the run never got that far.
    """
    n = max(2, n)
    threshold = n / max(1.0, math.log(n) ** 2)
    return next((i for i, count in enumerate(history) if count <= threshold), None)


def ghaffari_mis(graph: nx.Graph, seed: int = 0, max_iterations: int = 20_000) -> MISResult:
    """Fast engine for Ghaffari's algorithm (exponent representation)."""
    exponents: Dict[int, int] = {v: 1 for v in graph.nodes()}  # p = 2^-1

    def step(iteration, active, adjacency):
        marked = {v for v in active if _marked(seed, v, iteration, exponents[v])}
        winners = {
            v for v in marked if not any(u in marked for u in adjacency[v] if u in active)
        }
        # Desire update uses the *pre-elimination* neighborhood, as in the
        # paper: d_t(v) is computed from this iteration's p values.
        updated = {}
        for v in active:
            effective_degree = sum(
                2.0 ** -exponents[u] for u in adjacency[v] if u in active
            )
            if effective_degree >= 2.0:
                updated[v] = min(_MIN_EXPONENT, exponents[v] + 1)
            else:
                updated[v] = max(1, exponents[v] - 1)
        exponents.update(updated)
        return winners

    run = run_competition(graph, step, max_iterations)
    return run.result(
        "ghaffari",
        seed,
        iterations_to_shatter=shatter_iteration(run.history, graph.number_of_nodes()),
    )


class GhaffariMIS(PhasedMISNodeProgram):
    """CONGEST engine for Ghaffari's algorithm.

    The competition key is ``(marked, exponent, node)``; the join rule is
    overridden so a marked node joins only when *no* active neighbor is
    marked.  The exponent rides along in the key so neighbors can compute
    their effective degree without a second exchange.
    """

    name = "ghaffari"

    def on_start(self, ctx: NodeContext) -> None:
        super().on_start(ctx)
        ctx.state["exponent"] = 1

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        exponent = ctx.state["exponent"]
        marked = _marked(ctx.seed, ctx.node, iteration, exponent)
        ctx.state["marked"] = marked
        return (1 if marked else 0, exponent, ctx.node)

    def wins(self, ctx, iteration, my_key, neighbor_keys) -> bool:
        if not ctx.state["marked"]:
            return False
        return not any(key[0] == 1 for key in neighbor_keys.values())

    def on_iteration_end(self, ctx: NodeContext, iteration: int, neighbor_keys) -> None:
        effective_degree = sum(2.0 ** -key[1] for key in neighbor_keys.values())
        exponent = ctx.state["exponent"]
        if effective_degree >= 2.0:
            ctx.state["exponent"] = min(_MIN_EXPONENT, exponent + 1)
        else:
            ctx.state["exponent"] = max(1, exponent - 1)


def ghaffari_mis_congest(graph: nx.Graph, seed: int = 0, max_rounds: int = 60_000) -> MISResult:
    """Run the CONGEST engine and package the result."""
    network = Network(graph)
    run = SynchronousSimulator(network, seed=seed).run(GhaffariMIS(), max_rounds=max_rounds)
    return MISResult(
        mis=mis_from_outputs(run.outputs),
        iterations=(run.metrics.rounds + 2) // 3,
        algorithm="ghaffari-congest",
        seed=seed,
        congest_rounds=run.metrics.rounds,
        metrics=run.metrics,
        extra={"completed": run.halted},
    )
