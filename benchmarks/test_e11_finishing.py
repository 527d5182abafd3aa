"""E11 — Finishing-up costs (§3.3, Lemma 3.8).

Claims instrumented:
* the Vlo/Vhi split leaves both sides with small induced maximum degree
  (property (ii) after scale Θ);
* the bad components are finished deterministically in
  O(log t + α·log* t)-flavored round counts, and components run in
  parallel so the charge is the max over components.

On the paper's Θ·Λ schedule the scale loop empties these workloads
(VIB = ∅), so the finishing stages have nothing to do.  To exercise
§3.3, each n also runs on an explicit truncated schedule: the
pipeline's own parameters with Θ = 1 and Λ = 1, passed as
``parameters=`` the way E10 passes its ablated ones.  That leaves a
residual for the split.

Table: per n and schedule — |VIB|, sizes of Vlo/Vhi, their induced max
degrees vs the split threshold, Métivier iterations spent on each, and
the parallel component cost.
"""

from __future__ import annotations

import dataclasses

import pytest

from _common import emit
from repro.core.arb_mis import arb_mis
from repro.core.finishing import split_vlo_vhi
from repro.graphs.generators import starry_arboricity_graph
from repro.graphs.properties import max_degree

SIZES = [512, 1024, 2048, 4096]
ALPHA = 2
HUBS = 6
SEED = 1
TRUNCATED = "truncated 1x1"


def _induced_max_degree(graph, nodes):
    sub = graph.subgraph(nodes)
    return max_degree(sub)


def _runs(graph):
    """``(label, result)``: the default pipeline, then the same pipeline
    with its own parameters truncated to Θ = 1, Λ = 1."""
    paper = arb_mis(graph, alpha=ALPHA, seed=SEED)
    params = paper.extra["report"].parameters
    truncated = dataclasses.replace(params, theta=1, lambda_iterations=1)
    yield f"paper {params.theta}x{params.lambda_iterations}", paper
    yield TRUNCATED, arb_mis(graph, alpha=ALPHA, seed=SEED, parameters=truncated)


def test_e11_finishing(benchmark):
    rows = []
    for n in SIZES:
        graph = starry_arboricity_graph(n, ALPHA, hubs=HUBS, seed=SEED)
        for label, result in _runs(graph):
            report = result.extra["report"]
            finishing = report.finishing
            partial = report.partial
            split = split_vlo_vhi(graph, partial.residual, partial.parameters)
            threshold = partial.parameters.final_degree_threshold()
            component = finishing.component_report
            rows.append(
                {
                    "n": n,
                    "schedule": label,
                    "|VIB|": len(partial.residual),
                    "split threshold": round(threshold, 1),
                    "|Vlo|": finishing.vlo_size,
                    "maxdeg G[Vlo]": _induced_max_degree(graph, split["vlo"]),
                    "|Vhi|": finishing.vhi_size,
                    "maxdeg G[Vhi]": _induced_max_degree(graph, split["vhi"]),
                    "vlo iters": finishing.vlo_iterations,
                    "vhi iters": finishing.vhi_iterations,
                    "bad comps": component.component_count if component else 0,
                    "comp rounds (parallel max)": component.max_rounds if component else 0,
                }
            )
            # Property (ii) analogue: the Vlo side respects the threshold by
            # construction (degrees measured within the residual).
            assert _induced_max_degree(graph, split["vlo"]) <= threshold
            if label == TRUNCATED:
                # The truncated schedule must leave §3.3 work to do.
                assert finishing.vlo_size > 0
    emit("e11_finishing", rows, "E11: finishing-up phase accounting (starry alpha=2)")

    graph = starry_arboricity_graph(1024, ALPHA, hubs=HUBS, seed=SEED)
    benchmark.pedantic(lambda: arb_mis(graph, alpha=ALPHA, seed=SEED), rounds=3, iterations=1)
