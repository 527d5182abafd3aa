"""E3 — poly(α) dependence at fixed n.

Claim instrumented (Theorem 2.1): the paper's round bound carries an α⁹
factor (with "not difficult" improvements below 9; our practical profile's
Λ carries α²).  The *scale-loop budget* Θ·Λ is the α-sensitive part; the
measured iterations should grow polynomially — not exponentially — in α,
and the parameter formulas should match their stated shapes exactly.

Table: per α, the parameter values (Θ, Λ, Θ·Λ), the measured scale-loop
iterations and the full pipeline iteration count on union-of-α-forests
graphs at fixed n; plus the fitted exponent of α.
"""

from __future__ import annotations

import pytest

from _common import emit
from repro.analysis.rounds import fit_growth_exponent
from repro.analysis.stats import summarize
from repro.core.arb_mis import arb_mis
from repro.core.parameters import compute_parameters
from repro.graphs.generators import bounded_arboricity_graph
from repro.graphs.properties import max_degree

N = 2048
ALPHAS = [1, 2, 3, 4, 5, 6]
SEEDS = [0, 1, 2]


def test_e3_alpha_dependence(benchmark):
    rows = []
    measured_means = []
    for alpha in ALPHAS:
        graphs = [bounded_arboricity_graph(N, alpha, seed=s) for s in SEEDS]
        params = compute_parameters(alpha, max_degree(graphs[0]), "practical")
        results = [arb_mis(g, alpha=alpha, seed=s) for g, s in zip(graphs, SEEDS)]
        scale_iters = summarize([r.extra["report"].partial.iterations for r in results])
        total_iters = summarize([r.iterations for r in results])
        measured_means.append(total_iters.mean)
        rows.append(
            {
                "alpha": alpha,
                "Delta": max_degree(graphs[0]),
                "Theta": params.theta,
                "Lambda": params.lambda_iterations,
                "budget Theta*Lambda": params.total_iterations(),
                "scale iters (measured)": str(scale_iters),
                "total iters (measured)": str(total_iters),
            }
        )
    exponent, _ = fit_growth_exponent([float(a) for a in ALPHAS], measured_means)
    rows.append({"alpha": "fit", "Delta": f"iters ~ alpha^{exponent:.2f}"})
    emit("e3_alpha_dependence", rows, f"E3: alpha dependence at n={N}")

    # Polynomial, not exponential: the fitted exponent stays small.
    assert exponent < 4.0

    graph = bounded_arboricity_graph(N, 3, seed=0)
    benchmark.pedantic(lambda: arb_mis(graph, alpha=3, seed=0), rounds=3, iterations=1)
