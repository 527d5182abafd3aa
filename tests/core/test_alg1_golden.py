"""Golden outputs for Algorithm 1 and the ArbMIS pipeline.

Each test runs a grid of settings on one graph and folds every output
into a SHA-256 digest:

* :func:`~repro.core.bounded_arb.bounded_arb_independent_set` —
  ``(I, B, VIB, iterations, every ScaleStats field)``;
* :func:`~repro.core.arb_mis.arb_mis` — ``(MIS, iterations,
  congest_rounds)``.

The grid covers α 1–3, the practical and paper profiles, and explicit
:class:`~repro.core.parameters.Parameters` with Λ ∈ {1, 2} and ρ factor
∈ {0.25, 1, 4}.  The graphs include starry graphs (the regime where the
scale machinery fires), an isolated trailing node, negative labels and
labels ≥ 2⁶³, and the empty graph.  The bad set fires on the arb-2
graph run at α = 1 with ρ factor ≤ 1, where the scales leave high-degree
nodes behind.

The digests pin exact outputs, not validity: a change to the engine that
moves one coin, one bad mark or one counter shows up as a mismatch even
when every output is still independent.
"""

from __future__ import annotations

import dataclasses
import hashlib

import networkx as nx
import pytest

from repro.core.arb_mis import arb_mis
from repro.core.bounded_arb import bounded_arb_independent_set
from repro.core.parameters import compute_parameters
from repro.graphs.generators import bounded_arboricity_graph, starry_arboricity_graph
from repro.graphs.properties import max_degree
from repro.mis.validation import is_independent_set

ALPHAS = (1, 2, 3)
SEEDS = (0, 1)


def _with_trailing_isolated_node(graph):
    graph.add_node(graph.number_of_nodes())
    return graph


def _wild_labels(graph):
    """Relabel to negative ids (even nodes) and ids ≥ 2⁶³ (odd nodes)."""
    return nx.relabel_nodes(
        graph, {v: -v - 1 if v % 2 == 0 else 2**63 + v for v in graph}
    )


GRAPHS = {
    "starry-a1": lambda: starry_arboricity_graph(160, 1, hubs=2, seed=3),
    "starry-a2": lambda: starry_arboricity_graph(300, 2, hubs=3, seed=5),
    "starry-a3": lambda: starry_arboricity_graph(240, 3, hubs=2, seed=7),
    "arb-a2": lambda: bounded_arboricity_graph(150, 2, seed=4),
    "isolated-trailing": lambda: _with_trailing_isolated_node(
        starry_arboricity_graph(200, 2, hubs=4, seed=9)
    ),
    "wild-labels": lambda: _wild_labels(starry_arboricity_graph(200, 2, hubs=3, seed=2)),
    "empty": nx.Graph,
}

#: SHA-256 of the Algorithm 1 output stream over :func:`_settings`.
ALG1_DIGESTS = {
    "arb-a2": "be0a26a75c0c583ee40229d5fdb2d26698caf3b429e5df0aa2dff7f502a66822",
    "empty": "cc62a23dcf95f47c0b7eb576067a7da5afb49b30e32cf36d58b655b7c32bc803",
    "isolated-trailing": "afa5e61cc4f0b6284cb1b5eac13171a1d20eff1a7353f2c540d69812d316b5bd",
    "starry-a1": "ab55b0d1eeadef889fe431e79cf9392f3053a9ef2b7c43c61b8c206fa331b6d6",
    "starry-a2": "50d39395648baa598cb30a09b1a11a0fda117dd8a49d084aad37b961c3267c0d",
    "starry-a3": "01400d37d71819debda96ac812a2745d166f1bf1e241f288e2345ac3b9c9aa90",
    "wild-labels": "4450a2a27d3908042d2f7960cb48e9ee96b13e82015bffdf7faba60fe5507282",
}

#: SHA-256 of the ArbMIS output stream over :func:`_settings`.
ARB_MIS_DIGESTS = {
    "arb-a2": "b485891aa621cbcf3c41d6f927a47ae73a17257c7122fd6f3458973536cd456d",
    "empty": "beae5a3fbc9aa3231450498c38a6f620cee17fe9baecf47314ab035161a1bc8f",
    "isolated-trailing": "bf2ffefc76d556abbe493d6e52fab78ae96b29d55a26478e10cd52825bc63d15",
    "starry-a1": "b097b13e27a58fd72013c11aadbb1c6d51a3493ad8906e0ccbdb7826ac07c41b",
    "starry-a2": "f447f9ea2cdc749cf19e5a6d3ee55aa4f2cd7195a5a515e342ee841587f55a8c",
    "starry-a3": "054e562e002ca21d9fa46bd8d879faabb1a12f66597bc7efa7324749f6223122",
    "wild-labels": "14f4bd90387a818dd073e90fe54e5792539b2de63bb5db022203da0f51033eaa",
}


def _settings(graph):
    """Yield ``(alpha, seed, kwargs)`` for every grid point on ``graph``."""
    delta = max_degree(graph)
    for alpha in ALPHAS:
        for seed in SEEDS:
            for profile in ("practical", "paper"):
                yield alpha, seed, {"profile": profile}
            base = compute_parameters(alpha, delta, "practical")
            for lambda_iterations in (1, 2):
                for rho_factor in (0.25, 1.0, 4.0):
                    params = dataclasses.replace(
                        base,
                        lambda_iterations=lambda_iterations,
                        rho_factor=rho_factor,
                    )
                    yield alpha, seed, {"parameters": params}


def _stats_line(stats):
    return (
        f"{int(stats.scale)},{int(stats.iterations_used)},{int(stats.active_before)},"
        f"{int(stats.active_after)},{int(stats.joined)},{int(stats.eliminated)},"
        f"{int(stats.bad_added)},{int(stats.max_high_degree_neighbors)},"
        f"{float(stats.bad_threshold)!r},{bool(stats.invariant_satisfied)}"
    )


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_algorithm_1_outputs_are_pinned(name):
    graph = GRAPHS[name]()
    digest = hashlib.sha256()
    for alpha, seed, kwargs in _settings(graph):
        result = bounded_arb_independent_set(graph, alpha=alpha, seed=seed, **kwargs)
        assert is_independent_set(graph, result.independent_set)
        stats = ";".join(_stats_line(s) for s in result.scale_stats)
        digest.update(
            f"{alpha}:{seed}:{sorted(result.independent_set)}:"
            f"{sorted(result.bad_set)}:{sorted(result.residual)}:"
            f"{result.iterations}:{stats}\n".encode()
        )
    assert digest.hexdigest() == ALG1_DIGESTS[name]


def test_bad_set_fires_somewhere_in_the_grid():
    graph = GRAPHS["arb-a2"]()
    fired = sum(
        bool(bounded_arb_independent_set(graph, alpha=a, seed=s, **kw).bad_set)
        for a, s, kw in _settings(graph)
    )
    assert fired > 0


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_arb_mis_outputs_are_pinned(name):
    graph = GRAPHS[name]()
    digest = hashlib.sha256()
    for alpha, seed, kwargs in _settings(graph):
        result = arb_mis(graph, alpha=alpha, seed=seed, **kwargs)
        digest.update(
            f"{alpha}:{seed}:{sorted(result.mis)}:{result.iterations}:"
            f"{result.congest_rounds}\n".encode()
        )
    assert digest.hexdigest() == ARB_MIS_DIGESTS[name]
