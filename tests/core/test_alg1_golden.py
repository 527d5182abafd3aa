"""Golden outputs for Algorithm 1 and the ArbMIS pipeline.

Each test runs a grid of settings on one graph and folds every output
into a SHA-256 digest:

* :func:`~repro.core.bounded_arb.bounded_arb_independent_set` —
  ``(I, B, VIB, iterations, every ScaleStats field)``;
* :func:`~repro.core.arb_mis.arb_mis` — ``(MIS, iterations,
  congest_rounds)``.

The grid covers α 1–3, the practical and paper profiles, ``early_exit``
on and off, and explicit :class:`~repro.core.parameters.Parameters` with
Λ ∈ {1, 2} and ρ factor ∈ {0.25, 1, 4} (small ρ factors make the bad set
fire).  The graphs include starry graphs (the regime where the scale
machinery fires), an isolated trailing node, negative labels and labels
≥ 2⁶³, and the empty graph.

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
    "arb-a2": "10d1afbfa30d7a24217d0139634054f4f5003b9ac47b4742bc39f3095fc3bfb4",
    "empty": "4d87ffc435c506e25ab1b661c2206d634ef17555076ced9a02e8b75b32e7e889",
    "isolated-trailing": "ebe81e29220228e9a2b8cdb74cdba3fe227e320dea89d806ba6e893667b02fdc",
    "starry-a1": "cf2c23d02ef51aa284410b1878c22ba2abe432fb60d20e05b03ed7315bd33077",
    "starry-a2": "22ec9d2be7f4c83dca117556788960d79a743ec10f7739789a64f10b890fb8d6",
    "starry-a3": "762cd1fcf40e8a897dc758839368c1e37d851315694e47ccf19d45c11161e135",
    "wild-labels": "32843a9fd8f0c104fea68d0ab0dbadf0c6b3f08d0106ee49de059538c3491323",
}

#: SHA-256 of the ArbMIS output stream over :func:`_settings`.
ARB_MIS_DIGESTS = {
    "arb-a2": "327f51c96371e8ad51e8dec91beaff5a43150cf805d5384723c4da9bd8ffda4e",
    "empty": "0cea579eb379a036530065ee55bec8f762fc1c0c74c98fae012c98c1d4350c3f",
    "isolated-trailing": "902969acc82ba97612923ec7233e9507be159925765a071337ec66fe65667341",
    "starry-a1": "87bbe9b4e36a6e3ddb60d162d7c8c6bbeab9834afeeb49d7ec53777f3d136f02",
    "starry-a2": "019e584df98c8a5d76c9913b7a1a550d968612bb0353531a57837d6c17b39fdf",
    "starry-a3": "95a8e4c48b2b7de042d2a3424a6abc919a595e960421a08c33d850cc21779954",
    "wild-labels": "ae409e78c622377dd772e3b771c1cd775b89f0e211778a72ed5e08282c4ac02c",
}


def _settings(graph):
    """Yield ``(alpha, seed, kwargs)`` for every grid point on ``graph``."""
    delta = max_degree(graph)
    for alpha in ALPHAS:
        for seed in SEEDS:
            for early_exit in (False, True):
                for profile in ("practical", "paper"):
                    yield alpha, seed, {"profile": profile, "early_exit": early_exit}
                base = compute_parameters(alpha, delta, "practical")
                for lambda_iterations in (1, 2):
                    for rho_factor in (0.25, 1.0, 4.0):
                        params = dataclasses.replace(
                            base,
                            lambda_iterations=lambda_iterations,
                            rho_factor=rho_factor,
                        )
                        yield alpha, seed, {"parameters": params, "early_exit": early_exit}


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
    graph = GRAPHS["starry-a2"]()
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
