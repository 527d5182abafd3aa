"""Exhaustive small-world checks: every labelled graph on up to five nodes.

Random graphs sample the input space; on tiny graphs the whole space
fits.  For every labelled graph on 1–5 nodes (1,099 graphs) and each of
the four competition algorithms at seed 1 this module checks:

* scalar ≡ bulk ≡ CONGEST, bit-identical, and each result is a valid MIS;
* MPC at every shard count ≤ n, for n ≤ 4;
* a SHA-256 digest of the scalar ``(sorted MIS, iterations)`` stream.

For the pipeline names on the same 1,099 graphs:

* ``arb_mis`` at α ∈ {1, 2} — a valid MIS, digested, and its Algorithm 1
  stage ``(I, B, VIB, iterations)`` equal to the CONGEST
  :func:`~repro.core.bounded_arb.bounded_arb_congest` on the graph the
  stage ran on;
* Algorithm 1 under two explicit schedules at α ∈ {1, 2} — the fast
  engine's ``(I, B, VIB, iterations)`` equal to the CONGEST engine's;
* ``tree-independent-set`` on the forests among them (it refuses the
  others by design) and ``lenzen-wattenhofer`` at seeds 1 and 2 — a
  valid MIS, digested.

and, for the repair passes built on the same competition:

* every single mutation of every graph on n ≤ 5 (17,154 transitions)
  applied to the graph's π-greedy MIS and repaired with
  :func:`~repro.serve.incremental.update_repair` — equal to the π-greedy
  MIS of the mutated graph, so the served set depends on the graph alone;
* :func:`~repro.core.repair.repair` for every claimed set and every crash
  subset of every graph on n ≤ 4 — repaired, and digested;
* :meth:`GraphSession.apply_epoch` with a ``should_abort`` that fires
  leaves ``(edges, mis, fingerprint, epoch)`` untouched, for n ≤ 4.

The digests pin exact outputs, not just validity: a change to the
shared competition loops that moves a single coin or iteration shows up as a
digest mismatch even when every output is still a valid MIS.  The n = 6
enumeration (32,768 graphs) is marked ``slow`` and runs only when the
marker expression selects it (``pytest -m slow``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import networkx as nx
import pytest

from repro.core.arb_mis import arb_mis
from repro.core.bounded_arb import bounded_arb_congest, bounded_arb_independent_set
from repro.core.parameters import compute_parameters
from repro.core.repair import repair
from repro.errors import GraphError
from repro.graphs.properties import max_degree
from repro.mis.registry import get_algorithm
from repro.mis.bulk import (
    ghaffari_mis_bulk,
    luby_a_mis_bulk,
    luby_b_mis_bulk,
    metivier_mis_bulk,
)
from repro.mis.ghaffari import ghaffari_mis, ghaffari_mis_congest
from repro.mis.greedy import greedy_mis
from repro.mis.luby import luby_a_mis, luby_a_mis_congest, luby_b_mis, luby_b_mis_congest
from repro.mis.metivier import metivier_mis, metivier_mis_congest
from repro.mis.tree import tree_mis
from repro.mis.validation import assert_valid_mis
from repro.mpc import run_sharded
from repro.serve.incremental import (
    ComputeAborted,
    GraphSession,
    Mutation,
    apply_mutations,
    priority,
    update_repair,
)

SEED = 1

#: algorithm → (scalar, bulk, CONGEST) engine.
ENGINES = {
    "metivier": (metivier_mis, metivier_mis_bulk, metivier_mis_congest),
    "luby-a": (luby_a_mis, luby_a_mis_bulk, luby_a_mis_congest),
    "luby-b": (luby_b_mis, luby_b_mis_bulk, luby_b_mis_congest),
    "ghaffari": (ghaffari_mis, ghaffari_mis_bulk, ghaffari_mis_congest),
}

#: SHA-256 of the scalar ``(n, mask, sorted MIS, iterations)`` stream
#: over every labelled graph on 1–5 nodes.
OUTPUT_DIGESTS = {
    "metivier": "ee6e6e07413926ef00a2a9cef61a9d59f8d2285e64e1f8a856536a71a99ee35a",
    "luby-a": "9bf2a4bc80963921118850a7b23b454cbc1c3493f7de0def43a24b85da71581c",
    "luby-b": "a752648138555c6271ba41b962238c5386ea2232bfb5d4714b55140484faa156",
    "ghaffari": "27c6050288decd56a2ad159eac9fd0657ef02d88e68ce80461c9da1b30998a22",
}

#: The same stream over the 32,768 labelled graphs on 6 nodes.
OUTPUT_DIGESTS_N6 = {
    "metivier": "ccae8bd693b8a62b2125ad5a59046813438733fdbf089384ef82773fa5ff72c4",
    "luby-a": "2b5b0c0f3ca349409a3caa642803db8d98c1d629870ad3a774c5fd3d7a7a620c",
    "luby-b": "e4d10dd4a7888993c071b99c4681504f4de9ddff72bfc373f4ba7fbbe941b650",
    "ghaffari": "b93fee9c0ead1ff097e7e75db69e234ae296c67f4fe621d356dfc8dc1e0d4c89",
}

#: SHA-256 of the ``(n, mask, sorted MIS, iterations, congest_rounds)``
#: stream of ``arb_mis`` at each α over every labelled graph on 1–5 nodes.
ARB_MIS_DIGESTS = {
    1: "27b8759c17224c262e597a1cc351c0fdda9ef522f525b1037c67c911097b794f",
    2: "001f94d3d7dcb610d7d43cbff30ccfa91a105eb520c33b3664bfb96339a166e7",
}

#: The same stream for ``tree-independent-set`` over the 339 forests.
TREE_DIGEST = (
    "b9d0ef1594dcbd370ae9772990b9ae71744b77dd9620699a66742d203ee8a8b5"
)

#: The same stream for ``lenzen-wattenhofer`` over the 339 forests, by seed.
LW_DIGESTS = {
    1: "46d1f4bde08887fac2e195569b9638f8a1a2905731208203384d310501a1da30",
    2: "56381d8b7da8dd681277fd31512619c65eb16679ece82e207d9d59a688488a12",
}

#: Algorithm 1 schedules other than the default, as replacements of each
#: graph's ``compute_parameters(α, Δ)``: E11's truncated Θ = 1, Λ = 1
#: schedule, and a point (Θ = 2, Λ = 1, ρ factor 1) at which the bad set
#: fires on graphs whose arboricity is within α.
SCHEDULES = {
    "e11-truncated": dict(theta=1, lambda_iterations=1),
    "bad-set": dict(theta=2, lambda_iterations=1, rho_factor=1.0),
}

#: Runs, per (schedule, α), that mark a bad node on a graph of
#: arboricity ≤ α.
BAD_SET_RUNS = {
    ("e11-truncated", 1): 0,
    ("e11-truncated", 2): 0,
    ("bad-set", 1): 291,
    ("bad-set", 2): 668,
}

#: SHA-256 of every (claimed set, crash subset) crash repair on n ≤ 4.
CRASH_REPAIR_DIGEST = (
    "a0587a791324c4457a3c5018d2b9df8f94d248740f8d9b8dffdebf7f13cd6ace"
)


def labelled_graphs(n):
    """Yield ``(mask, graph)`` for every graph on nodes ``0..n-1``.

    Bit ``i`` of ``mask`` selects the ``i``-th pair of
    ``itertools.combinations(range(n), 2)``.
    """
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
        yield mask, graph


def single_mutations(graph):
    """Every one-step mutation: toggle each pair, delete each node, add one."""
    n = graph.number_of_nodes()
    for u, v in itertools.combinations(range(n), 2):
        op = "remove-edge" if graph.has_edge(u, v) else "add-edge"
        yield Mutation(op, u, v)
    for v in range(n):
        yield Mutation("remove-node", v)
    yield Mutation("add-node", n)


def _check_engines(algorithm, sizes):
    """Differential + validity check; returns the scalar stream digest."""
    scalar_fn, bulk_fn, congest_fn = ENGINES[algorithm]
    digest = hashlib.sha256()
    for n in sizes:
        for mask, graph in labelled_graphs(n):
            scalar = scalar_fn(graph, seed=SEED)
            bulk = bulk_fn(graph, seed=SEED)
            congest = congest_fn(graph, seed=SEED)
            where = (algorithm, n, mask)
            assert_valid_mis(graph, scalar.mis)
            assert bulk.mis == scalar.mis == congest.mis, where
            assert bulk.iterations == scalar.iterations, where
            assert bulk.active_history == scalar.active_history, where
            digest.update(
                f"{n}:{mask}:{sorted(scalar.mis)}:{scalar.iterations}\n".encode()
            )
    return digest.hexdigest()


@pytest.mark.parametrize("algorithm", sorted(ENGINES))
def test_engines_agree_on_every_graph_up_to_five_nodes(algorithm):
    assert _check_engines(algorithm, range(1, 6)) == OUTPUT_DIGESTS[algorithm]


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", sorted(ENGINES))
def test_engines_agree_on_every_six_node_graph(algorithm, request):
    # Minutes, not seconds: runs only when the marker expression asks for
    # it (``pytest -m slow tests/mis/test_exhaustive.py``).
    if "slow" not in request.config.getoption("markexpr"):
        pytest.skip("n = 6 enumeration runs under -m slow")
    assert _check_engines(algorithm, [6]) == OUTPUT_DIGESTS_N6[algorithm]


def _pipeline_line(n, mask, result):
    return (
        f"{n}:{mask}:{sorted(result.mis)}:{result.iterations}:"
        f"{result.congest_rounds}\n".encode()
    )


def _alg1_sets(result):
    return (
        result.independent_set,
        result.bad_set,
        result.residual,
        result.iterations,
    )


@pytest.mark.parametrize("alpha", sorted(ARB_MIS_DIGESTS))
def test_arb_mis_on_every_graph_up_to_five_nodes(alpha):
    digest = hashlib.sha256()
    for n in range(1, 6):
        for mask, graph in labelled_graphs(n):
            result = arb_mis(graph, alpha=alpha, seed=SEED)
            assert_valid_mis(graph, result.mis)
            digest.update(_pipeline_line(n, mask, result))
            report = result.extra["report"]
            working = (
                graph
                if report.reduction is None
                else graph.subgraph(report.reduction.surviving)
            )
            anchor = bounded_arb_congest(working, alpha=alpha, seed=SEED)
            assert _alg1_sets(report.partial) == _alg1_sets(anchor), (n, mask)
    assert digest.hexdigest() == ARB_MIS_DIGESTS[alpha]


def arboricity(graph):
    """Nash-Williams: max over node subsets H of ⌈m_H / (|H| − 1)⌉."""
    nodes = list(graph)
    return max(
        (
            -(-graph.subgraph(sub).number_of_edges() // (size - 1))
            for size in range(2, len(nodes) + 1)
            for sub in itertools.combinations(nodes, size)
        ),
        default=0,
    )


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_alg1_engines_agree_under_explicit_schedules(schedule, alpha):
    bad_runs = 0
    for n in range(1, 6):
        for mask, graph in labelled_graphs(n):
            params = dataclasses.replace(
                compute_parameters(alpha, max_degree(graph)), **SCHEDULES[schedule]
            )
            fast = bounded_arb_independent_set(
                graph, alpha=alpha, seed=SEED, parameters=params
            )
            anchor = bounded_arb_congest(
                graph, alpha=alpha, seed=SEED, parameters=params
            )
            assert _alg1_sets(fast) == _alg1_sets(anchor), (n, mask)
            if fast.bad_set and arboricity(graph) <= alpha:
                bad_runs += 1
    assert bad_runs == BAD_SET_RUNS[(schedule, alpha)]


def test_tree_independent_set_on_every_forest_up_to_five_nodes():
    digest = hashlib.sha256()
    forests = refused = 0
    for n in range(1, 6):
        for mask, graph in labelled_graphs(n):
            if not nx.is_forest(graph):
                with pytest.raises(GraphError):
                    tree_mis(graph, seed=SEED)
                refused += 1
                continue
            result = tree_mis(graph, seed=SEED)
            assert_valid_mis(graph, result.mis)
            digest.update(_pipeline_line(n, mask, result))
            forests += 1
    assert (forests, refused) == (339, 760)
    assert digest.hexdigest() == TREE_DIGEST


@pytest.mark.parametrize("seed", sorted(LW_DIGESTS))
def test_lenzen_wattenhofer_on_every_forest_up_to_five_nodes(seed):
    lenzen_wattenhofer = get_algorithm("lenzen-wattenhofer")
    digest = hashlib.sha256()
    forests = 0
    for n in range(1, 6):
        for mask, graph in labelled_graphs(n):
            if not nx.is_forest(graph):
                continue
            result = lenzen_wattenhofer(graph, seed=seed)
            assert_valid_mis(graph, result.mis)
            digest.update(_pipeline_line(n, mask, result))
            forests += 1
    assert forests == 339
    assert digest.hexdigest() == LW_DIGESTS[seed]


@pytest.mark.parametrize("algorithm", sorted(ENGINES))
def test_mpc_matches_bulk_at_every_shard_count(algorithm):
    bulk_fn = ENGINES[algorithm][1]
    for n in range(1, 5):
        for mask, graph in labelled_graphs(n):
            bulk = bulk_fn(graph, seed=SEED)
            for shards in range(1, n + 1):
                mpc = run_sharded(algorithm, graph, seed=SEED, shards=shards)
                where = (algorithm, n, mask, shards)
                assert mpc.mis == bulk.mis, where
                assert mpc.iterations == bulk.iterations, where
                assert mpc.active_history == bulk.active_history, where


def greedy(graph):
    """The oracle: the greedy MIS in descending session priority π."""
    order = sorted(graph, key=lambda v: priority(SEED, v), reverse=True)
    return greedy_mis(graph, order)


def test_every_single_mutation_repairs_to_a_valid_mis():
    transitions = 0
    for n in range(1, 6):
        for mask, graph in labelled_graphs(n):
            mis = greedy(graph)
            for mutation in single_mutations(graph):
                mutated = graph.copy()
                damaged = apply_mutations(mutated, [mutation])
                report = update_repair(mutated, mis, damaged, seed=SEED)
                assert report.mis == greedy(mutated), (n, mask, mutation)
                transitions += 1
    assert transitions == 17_154


def _subsets(n):
    return [
        {v for v in range(n) if bits >> v & 1} for bits in range(1 << n)
    ]


def test_every_crash_subset_repairs():
    digest = hashlib.sha256()
    for n in range(1, 5):
        subsets = _subsets(n)
        for mask, graph in labelled_graphs(n):
            for claimed in subsets:
                outputs = {
                    v: ("mis",) if v in claimed else ("dominated",) for v in graph
                }
                for crashed in subsets:
                    report = repair(graph, outputs, crashed, seed=SEED)
                    assert report.repaired, (n, mask, claimed, crashed)
                    digest.update(
                        f"{n}:{mask}:{sorted(claimed)}:{sorted(crashed)}:"
                        f"{sorted(report.mis)}:{sorted(report.evicted)}:"
                        f"{sorted(report.added)}:{report.repair_rounds}\n".encode()
                    )
    assert digest.hexdigest() == CRASH_REPAIR_DIGEST


def _session_state(session):
    edges = sorted(tuple(sorted(e)) for e in session.graph.edges)
    return edges, session.mis, session.fingerprint, session.epoch


def test_aborted_epoch_leaves_session_untouched():
    aborted = 0
    for n in range(1, 5):
        for _, graph in labelled_graphs(n):
            for mutation in single_mutations(graph):
                reference = GraphSession("s", seed=SEED, graph=graph.copy())
                reference.apply_epoch([mutation])
                # Fire on the first, second or third abort probe: before
                # the repair starts, or between competition iterations.
                for fire_at in range(3):
                    session = GraphSession("s", seed=SEED, graph=graph.copy())
                    before = _session_state(session)
                    probes = itertools.count()
                    try:
                        session.apply_epoch(
                            [mutation],
                            should_abort=lambda: next(probes) >= fire_at,
                        )
                    except ComputeAborted:
                        assert _session_state(session) == before, mutation
                        aborted += 1
                    else:
                        assert _session_state(session) == _session_state(reference)
    assert aborted > 0
