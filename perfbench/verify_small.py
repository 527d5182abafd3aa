"""verify-small: the four-way differential on a seeded stream of small graphs.

Each graph runs Métivier, Luby A, Luby B and Ghaffari on four engines —
scalar, bulk, sharded MPC and the CONGEST simulator — validates all sixteen
results, and requires each algorithm's MIS and iteration count to be
identical across the four.  Per-call overhead dominates at these sizes.
"""

from __future__ import annotations

import functools
import math
import random
import time
from typing import Dict, List, Optional

import networkx as nx

from repro.congest.simulator import SynchronousSimulator
from repro.graphs import bounded_arboricity_graph, gnp_graph, random_tree
from repro.mis import bulk as mis_bulk
from repro.mis import ghaffari, luby, metivier
from repro.mis.registry import get_algorithm
from repro.mpc.runtime import run_sharded
from repro.obs.session import ObsSession
from repro.obs.sinks import NullSink

from harness import (
    SCALAR_ALGORITHMS,
    SETUP_REPEATS,
    Outcome,
    Recorder,
    layer_metrics,
    mean,
    p50,
    p90,
    peak_rss_mb,
    rounds_of,
    solve_checked,
    timed_setup,
    top_lines,
)

#: Node counts are log-uniform in [low, high].
SIZES = {"full": (4, 64), "tiny": (4, 16)}
FAMILIES = (
    lambda n, seed: random_tree(n, seed=seed),
    lambda n, seed: bounded_arboricity_graph(n, 2, seed=seed),
    lambda n, seed: gnp_graph(n, 0.15, seed=seed),
)
CONGEST = {
    "metivier": metivier.metivier_mis_congest,
    "luby-a": luby.luby_a_mis_congest,
    "luby-b": luby.luby_b_mis_congest,
    "ghaffari": ghaffari.ghaffari_mis_congest,
}
MPC_SHARDS = 2
#: Graphs generated per second of ``--seconds``: about 2.5 times what is
#: verified on a two-vCPU Xeon VM, so the stream wraps around only after a
#: large speed-up.
GRAPHS_PER_SECOND = 150
#: ``rounds_per_op`` averages the first this-many graphs, which every run
#: verifies (the run goes on past ``--seconds`` until it has), so the
#: metric is exact for a seed.
ROUNDS_GRAPHS = 256


def build_stream(seed: int, count: int, size: str) -> Dict:
    rng = random.Random(seed)
    low, high = SIZES[size]
    graphs: List[nx.Graph] = []
    for index in range(count):
        n = int(round(math.exp(rng.uniform(math.log(low), math.log(high)))))
        graphs.append(FAMILIES[index % len(FAMILIES)](n, rng.getrandbits(31)))
    return {"graphs": graphs}


def _verify_graph(graph: nx.Graph, index: int, outcome: Outcome, recorder: Optional[Recorder],
                  counts: Dict[str, List]) -> None:
    """All four engines for every algorithm on one graph; the algorithm
    seed is the graph's position in the stream."""
    tracer = recorder.tracer() if recorder is not None else None
    obs = None
    if recorder is not None:
        obs = ObsSession(".", None, NullSink())
        obs.tracer = tracer
    bulk_kwargs = {"tracer": tracer} if tracer is not None else {}
    for name in SCALAR_ALGORITHMS:
        tiers = (
            (f"mis|{name}", lambda: get_algorithm(name)(graph, seed=index)),
            (f"mis.bulk|{name}",
             lambda: get_algorithm(name, engine="bulk")(graph, seed=index, **bulk_kwargs)),
            (f"mpc|{name}",
             lambda: run_sharded(name, graph, seed=index, shards=MPC_SHARDS, workers=0, obs=obs)),
            (f"congest|{name}", lambda: CONGEST[name](graph, seed=index)),
        )
        results = []
        ok = True
        for span_name, call in tiers:
            result, valid = solve_checked(outcome, recorder, span_name, call, graph)
            ok = ok and valid
            results.append(result)
        base = results[0]
        ok = ok and all(r.mis == base.mis and r.iterations == base.iterations for r in results)
        outcome.record(ok, f"{name} on graph {index} (n={graph.number_of_nodes()}): "
                           f"invalid, or the four engines disagree")
        counts["rounds"].extend(rounds_of(r) for r in results)
        counts["mis_sizes"].append(len(base.mis))
        counts["comm_bytes"].append(results[2].extra["comm"]["total_bytes"])
        counts["messages"].append(results[3].metrics.total_messages)
        counts["bits"].append(results[3].metrics.total_bits)


def _run_stream(graphs: List[nx.Graph], seconds: float, floor: int, outcome: Outcome,
                recorder: Optional[Recorder]) -> Dict:
    """Verify graphs in stream order until ``seconds`` pass and ``floor``
    graphs are done; returns per-graph latencies, rounds and counters."""
    counts: Dict[str, List] = {"latency": [], "rounds": [],
                               "comm_bytes": [], "messages": [], "bits": [],
                               "mis_sizes": [], "rounds_first": [], "mis_sizes_first": []}
    started = time.perf_counter()
    index = 0
    while index < floor or time.perf_counter() - started < seconds:
        graph = graphs[index % len(graphs)]
        t0 = time.perf_counter()
        _verify_graph(graph, index, outcome, recorder, counts)
        counts["latency"].append(time.perf_counter() - t0)
        index += 1
        if index == ROUNDS_GRAPHS:
            counts["rounds_first"] = list(counts["rounds"])
            counts["mis_sizes_first"] = list(counts["mis_sizes"])
    counts["window"] = time.perf_counter() - started
    return counts


def run(seed: int, seconds: float, trace: bool, size: str, outcome: Outcome) -> None:
    count = max(ROUNDS_GRAPHS, int(seconds * GRAPHS_PER_SECOND))
    repeats = 1 if trace else SETUP_REPEATS
    inputs, setup_times = timed_setup(lambda: build_stream(seed, count, size), repeats)
    graphs = inputs["graphs"]

    if trace:
        # The same graphs twice: untraced for the overhead baseline, then traced.
        untraced = _run_stream(graphs, seconds / 2, 1, outcome, None)
        done = len(untraced["latency"])
        recorder = Recorder()
        recorder.wrap(mis_bulk, "csr_from_graph", "graphs.csr|convert")
        simulator = functools.partial(SynchronousSimulator, tracer=recorder.tracer())
        for module in (metivier, luby, ghaffari):
            recorder.replace(module, "SynchronousSimulator", simulator)
        try:
            traced = _run_stream(graphs, 0.0, done, outcome, recorder)
        finally:
            recorder.restore()
        metrics = layer_metrics(recorder, traced["window"],
                                traced["window"] / untraced["window"] - 1.0)
        metrics["mpc.comm_bytes"] = mean(traced["comm_bytes"])
        metrics["congest.messages_per_run"] = mean(traced["messages"])
        metrics["congest.bits_per_run"] = mean(traced["bits"])
        metrics["graphs.generators.s"] = setup_times[0]
        outcome.metrics.update(metrics)
        outcome.notes.append(f"{done} graphs untraced, then the same {done} traced")
        outcome.notes += top_lines(recorder)
        return

    counts = _run_stream(graphs, seconds, ROUNDS_GRAPHS, outcome, None)
    window = counts["window"]
    outcome.metrics.update(
        {
            "setup_s": p50(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "rounds_per_op": mean(counts["rounds_first"]),
            "op_p50_ms": 1e3 * p50(counts["latency"]),
            "op_p90_ms": 1e3 * p90(counts["latency"]),
            "graphs_per_s": len(counts["latency"]) / window,
        }
    )
    outcome.notes.append(
        f"{len(counts['latency'])} graphs from a stream of {len(graphs)}; "
        f"op percentiles over {len(counts['latency'])} graphs; "
        f"rounds_per_op over the first {ROUNDS_GRAPHS} graphs"
    )
    outcome.notes.append(
        f"mis_size_sum {sum(counts['mis_sizes_first'])} (first {ROUNDS_GRAPHS} graphs)"
    )
