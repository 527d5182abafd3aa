"""batch-large: one 100,000-node bounded-arboricity graph through the batch engines.

Per pass, in a fixed order: the paper's ``arb_mis`` pipeline, the scalar
engines of Métivier, Luby B and Ghaffari, the bulk Métivier engine on the
networkx input (so its CSR conversion is timed), and the sharded MPC
runtime on a CSR graph built during set-up.  Every result is validated;
the three Métivier engines must agree bit for bit, and every pass must
repeat the first.

Each solve starts from a full garbage collection, outside its timer.  The
solve still pays for every collection its own allocations trigger, but not
for one that earlier solves left pending.  Without this, twenty repeats of
one 20,000-node Métivier solve had an interquartile spread of 16% of their
median, set by where the collector's counters happened to stand; with it,
4%.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Optional

from repro.core.arb_mis import arb_mis
from repro.graphs import bounded_arboricity_graph, csr_from_graph
from repro.mis import bulk as mis_bulk
from repro.mis.registry import get_algorithm
from repro.mpc.runtime import run_sharded
from repro.obs.session import ObsSession
from repro.obs.sinks import NullSink

from harness import (
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

ALPHA = 2
SIZES = {"full": 100_000, "tiny": 2_000}
#: Engines the pass runs, as (span name, algorithm).
SCALAR = ("metivier", "luby-b", "ghaffari")
MPC_SHARDS = 4
#: Algorithm seed; the workload seed only shapes the graph.
SOLVE_SEED = 0


class _PhaseObserver:
    """``arb_mis`` observer that turns its phases into benchmark spans."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def phase(self, name: str):
        return self.recorder.span(f"core|{name}")


def build_inputs(seed: int, size: str) -> Dict:
    graph_seed = random.Random(seed).getrandbits(31)
    started = time.perf_counter()
    graph = bounded_arboricity_graph(SIZES[size], ALPHA, seed=graph_seed)
    generate_s = time.perf_counter() - started
    return {"graph": graph, "csr": csr_from_graph(graph), "generate_s": generate_s}


def _one_pass(inputs: Dict, outcome: Outcome, recorder: Optional[Recorder]) -> List:
    """Solve and validate once with every engine.

    Returns ``(span name, result, seconds, valid)`` per solve.
    """
    graph, csr = inputs["graph"], inputs["csr"]
    tracer = recorder.tracer() if recorder is not None else None
    obs = None
    if recorder is not None:
        obs = ObsSession(".", None, NullSink())
        obs.tracer = tracer
    observer = _PhaseObserver(recorder) if recorder is not None else None
    solves = [("core|arb_mis", lambda: arb_mis(graph, alpha=ALPHA, seed=SOLVE_SEED, observer=observer))]
    solves += [
        (f"mis|{name}", lambda name=name: get_algorithm(name)(graph, seed=SOLVE_SEED))
        for name in SCALAR
    ]
    solves += [
        ("mis.bulk|metivier",
         lambda: get_algorithm("metivier", engine="bulk")(graph, seed=SOLVE_SEED, tracer=tracer)),
        ("mpc|metivier",
         lambda: run_sharded("metivier", csr, seed=SOLVE_SEED, shards=MPC_SHARDS, workers=0, obs=obs)),
    ]
    done = []
    for name, call in solves:
        gc.collect()
        started = time.perf_counter()
        result, valid = solve_checked(outcome, recorder, name, call, graph)
        done.append((name, result, time.perf_counter() - started, valid))
    return done


def _record_pass(done: List, reference: List, outcome: Outcome) -> None:
    """Count each solve once: valid, equal to scalar Métivier where it must
    be, and equal to the same solve in the first pass."""
    base = next(result for name, result, _, _ in done if name == "mis|metivier")
    for (name, result, _, valid), (_, first, _, _) in zip(done, reference):
        ok = valid and result.mis == first.mis and result.iterations == first.iterations
        if name in ("mis.bulk|metivier", "mpc|metivier"):
            ok = ok and result.mis == base.mis and result.iterations == base.iterations
        outcome.record(ok, f"{name}: invalid, or differs from scalar or the first pass")


def run(seed: int, seconds: float, trace: bool, size: str, outcome: Outcome) -> None:
    repeats = 1 if trace else SETUP_REPEATS
    inputs, setup_times = timed_setup(lambda: build_inputs(seed, size), repeats)
    n = inputs["graph"].number_of_nodes()

    if trace:
        reference = _one_pass(inputs, outcome, None)
        recorder = Recorder()
        recorder.wrap(mis_bulk, "csr_from_graph", "graphs.csr|convert")
        try:
            done = _one_pass(inputs, outcome, recorder)
        finally:
            recorder.restore()
        untraced_s = sum(dt for _, _, dt, _ in reference)
        traced_s = sum(dt for _, _, dt, _ in done)
        _record_pass(reference, reference, outcome)
        _record_pass(done, reference, outcome)
        metrics = layer_metrics(recorder, traced_s, traced_s / untraced_s - 1.0)
        mpc = [r for name, r, _, _ in done if name.startswith("mpc|")]
        metrics["mpc.comm_bytes"] = mean([r.extra["comm"]["total_bytes"] for r in mpc])
        metrics["graphs.generators.s"] = inputs["generate_s"]
        outcome.metrics.update(metrics)
        outcome.notes += top_lines(recorder)
        return

    first: List = []
    latencies: Dict[str, List[float]] = {}
    rounds: List[int] = []
    passes = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        done = _one_pass(inputs, outcome, None)
        first = first or done
        _record_pass(done, first, outcome)
        for name, result, dt, _ in done:
            latencies.setdefault(name, []).append(dt)
            rounds.append(rounds_of(result))
        passes += 1

    # Throughput over the solves alone, not the collections between them.
    every = [dt for times in latencies.values() for dt in times]
    outcome.metrics.update(
        {
            "setup_s": p50(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "rounds_per_op": mean(rounds),
            "op_p50_ms": 1e3 * p50(every),
            "op_p90_ms": 1e3 * p90(every),
            "graphs_per_s": passes / sum(every),
        }
    )
    outcome.notes.append(
        f"{passes} pass(es) of {len(first)} solves on n={n}; "
        f"op percentiles over {len(every)} solves"
    )
    outcome.notes.append(f"mis_size_sum {sum(len(r.mis) for _, r, _, _ in first)} (first pass)")
    for name, times in latencies.items():
        outcome.notes.append(f"  {name:<20} {p50(times):8.3f} s/solve")
