"""serve-mixed: one MISService session under a closed-loop writer and reader.

The session is bootstrapped from a 20,000-node arboricity-2 graph.  One
writer sends ``mutate`` requests of 8 mutations each (from
``loadgen.mutation_batches``) and waits for every reply; one reader sends
``query`` requests with 10 ms of think time.  Both are coroutines on the
service's own event loop, so the process holds one client pair.

After the timed window the same mutation stream is replayed through a
fresh ``GraphSession`` with the service's seed and repair settings, and
every reply is checked against the replayed history.

The process runs on one CPU.  The service's executor thread and event-loop
thread share the interpreter lock, so only one of them runs at a time
anyway.  On two CPUs of a shared VM each hand-off of the lock also waits
for the other vCPU to be scheduled, and that wait, not the program, set
the spread of the figures (README.md gives the runs).
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.graphs import bounded_arboricity_graph
from repro.serve import incremental
from repro.serve.incremental import GraphSession, Mutation
from repro.serve.loadgen import LoadGenConfig, mutation_batches
from repro.serve.server import MISService, Request, ServeConfig

from harness import (
    SETUP_REPEATS,
    CheckFailed,
    Outcome,
    Recorder,
    layer_metrics,
    mean,
    mis_digest,
    p50,
    p90,
    peak_rss_mb,
    top_lines,
)

SIZES = {"full": 20_000, "tiny": 300}
ALPHA = 2
CHURN = 8
THINK_S = 0.010
#: A run goes on past ``--seconds`` until it has this many mutates, so that
#: ten samples lie beyond the 90th percentile ...
MIN_MUTATES = 100
#: ... but never past this multiple of ``--seconds``.
MAX_STRETCH = 10
#: Mutation batches generated per second of ``--seconds``: ten times what
#: the service commits on a two-vCPU Xeon VM, so the writer runs dry only
#: after a large speed-up (the run then ends early).
BATCHES_PER_SECOND = 40
SESSION = "bench"
#: Session seed; the workload seed only shapes the graph and the mutations.
SESSION_SEED = 0
#: The service defaults, fixed here rather than read from REPRO_SERVE_*.
CONFIG = ServeConfig()


def build_inputs(seed: int, seconds: float, size: str) -> Dict:
    rng = random.Random(seed)
    graph_seed, mutation_seed = rng.getrandbits(31), rng.getrandbits(31)
    n = SIZES[size]
    started = time.perf_counter()
    graph = bounded_arboricity_graph(n, ALPHA, seed=graph_seed)
    generate_s = time.perf_counter() - started
    batches = mutation_batches(
        LoadGenConfig(
            seed=mutation_seed,
            nodes=n,
            epochs=max(MIN_MUTATES, int(seconds * BATCHES_PER_SECOND)),
            churn=CHURN,
        )
    )
    return {
        "edges": tuple(graph.edges()),
        "batches": [tuple(batch) for batch in batches],
        "generate_s": generate_s,
    }


async def _set_up(seed: int, seconds: float, size: str, repeats: int):
    """Build the inputs and bootstrap a service ``repeats`` times."""
    times: List[float] = []
    inputs = service = None
    for _ in range(repeats):
        if service is not None:
            await service.close()
        inputs = service = None
        started = time.perf_counter()
        inputs = build_inputs(seed, seconds, size)
        service = MISService(CONFIG)
        response = await service.submit(
            Request(op="create", session=SESSION, seed=SESSION_SEED, edges=inputs["edges"])
        )
        if not response.ok:
            raise CheckFailed(f"bootstrap failed: {response.to_dict()}")
        times.append(time.perf_counter() - started)
    return inputs, service, times


class _Tracing:
    """Turns tracing on mid-run and collects what the serve layers did."""

    def __init__(self, service: MISService):
        self.service = service
        self.recorder = Recorder()
        #: (EpochReport, seconds per benchmark span name) per traced epoch.
        self.epochs: List[Tuple[object, Dict[str, float]]] = []
        self.started = 0.0
        self.counters: Dict[str, int] = {}

    def enable(self) -> None:
        recorder = self.recorder
        for attr, name in (
            ("apply_mutations", "serve.incremental|apply"),
            ("update_repair", "serve.incremental|repair"),
            ("assert_valid_mis", "mis.validation|epoch"),
            ("graph_fingerprint", "serve.incremental|fingerprint"),
        ):
            recorder.wrap(incremental, attr, name)
        recorder.wrap(GraphSession, "snapshot", "serve.incremental|snapshot")
        apply_epoch = GraphSession.apply_epoch

        def traced_apply_epoch(session, mutations, should_abort=None):
            with recorder.bucket() as phases:
                with recorder.span("serve.incremental|epoch"):
                    report = apply_epoch(session, mutations, should_abort=should_abort)
            self.epochs.append((report, dict(phases)))
            return report

        recorder.replace(GraphSession, "apply_epoch", traced_apply_epoch)
        tracer = recorder.tracer("worker")
        self.service.tracer = tracer
        self.service.sessions[SESSION].session.tracer = tracer
        self.counters = self.service.counters.to_dict()
        self.started = time.perf_counter()

    def disable(self) -> float:
        wall = time.perf_counter() - self.started
        self.recorder.restore()
        self.service.tracer = None
        self.service.sessions[SESSION].session.tracer = None
        return wall


async def _drive(service: MISService, inputs: Dict, seconds: float,
                 tracing: Optional[_Tracing]) -> Dict:
    """The timed window: closed-loop writer and reader until the writer stops.

    With ``tracing``, the second half of the window is traced.
    """
    mutates: List[Tuple[float, object, bool]] = []
    queries: List[Tuple[float, object, bool]] = []
    traced = False
    writer_done = asyncio.Event()
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = started + MAX_STRETCH * seconds

    async def writer() -> None:
        nonlocal traced
        try:
            for batch in inputs["batches"]:
                now = time.perf_counter()
                if now >= hard_stop or (now >= deadline and len(mutates) >= MIN_MUTATES):
                    break
                halfway = now >= started + seconds / 2 or 2 * len(mutates) >= len(inputs["batches"])
                if tracing is not None and not traced and halfway:
                    tracing.enable()
                    traced = True
                t0 = time.perf_counter()
                response = await service.submit(
                    Request(op="mutate", session=SESSION, mutations=batch)
                )
                mutates.append((time.perf_counter() - t0, response, traced))
        finally:
            writer_done.set()

    async def reader() -> None:
        while not writer_done.is_set():
            t0 = time.perf_counter()
            response = await service.submit(Request(op="query", session=SESSION))
            queries.append((time.perf_counter() - t0, response, traced))
            await asyncio.sleep(THINK_S)

    await asyncio.gather(writer(), reader())
    window = time.perf_counter() - started
    traced_wall = tracing.disable() if traced else 0.0
    return {"mutates": mutates, "queries": queries, "window": window,
            "traced_wall": traced_wall, "rss": peak_rss_mb()}


class Epoch(NamedTuple):
    """One replayed epoch, as the checks compare it."""

    fingerprint: str
    mis_digest: str
    mis_size: int
    edges: int
    valid: bool


def _replay(inputs: Dict, mutates: List, outcome: Outcome) -> Dict[int, Epoch]:
    """The committed history, rebuilt by a fresh session outside the timer.

    Only batches whose mutate committed are replayed, in order, because a
    failed epoch rolls back.
    """
    session = GraphSession(
        SESSION,
        seed=SESSION_SEED,
        repair_iteration_budget=CONFIG.repair_iteration_budget,
        repair_damage_cap=CONFIG.repair_damage_cap,
    )
    history: Dict[int, Epoch] = {}

    def capture() -> None:
        graph, mis = session.graph, session.mis
        history[session.epoch] = Epoch(
            session.fingerprint,
            mis_digest(mis),
            len(mis),
            graph.number_of_edges(),
            outcome.check_mis(graph, mis),
        )

    session.apply_epoch([Mutation("add-edge", u, v) for u, v in inputs["edges"]])
    capture()
    for batch, (_, response, _) in zip(inputs["batches"], mutates):
        if response.ok:
            session.apply_epoch(list(batch))
            capture()
    return history


def _check(drive: Dict, history: Dict[int, Epoch], outcome: Outcome) -> None:
    """Every reply must be ``ok`` and match the replayed epoch it names."""
    for index, (_, response, _) in enumerate(drive["mutates"]):
        result = response.result or {}
        state = history.get(result.get("epoch"))
        ok = (
            response.status == "ok"
            and state is not None
            and state.valid
            and (result["fingerprint"], result["mis_size"]) == (state.fingerprint, state.mis_size)
        )
        outcome.record(ok, f"mutate {index}: {response.status} {result.get('epoch')}")
    for index, (_, response, _) in enumerate(drive["queries"]):
        snapshot = response.result or {}
        state = history.get(snapshot.get("epoch"))
        ok = (
            response.status == "ok"
            and state is not None
            and state.valid
            and snapshot["fingerprint"] == state.fingerprint
            and mis_digest(snapshot["mis"]) == state.mis_digest
            and snapshot["edges"] == state.edges
        )
        outcome.record(ok, f"query {index}: {response.status} {snapshot.get('epoch')}")


def _serve_layer_metrics(tracing: _Tracing, drive: Dict) -> Dict[str, float]:
    recorder = tracing.recorder
    mutates = [(dt, r) for dt, r, traced in drive["mutates"] if traced]
    queries = [dt for dt, _, traced in drive["queries"] if traced]
    untraced = [dt for dt, _, traced in drive["mutates"] if not traced]
    epochs = tracing.epochs
    epoch_wall = {report.epoch: phases["serve.incremental|epoch"] for report, phases in epochs}
    waits = [dt - epoch_wall[r.result["epoch"]] for dt, r in mutates
             if r.ok and r.result["epoch"] in epoch_wall]
    counters = tracing.service.counters.to_dict()
    delta = {key: counters[key] - tracing.counters[key] for key in counters}
    count = max(1, len(epochs))

    def phase_ms(name: str) -> float:
        return 1e3 * p50([phases.get(name, 0.0) for _, phases in epochs])

    def calls(name: str, role: Optional[str] = None) -> int:
        return sum(n for (span, who), n in recorder.calls.items()
                   if span == name and role in (None, who))

    snapshot_ms = [1e3 * r["dur_s"] for records in recorder.records.values()
                   for r in records if r["name"] == "serve.incremental|snapshot"]
    overhead = mean([dt for dt, _ in mutates]) / mean(untraced) - 1.0 if untraced else 0.0
    metrics = layer_metrics(recorder, drive["traced_wall"], overhead)
    metrics.update(
        {
            "serve.server.queue_wait_ms_p50": 1e3 * p50(waits),
            "serve.server.epochs_per_mutate": len(epochs) / max(1, len(mutates)),
            "serve.server.cache_hit_share": delta["cache_hits"] / max(1, len(queries)),
            "serve.server.rejected": delta["rejected"],
            "serve.server.shed": delta["shed"],
            "serve.server.retries": delta["retries"],
            "serve.server.query_p50_ms": 1e3 * p50(queries),
            "serve.server.query_p90_ms": 1e3 * p90(queries),
            "serve.incremental.epoch_ms_p50": phase_ms("serve.incremental|epoch"),
            "serve.incremental.apply_ms_p50": phase_ms("serve.incremental|apply"),
            "serve.incremental.repair_ms_p50": phase_ms("serve.incremental|repair"),
            "serve.incremental.validate_ms_p50": phase_ms("mis.validation|epoch"),
            "serve.incremental.fingerprint_ms_p50": phase_ms("serve.incremental|fingerprint"),
            "serve.incremental.fingerprint_calls_per_epoch":
                calls("serve.incremental|fingerprint") / count,
            "serve.incremental.fingerprint_calls_off_epoch_thread":
                calls("serve.incremental|fingerprint", "main"),
            "serve.incremental.snapshot_ms_p50": p50(snapshot_ms),
            "serve.incremental.snapshot_calls_per_epoch":
                calls("serve.incremental|snapshot") / count,
            "serve.incremental.snapshot_calls_off_epoch_thread":
                calls("serve.incremental|snapshot", "main"),
            "serve.incremental.damaged_per_epoch": mean([r.damaged for r, _ in epochs]),
            "serve.incremental.recompute_share":
                sum(r.mode == "recompute" for r, _ in epochs) / count,
        }
    )
    return metrics


def _pin_to_one_cpu() -> None:
    """Confine this thread, and the threads it starts, to the highest allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(seed: int, seconds: float, trace: bool, size: str, outcome: Outcome) -> None:
    _pin_to_one_cpu()

    async def main():
        inputs, service, setup_times = await _set_up(
            seed, seconds, size, 1 if trace else SETUP_REPEATS
        )
        tracing = _Tracing(service) if trace else None
        try:
            drive = await _drive(service, inputs, seconds, tracing)
        finally:
            await service.close()
        return inputs, setup_times, tracing, drive

    inputs, setup_times, tracing, drive = asyncio.run(main())
    history = _replay(inputs, drive["mutates"], outcome)
    _check(drive, history, outcome)

    mutate_s = [dt for dt, _, _ in drive["mutates"]]
    query_s = [dt for dt, _, _ in drive["queries"]]
    failed_share = outcome.failed / max(1, outcome.attempted)
    outcome.notes += [
        f"mutate_p50_ms {1e3 * p50(mutate_s):.3f}  mutate_p90_ms {1e3 * p90(mutate_s):.3f}"
        f"  ({len(mutate_s)} mutates)",
        f"query_p50_ms {1e3 * p50(query_s):.3f}  query_p90_ms {1e3 * p90(query_s):.3f}"
        f"  ({len(query_s)} queries)",
        f"failed_share {failed_share:.6f} ratio",
    ]
    if trace:
        outcome.metrics.update(_serve_layer_metrics(tracing, drive))
        outcome.metrics["graphs.generators.s"] = inputs["generate_s"]
        outcome.notes += top_lines(tracing.recorder)
        return

    committed = sorted({r.result["epoch"] for _, r, _ in drive["mutates"] if r.ok})
    first = [r.result for _, r, _ in drive["mutates"] if r.ok][:MIN_MUTATES]
    rounds = [result["rounds"] for result in first]
    window = drive["window"]
    outcome.metrics.update(
        {
            "setup_s": p50(setup_times),
            "peak_rss_mb": drive["rss"],
            "rounds_per_op": mean(rounds),
            "op_p50_ms": 1e3 * p50(mutate_s),
            "op_p90_ms": 1e3 * p90(mutate_s),
            "graphs_per_s": len(committed) / window,
        }
    )
    outcome.notes.append(f"rounds_per_op over the first {len(rounds)} committed epochs")
    outcome.notes.append(
        f"mis_size_sum {sum(result['mis_size'] for result in first)} "
        f"(first {len(first)} committed epochs)"
    )
