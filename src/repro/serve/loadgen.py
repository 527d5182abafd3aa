"""Deterministic seeded load generation for the serving layer.

Everything here is a pure function of a :class:`LoadGenConfig`: the
initial graph, the per-epoch mutation batches, and the open-loop arrival
offsets are all drawn from the keyed RNG (:mod:`repro.rng`), so two runs
with the same config produce byte-identical workloads.  That is what
lets the E21 benchmark report deterministic round counts and the
Hypothesis suite pin same-seed obs-stream identity.

Two driving modes:

* **lockstep** — requests are submitted one at a time and awaited in
  order.  The service's responses and obs stream are then deterministic
  up to timestamps (the determinism tests run this mode).
* **open-loop** — requests arrive on their seeded Poisson-ish schedule
  regardless of completions (``time_scale`` maps workload seconds to
  wall seconds; ``0`` collapses the schedule to "all at once", the
  overload case).  Interleaving — and therefore coalescing — is not
  deterministic, so neither is what an epoch costs; the MIS an epoch
  commits depends only on the graph it commits, not on the coalescing.

The CI ``serve-smoke`` job drives a burst with injected deadline
violations and one forced engine failure and asserts the service answers
everything (zero unhandled exceptions, bounded queue).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import SPAN_SERVE_REQUEST
from repro.rng import bernoulli_draw, derive_seed, node_round_rng, uniform_draw
from repro.serve.incremental import Mutation
from repro.serve.server import MISService, Request, Response

__all__ = [
    "LoadGenConfig",
    "LoadReport",
    "initial_edges",
    "mutation_batches",
    "arrival_offsets",
    "drive",
]

# Keyed-RNG tags for the generator's independent draw families.
_TAG_EDGE = 61
_TAG_MUTATION = 67
_TAG_ARRIVAL = 71


@dataclass(frozen=True)
class LoadGenConfig:
    """One deterministic workload: a graph, churn, and an arrival process."""

    seed: int = 0
    session: str = "loadgen"
    nodes: int = 60
    edge_p: float = 0.08
    #: Number of mutation epochs (mutate requests) to submit.
    epochs: int = 20
    #: Mutations per batch — the churn rate the E21 benchmark sweeps.
    churn: int = 4
    #: Read traffic interleaved after each mutate request.
    queries_per_epoch: int = 1
    #: Open-loop arrival rate (requests per workload second).
    arrival_rate_hz: float = 200.0
    deadline_s: Optional[float] = None


def initial_edges(config: LoadGenConfig) -> Tuple[Tuple[int, int], ...]:
    """The seeded G(n, p) bootstrap edge list."""
    seed = derive_seed(config.seed, _TAG_EDGE)
    return tuple(
        (u, v)
        for u in range(config.nodes)
        for v in range(u + 1, config.nodes)
        if bernoulli_draw(config.edge_p, seed, u, v)
    )


def mutation_batches(config: LoadGenConfig) -> List[List[Mutation]]:
    """Per-epoch mutation batches, drawn independently of graph state.

    The generator tracks only the node universe (for endpoint and
    removal draws); whether an edge actually exists is irrelevant
    because mutations are idempotent.  Op mix: mostly edge churn with a
    trickle of node arrivals/departures.
    """
    universe = list(range(config.nodes))
    next_node = config.nodes
    batches: List[List[Mutation]] = []
    for epoch in range(config.epochs):
        batch: List[Mutation] = []
        for i in range(config.churn):
            rng = node_round_rng(
                derive_seed(config.seed, epoch), i, 0, tag=_TAG_MUTATION
            )
            roll = rng.random()
            if roll < 0.10 or len(universe) < 2:
                universe.append(next_node)
                batch.append(Mutation("add-node", next_node))
                next_node += 1
            elif roll < 0.18 and len(universe) > 2:
                victim = universe.pop(int(rng.integers(len(universe))))
                batch.append(Mutation("remove-node", victim))
            else:
                u_i = int(rng.integers(len(universe)))
                v_i = int(rng.integers(len(universe) - 1))
                if v_i >= u_i:
                    v_i += 1
                op = "add-edge" if roll < 0.62 else "remove-edge"
                batch.append(Mutation(op, universe[u_i], universe[v_i]))
        batches.append(batch)
    return batches


def arrival_offsets(config: LoadGenConfig, count: int) -> List[float]:
    """Seeded open-loop arrival times (seconds from workload start).

    Exponential inter-arrivals at ``arrival_rate_hz`` via inverse-CDF
    over keyed uniforms — a Poisson process any rerun replays exactly.
    """
    rate = max(1e-9, config.arrival_rate_hz)
    offsets: List[float] = []
    t = 0.0
    for i in range(count):
        u = uniform_draw(derive_seed(config.seed, i), 0, 0, tag=_TAG_ARRIVAL)
        t += -math.log(1.0 - min(u, 1.0 - 1e-12)) / rate
        offsets.append(t)
    return offsets


@dataclass
class LoadReport:
    """What a driven workload observed, summed over responses."""

    submitted: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    served_counts: Dict[str, int] = field(default_factory=dict)
    error_codes: Dict[str, int] = field(default_factory=dict)
    epoch_modes: Dict[str, int] = field(default_factory=dict)
    repair_rounds: int = 0
    recompute_rounds: int = 0
    final_mis_size: Optional[int] = None
    unhandled: int = 0

    def record(self, response: Response) -> None:
        self.submitted += 1
        self.status_counts[response.status] = (
            self.status_counts.get(response.status, 0) + 1
        )
        if response.served:
            self.served_counts[response.served] = (
                self.served_counts.get(response.served, 0) + 1
            )
        if response.error:
            code = response.error.get("code", "?")
            self.error_codes[code] = self.error_codes.get(code, 0) + 1
        result = response.result or {}
        mode = result.get("mode")
        if mode:
            self.epoch_modes[mode] = self.epoch_modes.get(mode, 0) + 1
            if mode == "repair":
                self.repair_rounds += result.get("rounds", 0)
            else:
                self.recompute_rounds += result.get("rounds", 0)
        if "mis_size" in result:
            self.final_mis_size = result["mis_size"]

    def to_dict(self) -> Dict:
        return {
            "submitted": self.submitted,
            "status_counts": dict(sorted(self.status_counts.items())),
            "served_counts": dict(sorted(self.served_counts.items())),
            "error_codes": dict(sorted(self.error_codes.items())),
            "epoch_modes": dict(sorted(self.epoch_modes.items())),
            "repair_rounds": self.repair_rounds,
            "recompute_rounds": self.recompute_rounds,
            "final_mis_size": self.final_mis_size,
            "unhandled": self.unhandled,
        }


def _requests(config: LoadGenConfig) -> List[Request]:
    requests: List[Request] = []
    for batch in mutation_batches(config):
        requests.append(
            Request(
                op="mutate",
                session=config.session,
                mutations=tuple(batch),
                deadline_s=config.deadline_s,
            )
        )
        for _ in range(config.queries_per_epoch):
            requests.append(
                Request(
                    op="query",
                    session=config.session,
                    deadline_s=config.deadline_s,
                )
            )
    return requests


async def drive(
    service: MISService,
    config: LoadGenConfig,
    lockstep: bool = True,
    time_scale: float = 0.0,
    deadline_violations: int = 0,
    engine_failures: int = 0,
) -> LoadReport:
    """Run the workload against ``service`` and tally the responses.

    ``deadline_violations`` rewrites that many mutate requests to an
    already-expired deadline (they must come back ``deadline``, never
    hang); ``engine_failures`` injects that many engine faults before
    driving (with retries configured they surface as ``serve-retry``
    events, beyond retries as structured ``engine-failed`` responses).
    Every submission error is counted, never raised — ``unhandled``
    staying zero is the smoke-test invariant.
    """
    report = LoadReport()
    create = Request(
        op="create",
        session=config.session,
        edges=initial_edges(config),
        seed=config.seed,
    )
    response = await service.submit(create)
    report.record(response)
    if not response.ok:
        return report

    requests = _requests(config)
    violated = 0
    prepared: List[Request] = []
    for request in requests:
        if request.op == "mutate" and violated < deadline_violations:
            request = Request(
                op=request.op,
                session=request.session,
                mutations=request.mutations,
                deadline_s=1e-9,
            )
            violated += 1
        prepared.append(request)
    if engine_failures:
        service.inject_engine_failure(engine_failures)

    async def one(request: Request, delay: float) -> Response:
        if delay > 0:
            await asyncio.sleep(delay)
        return await service.submit(request)

    if lockstep:
        # Lockstep submissions are strictly sequential, so the request
        # span nests correctly around the epoch/repair spans (the only
        # mode where request-level tracing is well-defined).
        for request in prepared:
            try:
                if service.tracer is not None:
                    with service.tracer.span(SPAN_SERVE_REQUEST):
                        report.record(await service.submit(request))
                else:
                    report.record(await service.submit(request))
            except Exception:
                report.unhandled += 1
    else:
        offsets = arrival_offsets(config, len(prepared))
        tasks = [
            asyncio.ensure_future(one(request, offset * time_scale))
            for request, offset in zip(prepared, offsets)
        ]
        for result in await asyncio.gather(*tasks, return_exceptions=True):
            if isinstance(result, Response):
                report.record(result)
            else:
                report.unhandled += 1
    return report
