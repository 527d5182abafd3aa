"""Sharded MPC-style round runtime over the columnar substrate.

The bulk engines (:mod:`repro.mis.bulk`) run each competition iteration
as whole-graph array operations.  This module runs the *same* iterations
sharded: a :class:`~repro.mpc.partition.ShardPlan` splits the
:class:`~repro.graphs.csr.CSRGraph` into contiguous position-range
shards, each shard runs the algorithm's stages — the very
:class:`~repro.mis.bulk.BulkAlgorithm` definition the bulk loop drives —
over a :class:`~repro.mis.csr.RowView` of its own rows, and between
stages shards exchange **only frontier node state** as batched numpy
messages.  This module holds no algorithm rule of its own.

Execution model (docs/mpc_runtime.md has the full walkthrough):

* A coordinator owns the ground-truth state arrays (``active``, and the
  definition's extra fields: Ghaffari's ``exponent``, Luby B's
  ``degree``).
* Each shard owns a *scratch mirror* indexed by its **support** (its own
  positions plus the ghosts it is adjacent to).  Local entries are
  refreshed from truth for free (local memory); ghost entries are updated
  **only** through modeled messages, every byte of which is metered into
  the shard's :class:`~repro.mpc.budget.ShardCommMeter`.
* Because a ghost entry always equals the owner's truth (the push covers
  every change — the ``last_sent`` invariant), the shard-restricted
  segment reductions compute exactly the rows the bulk kernel would,
  which is why the sharded engines are **bit-identical** to the bulk
  (and hence scalar) engines for every seed and every shard count — the
  four-way equivalence the tier-1 suite pins.
* The astronomically-rare degenerate draws (duplicate/zero priorities,
  Métivier and Luby A only) are detected by a coordinator-side audit —
  the stage's own ``audit``: the same keys and global check the bulk
  engine runs and, when triggered, its exact tuple-rule fallback.  Luby
  B's id-embedded keys and Ghaffari's key-free join rule never need it.

Shard computations run either inline (``workers <= 1``) or on a
``multiprocessing`` pool whose workers attach the static CSR arrays
through :mod:`multiprocessing.shared_memory` — only the dynamic scratch
(the modeled per-round messages plus the shard's own slice) travels with
each task.  Worker crashes flow through the same
:class:`~repro.analysis.runner.FailurePolicy` contract as sweep cells:
retry with deterministic keyed backoff, then either re-raise
(``fail-fast``) or degrade — the dead shard's still-active nodes are
marked crashed, peers are notified control-plane, and the run completes
an MIS of the surviving subgraph
(:func:`repro.core.repair.validate_under_faults`).

This module is intentionally *outside* the R3 determinism lint scope
(like :mod:`repro.analysis`): the round math is pure, but retry backoff
sleeps and pool management touch the clock.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.runner import FailurePolicy
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.mis.bulk import ALGORITHMS, StateField
from repro.mis.csr import RowView, eliminate_winners_bulk
from repro.mis.engine import MISResult
from repro.mpc.budget import CommBudget, CommReport, ShardCommMeter
from repro.mpc.partition import ShardPlan, partition_csr
from repro.obs.events import (
    EVENT_MPC_ROUND,
    EVENT_MPC_RUN_END,
    EVENT_SWEEP_FAILURE,
)
from repro.obs.session import ObsSession, session_from_env
from repro.obs.trace import (
    SPAN_MPC_AUDIT,
    SPAN_MPC_EXCHANGE,
    SPAN_MPC_KERNEL,
    SPAN_MPC_ROUND,
    SPAN_MPC_SHARD,
    SPAN_RUN,
    Tracer,
)

__all__ = [
    "ShardCrash",
    "InjectedShardCrash",
    "run_sharded",
    "SHARDS_ENV",
    "WORKERS_ENV",
    "DEFAULT_SHARDS",
]

#: Environment knobs mirroring ``REPRO_MIS_ENGINE``: default shard count
#: and pool size for the ``<name>-mpc`` registry engines.
SHARDS_ENV = "REPRO_MPC_SHARDS"
WORKERS_ENV = "REPRO_MPC_WORKERS"
DEFAULT_SHARDS = 4

#: ``active`` ships as one byte; the definitions give their own fields'
#: wire dtypes (Ghaffari's ``exponent`` in [1, 60] fits a byte, Luby B's
#: ``degree`` needs four).
_ACTIVE = StateField("active", 1, np.uint8)
#: Bytes to name a frontier index in a delta-encoded message.
_INDEX_BYTES = 4


class InjectedShardCrash(SimulationError):
    """A shard worker was deliberately killed mid-round (fault injection)."""

    def __init__(self, shard: int, iteration: int, attempt: int):
        self.shard = shard
        self.iteration = iteration
        self.attempt = attempt
        super().__init__(
            f"injected crash of shard {shard} worker in round {iteration} "
            f"(attempt {attempt})"
        )

    def __reduce__(self):
        # Keeps the exception picklable across the pool boundary (the
        # default exception reduce replays ``args``, which here is the
        # formatted message, not the three constructor arguments).
        return (InjectedShardCrash, (self.shard, self.iteration, self.attempt))


@dataclass(frozen=True)
class ShardCrash:
    """Deterministic crash injector: kill ``shard``'s worker in a round.

    The worker raises on its first ``attempts`` attempts of the winners
    phase of round ``iteration``; retried attempts beyond that succeed.
    Attempt numbers are coordinator-tracked, so the schedule behaves
    identically inline and on the pool.
    """

    iteration: int
    shard: int
    attempts: int = 1


# -- per-shard static structures ---------------------------------------------


@dataclass
class _ShardStatic:
    """Everything about a shard that never changes across rounds.

    All dynamic arrays a shard touches are indexed by its support
    (``view.support``: sorted global positions, own range plus ghosts), so
    shard memory is O(n_local + ghosts), not O(n).  Rows ``start..stop``
    occupy the contiguous run ``view.rows`` of the support.
    """

    index: int
    start: int
    stop: int
    #: The shard's rows over its support: local row pointer, adjacency
    #: remapped into support indices, and key ids at the support.
    view: RowView
    #: peer -> indices into ``support`` of the ghosts owned by that peer.
    ghost_sel: Dict[int, np.ndarray] = field(default_factory=dict)
    #: peer -> sorted own positions whose state ships to that peer.
    frontier: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_local(self) -> int:
        return self.stop - self.start


def _build_statics(plan: ShardPlan) -> List[_ShardStatic]:
    csr = plan.csr
    statics = []
    for shard in plan.shards:
        local = np.arange(shard.start, shard.stop, dtype=np.int64)
        ghost_parts = [shard.ghosts[t] for t in sorted(shard.ghosts)]
        if ghost_parts:
            support = np.union1d(local, np.concatenate(ghost_parts))
        else:
            support = local
        lo = int(np.searchsorted(support, shard.start))
        static = _ShardStatic(
            index=shard.index,
            start=shard.start,
            stop=shard.stop,
            view=RowView(
                indptr=plan.local_indptr(shard),
                indices=np.searchsorted(support, plan.local_indices(shard)),
                key_ids=csr.key_ids[support],
                n=csr.n,
                rows=slice(lo, lo + shard.n_local),
                support=support,
            ),
            ghost_sel={
                t: np.searchsorted(support, ghosts)
                for t, ghosts in shard.ghosts.items()
            },
            frontier=dict(shard.frontier),
        )
        statics.append(static)
    return statics


# -- the pure per-shard round computation ------------------------------------


def _no_kernel(name: Optional[str]) -> None:
    """Shards trace one ``mpc:kernel`` span per stage, not kernel spans."""


def _phase_compute(
    static: _ShardStatic,
    scratch: Dict[str, np.ndarray],
    algorithm: str,
    phase: str,
    seed: int,
    iteration: int,
) -> Dict[str, np.ndarray]:
    """One shard's share of one stage: the definition's own computation
    over the shard's rows.  Pure; runs identically inline and in a pool
    worker."""
    stage = ALGORITHMS[algorithm].stage(phase)
    return stage.compute(static.view, scratch, seed, iteration, _no_kernel)


# -- multiprocessing pool plumbing -------------------------------------------

# Worker-global context: shared-memory attachments plus lazily built
# shard statics, keyed by the coordinator's run id so a reused pool
# never serves stale graph data.
_WORKER: Dict[str, Any] = {}


def _attach_shm(name: str):
    import multiprocessing
    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() != "fork":
        try:
            # Attach-only segments must not be torn down when this worker
            # exits; the coordinator owns their lifecycle.  Under fork the
            # tracker process is shared with the coordinator, so the
            # attach registration dedups away and unregistering here
            # would cancel the coordinator's own registration instead.
            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:
            pass
    return shm


def _pool_init(run_id: str, names: Dict[str, str], n: int, nnz: int, k: int) -> None:
    shms = {key: _attach_shm(name) for key, name in names.items()}
    indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=shms["indptr"].buf)
    indices = np.ndarray((nnz,), dtype=np.int64, buffer=shms["indices"].buf)
    key_ids = np.ndarray((n,), dtype=np.uint64, buffer=shms["key_ids"].buf)
    # The static CSR is shared by every worker: freeze the attachments so
    # an accidental write raises ValueError instead of racing the pool.
    indptr.flags.writeable = False
    indices.flags.writeable = False
    key_ids.flags.writeable = False
    csr = CSRGraph(
        labels=key_ids,  # labels are never read by the round math
        key_ids=key_ids,
        indptr=indptr,
        indices=indices,
        integer_labeled=True,
    )
    _WORKER.clear()
    _WORKER.update(
        {"run_id": run_id, "shms": shms, "csr": csr, "k": k, "statics": None}
    )


def _compute_traced(
    static: _ShardStatic,
    scratch: Dict[str, np.ndarray],
    algorithm: str,
    phase: str,
    seed: int,
    iteration: int,
) -> Dict[str, Any]:
    """``_phase_compute`` wrapped in a collector-mode span recorder.

    The worker has no session (and no coordinator clock); it records its
    ``mpc:kernel`` span into a plain ``list[dict]`` buffer that ships back
    with the shard result under the ``"spans"`` key — pickle-safe, no
    handles — for the coordinator to merge.  The same wrapper runs on the
    inline path so traced streams are identical at every worker count.
    """
    buffer: List[Dict[str, Any]] = []
    tracer = Tracer(collector=buffer)
    span = tracer.begin(SPAN_MPC_KERNEL, round=iteration)
    result = dict(_phase_compute(static, scratch, algorithm, phase, seed, iteration))
    tracer.end(span, shard=static.index, stage=phase, rows=static.n_local)
    result["spans"] = buffer
    return result


def _pool_task(
    run_id: str,
    shard_index: int,
    algorithm: str,
    phase: str,
    seed: int,
    iteration: int,
    scratch: Dict[str, np.ndarray],
    crash: bool,
    attempt: int,
    trace: bool = False,
) -> Dict[str, Optional[np.ndarray]]:
    if crash:
        raise InjectedShardCrash(shard_index, iteration, attempt)
    if _WORKER.get("run_id") != run_id:
        raise SimulationError("pool worker initialized for a different run")
    if _WORKER["statics"] is None:
        plan = partition_csr(_WORKER["csr"], _WORKER["k"])
        _WORKER["statics"] = _build_statics(plan)
    static = _WORKER["statics"][shard_index]
    compute = _compute_traced if trace else _phase_compute
    return compute(static, scratch, algorithm, phase, seed, iteration)


class _SharedStatics:
    """Coordinator-side shared-memory blocks holding the static CSR."""

    def __init__(self, csr: CSRGraph, run_id: str):
        from multiprocessing import shared_memory

        self.run_id = run_id
        self._shms = {}
        self.names = {}
        for key, array in (
            ("indptr", csr.indptr),
            ("indices", csr.indices),
            ("key_ids", csr.key_ids),
        ):
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes)
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[:] = array
            # Filled once; read-only from here on (coordinator included).
            view.flags.writeable = False
            self._shms[key] = shm
            self.names[key] = shm.name

    def close(self) -> None:
        for shm in self._shms.values():
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass


# -- the coordinator ---------------------------------------------------------


class _Coordinator:
    """Runs one sharded execution: state, meters, pool, fault handling."""

    def __init__(
        self,
        algorithm: str,
        csr: CSRGraph,
        seed: int,
        shards: int,
        workers: int,
        budget: Optional[CommBudget],
        policy: FailurePolicy,
        obs: Optional[ObsSession],
        owns_obs: bool,
        crashes: Sequence[ShardCrash],
        max_iterations: int,
    ):
        self.algorithm = algorithm
        self.definition = ALGORITHMS[algorithm]
        self.csr = csr
        self.n = csr.n
        self.seed = seed
        self.workers = workers
        self.policy = policy
        self.obs = obs
        self.owns_obs = owns_obs
        self.crashes = list(crashes)
        self.max_iterations = max_iterations
        #: Span recorder riding the session (None when tracing is off);
        #: worker buffers merge into it in shard order, so the tree is
        #: deterministic at every worker count.
        self.tracer = obs.tracer if obs is not None else None
        #: Per-shard kernel wall seconds accumulated this round from the
        #: merged worker spans (satellite telemetry on ``mpc-round``).
        self._round_shard_seconds: Dict[int, float] = {}

        self.plan = partition_csr(csr, shards)
        self.statics = _build_statics(self.plan)
        self.k = self.plan.k
        budget = budget if budget is not None else CommBudget()
        self.meters = [ShardCommMeter(s, budget) for s in range(self.k)]

        # Ground truth (coordinator-owned).
        self.active = np.ones(self.n, dtype=bool)
        self.in_mis = np.zeros(self.n, dtype=bool)
        self.crashed = np.zeros(self.n, dtype=bool)
        self.mis_iter = np.full(self.n, -1, dtype=np.int64)
        self.dominated_iter = np.full(self.n, -1, dtype=np.int64)
        self.truth: Dict[str, np.ndarray] = {"active": self.active}
        for spec in self.definition.fields:
            self.truth[spec.name] = np.full(self.n, spec.initial, dtype=np.int64)

        # Per-shard scratch mirrors (support-indexed, wire dtypes) and the
        # last value shipped per ordered pair — initialized to the same
        # values as truth so the mirror invariant holds before round 0.
        fields = (_ACTIVE,) + self.definition.fields
        self.wire = {spec.name: spec.wire for spec in fields}

        def mirror(size: int) -> Dict[str, np.ndarray]:
            return {s.name: np.full(size, s.initial, dtype=s.wire) for s in fields}

        self.scratch = [mirror(static.view.support.size) for static in self.statics]
        self.last_sent: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {
            (static.index, t): mirror(positions.size)
            for static in self.statics
            for t, positions in static.frontier.items()
        }

        self.dead_shards: set = set()
        self._attempts: Dict[Tuple[int, str, int], int] = {}
        self._pool = None
        self._shared: Optional[_SharedStatics] = None
        self._run_id = hashlib.sha1(
            f"mpc:{algorithm}:{seed}:{self.n}:{self.k}:{os.getpid()}".encode()
        ).hexdigest()[:12]

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._shared = _SharedStatics(self.csr, self._run_id)
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.workers, self.k),
                initializer=_pool_init,
                initargs=(
                    self._run_id,
                    self._shared.names,
                    self.n,
                    int(self.csr.indices.size),
                    self.k,
                ),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None

    # -- metered message exchange --------------------------------------------

    def _push_field(self, s: int, t: int, name: str, iteration: int) -> None:
        """Ship field ``name`` for the ``s -> t`` frontier and meter it.

        Dense mode refreshes the whole frontier slice (``size × itemsize``
        bytes).  Sparsified (delta) mode ships only entries that changed
        since the last push (``changed × (index + itemsize)`` bytes) —
        the unchanged refreshes are the low-priority traffic dropped
        under budget pressure; changed entries are correctness-bearing
        and are never dropped.  Either way only changed entries need
        applying, because unchanged ghosts already mirror truth.
        """
        static = self.statics[s]
        positions = static.frontier[t]
        payload = self.truth[name][positions].astype(self.wire[name])
        last = self.last_sent[(s, t)][name]
        changed = np.nonzero(payload != last)[0]

        meter = self.meters[s]
        dense_cost = int(payload.nbytes)
        delta_cost = int(changed.size) * (_INDEX_BYTES + payload.itemsize)
        over_hard = (
            meter.budget.hard_capacity is not None
            and meter.round_bytes + dense_cost > meter.budget.hard_capacity
        )
        if meter.should_sparsify or over_hard:
            meter.note_sparsified()
            meter.charge(min(delta_cost, dense_cost), iteration)
        else:
            meter.charge(dense_cost, iteration)

        if changed.size:
            values = payload[changed]
            last[changed] = values
            # The receiver's ghost slots for the sender's frontier: the
            # partition invariant guarantees index parity (ghosts[t][s]
            # is frontier[s][t]), so position i of the payload lands in
            # ghost slot i.
            self.scratch[t][name][self.statics[t].ghost_sel[s][changed]] = values

    def _push_state(self, names: Sequence[str], iteration: int) -> None:
        """One exchange wave: every live ordered shard pair, plus the free
        local refresh of each shard's own slice."""
        tracer = self.tracer
        span = (
            tracer.begin(SPAN_MPC_EXCHANGE, round=iteration)
            if tracer is not None
            else None
        )
        bytes_before = (
            sum(m.round_bytes for m in self.meters) if span is not None else 0
        )
        for static in self.statics:
            s = static.index
            if s in self.dead_shards:
                continue
            for t in sorted(static.frontier):
                if t in self.dead_shards:
                    continue
                for name in names:
                    self._push_field(s, t, name, iteration)
        for static in self.statics:
            if static.index in self.dead_shards:
                continue
            for name in names:
                self.scratch[static.index][name][static.view.rows] = self.truth[
                    name
                ][static.start : static.stop].astype(self.wire[name])
        if tracer is not None:
            tracer.end(
                span,
                bytes=sum(m.round_bytes for m in self.meters) - bytes_before,
            )

    def _meter_winner_push(self, winners: np.ndarray, iteration: int) -> None:
        """Winner announcements crossing the cut: 4 bytes per index,
        always correctness-bearing (a peer must eliminate the neighbors
        of a remote winner)."""
        for static in self.statics:
            s = static.index
            if s in self.dead_shards:
                continue
            for t in sorted(static.frontier):
                if t in self.dead_shards:
                    continue
                count = int(winners[static.frontier[t]].sum())
                if count:
                    self.meters[s].charge(count * _INDEX_BYTES, iteration)

    # -- shard execution with the failure policy -----------------------------

    def _fingerprint(self, shard: int) -> str:
        return hashlib.sha256(
            f"mpc:{self.algorithm}:{self.seed}:{self.n}:{self.k}:{shard}".encode()
        ).hexdigest()

    def _should_crash(self, shard: int, phase: str, iteration: int, attempt: int) -> bool:
        if phase != "winners":
            return False
        return any(
            c.shard == shard and c.iteration == iteration and attempt <= c.attempts
            for c in self.crashes
        )

    def _emit_failure(self, shard: int, exc: BaseException, attempt: int) -> None:
        if self.obs is None:
            return
        self.obs.emit(
            EVENT_SWEEP_FAILURE,
            family="mpc-shard",
            n=self.n,
            algorithm=f"{self.algorithm}-mpc",
            seed=self.seed,
            error_type=type(exc).__name__,
            error=str(exc),
            attempts=attempt,
            timed_out=False,
            shard=shard,
        )

    def _submit(self, shard: int, phase: str, iteration: int, attempt: int):
        crash = self._should_crash(shard, phase, iteration, attempt)
        return self._pool.submit(
            _pool_task,
            self._run_id,
            shard,
            self.algorithm,
            phase,
            self.seed,
            iteration,
            self.scratch[shard],
            crash,
            attempt,
            self.tracer is not None,
        )

    def _execute_shard(
        self, shard: int, phase: str, iteration: int, pending=None
    ) -> Optional[Dict[str, Optional[np.ndarray]]]:
        """Run one shard's phase under the failure policy.

        ``pending`` is an already-submitted first-attempt future (the pool
        wave); retries after a failure run synchronously.  Returns None
        when the shard exhausted its attempts and the policy degrades
        instead of raising (the caller retires the shard).
        """
        key = (iteration, phase, shard)
        while True:
            if pending is None:
                attempt = self._attempts.get(key, 0) + 1
                self._attempts[key] = attempt
            else:
                attempt = self._attempts[key]
            try:
                if pending is not None:
                    future, pending = pending, None
                    return future.result()
                if self._pool is not None:
                    return self._submit(shard, phase, iteration, attempt).result()
                if self._should_crash(shard, phase, iteration, attempt):
                    raise InjectedShardCrash(shard, iteration, attempt)
                compute = (
                    _compute_traced if self.tracer is not None else _phase_compute
                )
                return compute(
                    self.statics[shard],
                    self.scratch[shard],
                    self.algorithm,
                    phase,
                    self.seed,
                    iteration,
                )
            except Exception as exc:
                self._emit_failure(shard, exc, attempt)
                if attempt < self.policy.max_attempts:
                    time.sleep(
                        self.policy.backoff_seconds(
                            self._fingerprint(shard), attempt
                        )
                    )
                    continue
                if self.policy.on_error == "fail-fast":
                    raise
                self._retire_shard(shard)
                return None

    def _retire_shard(self, shard: int) -> None:
        """Degrade: the shard's machine is gone.

        Its still-active nodes are crashed (halted nodes keep their
        outputs); the framework notifies peers control-plane (unmetered —
        failure detection is the runtime's job, not the algorithm's).
        """
        self.dead_shards.add(shard)
        static = self.statics[shard]
        span = slice(static.start, static.stop)
        self.crashed[span] |= self.active[span]
        self.active[span] = False
        for t in sorted(static.frontier):
            if t in self.dead_shards:
                continue
            payload = self.active[static.frontier[t]].astype(np.uint8)
            self.scratch[t]["active"][self.statics[t].ghost_sel[shard]] = payload
            self.last_sent[(shard, t)]["active"][:] = payload

    def _run_phase(
        self, phase: str, iteration: int
    ) -> Dict[int, Dict[str, Optional[np.ndarray]]]:
        """Execute one phase on every live shard.

        Pool mode submits the whole wave up front — every live shard's
        first attempt is in flight concurrently — then gathers in shard
        order; a failed gather drops into the synchronous retry loop.
        """
        live = [
            s
            for s in range(self.k)
            if s not in self.dead_shards and self.statics[s].n_local
        ]
        if self.workers > 1 and len(live) > 1:
            self._ensure_pool()
        first = {}
        if self._pool is not None:
            for s in live:
                self._attempts[(iteration, phase, s)] = 1
                first[s] = self._submit(s, phase, iteration, 1)
        results: Dict[int, Dict[str, Optional[np.ndarray]]] = {}
        tracer = self.tracer
        for s in live:
            shard_span = (
                tracer.begin(SPAN_MPC_SHARD, round=iteration)
                if tracer is not None
                else None
            )
            outcome = self._execute_shard(s, phase, iteration, first.get(s))
            if outcome is not None:
                if tracer is not None:
                    spans = outcome.pop("spans", None)
                    if spans:
                        for record in spans:
                            if record.get("name") == SPAN_MPC_KERNEL:
                                self._round_shard_seconds[s] = (
                                    self._round_shard_seconds.get(s, 0.0)
                                    + float(record.get("dur_s") or 0.0)
                                )
                        tracer.merge(spans)
                results[s] = outcome
            if tracer is not None:
                tracer.end(shard_span, shard=s, stage=phase)
        return results

    # -- the round loop ------------------------------------------------------

    def run(self) -> MISResult:
        algorithm = self.algorithm
        definition = self.definition
        tracer = self.tracer
        history: List[int] = []
        iteration = 0

        run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
        while self.active.any() and iteration < self.max_iterations:
            active_count = int(self.active.sum())
            history.append(active_count)

            round_span = (
                tracer.begin(SPAN_MPC_ROUND, round=iteration)
                if tracer is not None
                else None
            )
            self._round_shard_seconds = {}
            winners = np.zeros(self.n, dtype=bool)
            fallback = None
            died_this_round: set = set()
            for stage in definition.stages:
                self._push_state(stage.exchange, iteration)
                if stage.audit is not None:
                    audit_span = (
                        tracer.begin(SPAN_MPC_AUDIT, round=iteration)
                        if tracer is not None
                        else None
                    )
                    fallback = stage.audit(
                        self.csr, self.active, self.seed, iteration
                    )
                    if tracer is not None:
                        tracer.end(audit_span, degenerate=fallback is not None)
                    if fallback is not None:
                        winners = fallback
                        break
                shards_before = set(self.dead_shards)
                for s, outcome in self._run_phase(stage.name, iteration).items():
                    rows = slice(self.statics[s].start, self.statics[s].stop)
                    for name, values in outcome.items():
                        target = winners if name == "winners" else self.truth[name]
                        target[rows] = values
                died_this_round |= self.dead_shards - shards_before
            if fallback is None:
                # A retired shard's nodes crashed mid-round: anything it
                # might have decided is lost with the machine.
                winners &= self.active

            if self.active.any() and not died_this_round:
                definition.check_progress(f"{algorithm}-mpc", iteration, winners)

            self._meter_winner_push(winners, iteration)

            self.in_mis |= winners
            self.mis_iter[winners] = iteration
            eliminated = eliminate_winners_bulk(self.csr, self.active, winners)
            self.dominated_iter[eliminated & ~winners] = iteration

            round_bytes = sum(m.round_bytes for m in self.meters)
            sparsified = sum(1 for m in self.meters if m.sparsified_this_round)
            for meter in self.meters:
                meter.end_round()
            if self.obs is not None:
                round_data: Dict[str, Any] = {
                    "active": active_count,
                    "winners": int(winners.sum()),
                    "bytes": round_bytes,
                    "sparsified_shards": sparsified,
                    "degenerate": fallback is not None,
                }
                if tracer is not None:
                    # Per-shard kernel wall from the merged worker spans;
                    # a timestamp field (stripped by `obs diff`).
                    round_data["shard_seconds"] = {
                        str(s): round(seconds, 6)
                        for s, seconds in sorted(
                            self._round_shard_seconds.items()
                        )
                    }
                self.obs.emit(EVENT_MPC_ROUND, round=iteration, **round_data)
            if tracer is not None:
                tracer.end(
                    round_span,
                    active=active_count,
                    winners=int(winners.sum()),
                    bytes=round_bytes,
                )
            iteration += 1

        if tracer is not None:
            tracer.end(run_span, rounds=iteration)
        report = CommReport.from_meters(self.meters)
        extra: Dict[str, Any] = {
            "completed": not bool(self.active.any()),
            "shards": self.k,
            "workers": self.workers,
            "comm": report.to_dict(),
        }
        extra.update(definition.result_extra(history, self.n))
        if self.crashed.any():
            extra["crashed"] = sorted(self.csr.label_set(self.crashed))
            extra["dead_shards"] = sorted(self.dead_shards)
            extra["outputs"] = self._outputs()
        if self.obs is not None:
            self.obs.emit(
                EVENT_MPC_RUN_END,
                rounds=iteration,
                algorithm=f"{algorithm}-mpc",
                mis_size=int(self.in_mis.sum()),
                shards=self.k,
                comm_bytes=report.total_bytes,
                bytes_by_shard=report.bytes_by_shard,
                max_round_bytes=report.max_round_bytes,
                sparsified_rounds=report.sparsified_rounds,
                crashed=int(self.crashed.sum()),
            )

        return MISResult(
            mis=self.csr.label_set(self.in_mis),
            iterations=iteration,
            algorithm=f"{algorithm}-mpc",
            seed=self.seed,
            active_history=history,
            extra=extra,
        )

    def _outputs(self) -> Dict[Any, Any]:
        """Per-node halt outputs in the CONGEST programs' convention, for
        :func:`repro.core.repair.validate_under_faults`."""
        outputs: Dict[Any, Any] = {}
        for i in range(self.n):
            label = (
                int(self.csr.labels[i])
                if self.csr.integer_labeled
                else self.csr.labels[i]
            )
            if self.mis_iter[i] >= 0:
                outputs[label] = ("mis", int(self.mis_iter[i]))
            elif self.dominated_iter[i] >= 0:
                outputs[label] = ("dominated", int(self.dominated_iter[i]))
            else:
                outputs[label] = None
        return outputs


# -- public entry point ------------------------------------------------------


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}")


def run_sharded(
    algorithm: str,
    graph: Union[Any, CSRGraph],
    seed: int = 0,
    max_iterations: Optional[int] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    budget: Optional[CommBudget] = None,
    failure_policy: Optional[FailurePolicy] = None,
    obs: Optional[ObsSession] = None,
    crashes: Sequence[ShardCrash] = (),
) -> MISResult:
    """Run one MIS algorithm on the sharded MPC runtime.

    ``graph`` is a :class:`networkx.Graph` or prebuilt :class:`CSRGraph`.
    ``shards`` defaults to ``$REPRO_MPC_SHARDS`` (else 4), ``workers`` to
    ``$REPRO_MPC_WORKERS`` (else 0 = inline).  ``budget`` defaults to an
    unlimited :class:`CommBudget` (metered, never sparsified);
    ``failure_policy`` to :meth:`FailurePolicy.from_env`.  ``crashes``
    injects deterministic shard-worker failures for fault testing.

    The result is bit-identical to the bulk engine (same ``mis``, same
    ``iterations``, same ``active_history``) for every shard count — the
    tier-1 differential suite pins this four ways.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown sharded algorithm {algorithm!r}; available: "
            f"{', '.join(sorted(ALGORITHMS))}"
        )
    csr = graph if isinstance(graph, CSRGraph) else csr_from_graph(graph)
    if shards is None:
        shards = _env_int(SHARDS_ENV, DEFAULT_SHARDS)
    if workers is None:
        workers = _env_int(WORKERS_ENV, 0)
    if max_iterations is None:
        max_iterations = ALGORITHMS[algorithm].max_iterations
    policy = failure_policy if failure_policy is not None else FailurePolicy.from_env()

    if csr.n == 0:
        return MISResult(
            mis=set(), iterations=0, algorithm=f"{algorithm}-mpc", seed=seed
        )

    owns_obs = False
    if obs is None:
        obs = session_from_env(
            "mpc",
            name=algorithm,
            seed=seed,
            params={
                "algorithm": f"{algorithm}-mpc",
                "n": csr.n,
                "shards": shards,
                "workers": workers,
            },
        )
        owns_obs = obs is not None

    coordinator = _Coordinator(
        algorithm=algorithm,
        csr=csr,
        seed=seed,
        shards=shards,
        workers=workers,
        budget=budget,
        policy=policy,
        obs=obs,
        owns_obs=owns_obs,
        crashes=crashes,
        max_iterations=max_iterations,
    )
    try:
        return coordinator.run()
    finally:
        coordinator.close()
        if owns_obs and obs is not None:
            obs.finish()
