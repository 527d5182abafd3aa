"""MIS-as-a-service: the asyncio front end and its resilience kit.

:class:`MISService` turns the batch pipeline into a long-running service
over named dynamic graph sessions.  It is protocol-agnostic — requests
are plain :class:`Request` values and every answer is a structured
:class:`Response`; the stdlib HTTP/JSON binding (:mod:`repro.serve.http`)
and the seeded load generator (:mod:`repro.serve.loadgen`) are two thin
clients of the same ``submit()`` entry point.

The resilience kit, rung by rung (docs/serving.md):

* **Bounded admission with explicit backpressure** — a global in-flight
  high watermark; beyond it mutation traffic is rejected with a
  ``queue-full`` error carrying ``retry_after_s``, and query traffic
  falls through to the stale rung.  Nothing queues unboundedly and
  nothing is dropped without a response.
* **Per-request deadlines with cooperative cancellation** — every
  request carries a deadline; expired queued requests are answered
  without running, and a running epoch whose waiters have all expired is
  aborted between repair waves (:func:`repro.serve.incremental.update_repair`
  checks the abort callback before every wave).
  A malformed ``deadline_s`` is refused as a bad request before
  admission.
* **Retry with keyed-jitter backoff** — transient engine failures are
  retried with the exact deterministic backoff arithmetic of the sweep
  runner's :class:`~repro.analysis.runner.FailurePolicy`, keyed by
  ``(session, epoch)`` so reruns back off identically.
* **Batching/coalescing** — concurrent mutation requests against one
  session are drained into a single epoch: one repair pass serves the
  whole batch, which is what keeps repair cost a function of churn
  rather than request rate.  Coalescing changes what an epoch costs,
  never the MIS it commits: that is the greedy MIS of the session's
  fixed priority order on the committed graph.
* **Committed snapshots** — each epoch builds its session's query body
  on the executor, in the same call that ran it, and the commit stores
  that one dict on the session's state.  A query answers with it and
  never reads the graph, so a query that lands mid-epoch sees the last
  committed epoch whole.  Under overload or an open breaker the same
  snapshot is served marked ``stale`` instead of being rejected.
* **Circuit breaking** — repeated engine failures open a per-session
  breaker; compute is refused (queries are served stale instead) until a
  reset window elapses, then a half-open probe decides.
* **Typed failures** — exceptions raised while computing an epoch
  are wrapped at the executor boundary into structured ``engine-failed``
  responses; the event loop never sees them.
* **Probes** — ``health()``/``ready()`` for liveness and readiness, and
  a Prometheus text rendering of the live counters for ``/metrics``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.runner import FailurePolicy
from repro.errors import ReproError
from repro.serve.errors import (
    BadRequestError,
    CircuitOpenError,
    DeadlineExceededError,
    EngineFailure,
    QueueFullError,
    ServiceError,
    SessionExistsError,
    SessionNotFoundError,
    wrap_engine_error,
)
from repro.serve.incremental import (
    ComputeAborted,
    EpochReport,
    GraphSession,
    Mutation,
)

__all__ = [
    "ServeConfig",
    "Request",
    "Response",
    "MISService",
    "CircuitBreaker",
    "ServeCounters",
]

#: Obs event kinds emitted by the service (declared in repro.obs.events).
from repro.obs.events import (  # noqa: E402
    EVENT_SERVE_EPOCH,
    EVENT_SERVE_REQUEST,
    EVENT_SERVE_RETRY,
)
from repro.obs.trace import SPAN_SERVE_EPOCH  # noqa: E402

_ENV_PREFIX = "REPRO_SERVE_"


def _env_int(env: Mapping[str, str], key: str, default: int) -> int:
    raw = env.get(_ENV_PREFIX + key, "")
    return int(raw) if raw.strip() else default


def _env_float(env: Mapping[str, str], key: str, default: float) -> float:
    raw = env.get(_ENV_PREFIX + key, "")
    return float(raw) if raw.strip() else default


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs, each with a ``REPRO_SERVE_*`` environment twin.

    ``queue_limit`` is the admission high watermark (in-flight requests
    across the service); ``default_deadline_s`` applies to requests that
    carry none; ``retries``/``backoff_base`` feed the keyed-jitter retry
    policy; ``breaker_threshold`` consecutive engine failures open a
    session's circuit for ``breaker_reset_s``; ``repair_iteration_budget``
    and ``repair_damage_cap`` bound the incremental rung before the
    recompute fallback; ``coalesce_window_s`` optionally lingers that
    long collecting more mutations into the epoch.
    """

    queue_limit: int = 64  # REPRO_SERVE_QUEUE_LIMIT
    default_deadline_s: float = 30.0  # REPRO_SERVE_DEADLINE
    retries: int = 1  # REPRO_SERVE_RETRIES
    backoff_base: float = 0.02  # REPRO_SERVE_BACKOFF_BASE
    breaker_threshold: int = 3  # REPRO_SERVE_BREAKER_THRESHOLD
    breaker_reset_s: float = 5.0  # REPRO_SERVE_BREAKER_RESET
    repair_iteration_budget: int = 10_000  # REPRO_SERVE_REPAIR_BUDGET
    repair_damage_cap: float = 0.5  # REPRO_SERVE_DAMAGE_CAP
    coalesce_window_s: float = 0.0  # REPRO_SERVE_COALESCE_WINDOW
    retry_after_s: float = 0.05  # REPRO_SERVE_RETRY_AFTER

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "ServeConfig":
        env = os.environ if environ is None else environ
        return cls(
            queue_limit=_env_int(env, "QUEUE_LIMIT", cls.queue_limit),
            default_deadline_s=_env_float(env, "DEADLINE", cls.default_deadline_s),
            retries=_env_int(env, "RETRIES", cls.retries),
            backoff_base=_env_float(env, "BACKOFF_BASE", cls.backoff_base),
            breaker_threshold=_env_int(
                env, "BREAKER_THRESHOLD", cls.breaker_threshold
            ),
            breaker_reset_s=_env_float(env, "BREAKER_RESET", cls.breaker_reset_s),
            repair_iteration_budget=_env_int(
                env, "REPAIR_BUDGET", cls.repair_iteration_budget
            ),
            repair_damage_cap=_env_float(env, "DAMAGE_CAP", cls.repair_damage_cap),
            coalesce_window_s=_env_float(
                env, "COALESCE_WINDOW", cls.coalesce_window_s
            ),
            retry_after_s=_env_float(env, "RETRY_AFTER", cls.retry_after_s),
        )


@dataclass(frozen=True)
class Request:
    """One service request (protocol-agnostic wire form)."""

    op: str  # "create" | "drop" | "query" | "mutate" | "list"
    session: str = ""
    mutations: Tuple[Mutation, ...] = ()
    seed: int = 0
    edges: Tuple[Tuple[int, int], ...] = ()
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class Response:
    """Every request gets exactly one of these — nothing is dropped."""

    ok: bool
    status: str  # "ok" | "stale" | "rejected" | "deadline" | "error"
    served: Optional[str] = None  # "fresh" | "cache" | "stale-cache"
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"ok": self.ok, "status": self.status}
        if self.served is not None:
            out["served"] = self.served
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe.

    ``allow()`` answers "may compute proceed?": always while closed;
    after opening, only once ``reset_s`` has elapsed (the half-open
    probe).  A success closes the breaker, a failure during the probe
    re-opens the window.
    """

    def __init__(self, threshold: int, reset_s: float, clock: Callable[[], float]):
        self.threshold = max(1, threshold)
        self.reset_s = reset_s
        self.clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self.clock() - self.opened_at >= self.reset_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        return self.state != "open"

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self.opened_at = self.clock()


@dataclass
class ServeCounters:
    """Live service counters (rendered at ``/metrics``).

    ``cache_hits`` counts queries answered from the committed snapshot.
    ``shed`` is always 0, since every query has a committed snapshot to
    fall back on; it stays because the benchmark's traced run reads it.
    """

    requests: int = 0
    rejected: int = 0
    shed: int = 0
    stale_served: int = 0
    cache_hits: int = 0
    deadline_exceeded: int = 0
    retries: int = 0
    engine_failures: int = 0
    epochs_repair: int = 0
    epochs_recompute: int = 0
    repair_rounds: int = 0
    recompute_rounds: int = 0
    mutations_applied: int = 0
    queue_peak: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "shed": self.shed,
            "stale_served": self.stale_served,
            "cache_hits": self.cache_hits,
            "deadline_exceeded": self.deadline_exceeded,
            "retries": self.retries,
            "engine_failures": self.engine_failures,
            "epochs_repair": self.epochs_repair,
            "epochs_recompute": self.epochs_recompute,
            "repair_rounds": self.repair_rounds,
            "recompute_rounds": self.recompute_rounds,
            "mutations_applied": self.mutations_applied,
            "queue_peak": self.queue_peak,
        }


class _MutationWaiter:
    """One mutation request waiting for its epoch to commit."""

    __slots__ = ("mutations", "deadline", "future")

    def __init__(self, mutations, deadline, future):
        self.mutations = mutations
        self.deadline = deadline
        self.future = future

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class _SessionState:
    """Service-side wrapper: session + queue + worker + breaker.

    ``snapshot`` holds the query body of the last committed epoch.  It is
    replaced only on the loop thread at commit, so queries read it
    without touching the session, whose graph the executor may be
    mutating.  It costs O(|MIS|) per session, less than the graph.
    """

    def __init__(self, session: GraphSession, breaker: CircuitBreaker):
        self.session = session
        self.breaker = breaker
        self.snapshot: Dict[str, Any] = {}
        self.queue: "asyncio.Queue[_MutationWaiter]" = asyncio.Queue()
        self.worker: Optional[asyncio.Task] = None
        self.epoch_failures = 0


class MISService:
    """The protocol-agnostic serving core.  One instance per process.

    ``clock`` is injectable (monotonic seconds) so deadline and breaker
    behavior is testable without sleeping.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        obs: Optional[Any] = None,
        tracer: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ServeConfig.from_env()
        self.obs = obs
        self.tracer = tracer
        #: Spans nest strictly, so traced compute is serialized; untraced
        #: compute runs lock-free on the executor.
        self._compute_lock = threading.Lock()
        self.clock = clock
        self.sessions: Dict[str, _SessionState] = {}
        self.counters = ServeCounters()
        self.started_at = self.clock()
        self._inflight = 0
        self._closed = False
        #: Deterministic failure injection: the next N epochs raise an
        #: engine error before computing (tests, chaos smoke, loadgen).
        self._inject_engine_failures = 0

    # -- failure injection ----------------------------------------------------

    def inject_engine_failure(self, count: int = 1) -> None:
        """Force the next ``count`` epoch computations to fail.

        The injected exception is a plain :class:`ReproError`, so it
        exercises the same wrap-retry-breaker path a real engine error
        takes.
        """
        self._inject_engine_failures += count

    # -- admission ------------------------------------------------------------

    def _admit(self) -> None:
        """Count a request in; raise QueueFullError at the watermark."""
        if self._inflight >= self.config.queue_limit:
            self.counters.rejected += 1
            raise QueueFullError(
                f"admission queue at high watermark "
                f"({self._inflight}/{self.config.queue_limit})",
                retry_after_s=self.config.retry_after_s,
            )
        self._inflight += 1
        self.counters.queue_peak = max(self.counters.queue_peak, self._inflight)

    @property
    def queue_depth(self) -> int:
        return self._inflight

    @property
    def overloaded(self) -> bool:
        return self._inflight >= self.config.queue_limit

    # -- the single entry point ----------------------------------------------

    async def submit(self, request: Request) -> Response:
        """Handle one request; always returns a structured Response."""
        self.counters.requests += 1
        started = self.clock()
        try:
            if request.op == "query":
                response = await self._handle_query(request)
            elif request.op == "mutate":
                response = await self._handle_mutate(request)
            elif request.op == "create":
                response = await self._handle_create(request)
            elif request.op == "drop":
                response = self._handle_drop(request)
            elif request.op == "list":
                response = Response(
                    ok=True,
                    status="ok",
                    result={"sessions": sorted(self.sessions)},
                )
            else:
                raise BadRequestError(f"unknown op {request.op!r}")
        except ServiceError as exc:
            response = self._error_response(exc)
        except ReproError as exc:  # engine errors that escaped wrapping
            response = self._error_response(wrap_engine_error(exc))
        # Per-request counters tally here — exactly once per submit — so
        # the worker-side resolution and the submit-side deadline race
        # can't double count one request.
        if response.status == "deadline":
            self.counters.deadline_exceeded += 1
        self._emit_request(request, response, self.clock() - started)
        return response

    def _error_response(self, exc: ServiceError) -> Response:
        status = {
            "queue-full": "rejected",
            "deadline-exceeded": "deadline",
        }.get(exc.code, "error")
        return Response(ok=False, status=status, error=exc.to_dict())

    def _emit_request(
        self, request: Request, response: Response, dur_s: float
    ) -> None:
        if self.obs is None:
            return
        data: Dict[str, Any] = {
            "op": request.op,
            "status": response.status,
            "queue_depth": self._inflight,
        }
        if request.session:
            data["session"] = request.session
        if response.served is not None:
            data["served"] = response.served
        if response.error is not None:
            data["code"] = response.error.get("code")
        self.obs.emit(EVENT_SERVE_REQUEST, dur_s=dur_s, **data)

    # -- deadline helpers -----------------------------------------------------

    def _deadline_of(self, request: Request) -> Optional[float]:
        """Absolute deadline of ``request``; None when it has none.

        Called before admission, so a malformed ``deadline_s`` is refused
        as a bad request without taking an in-flight slot.
        """
        deadline_s = request.deadline_s
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        elif (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or not math.isfinite(deadline_s)
        ):
            raise BadRequestError(
                f"deadline_s must be a finite number of seconds, got {deadline_s!r}"
            )
        if deadline_s is None or deadline_s <= 0:
            return None
        return self.clock() + deadline_s

    # -- session lifecycle ----------------------------------------------------

    def _state(self, name: str) -> _SessionState:
        try:
            return self.sessions[name]
        except KeyError:
            raise SessionNotFoundError(f"no session named {name!r}") from None

    async def _handle_create(self, request: Request) -> Response:
        name = request.session
        if not isinstance(name, str) or not name or "/" in name:
            # A "/" would split the name across HTTP path segments, so
            # such a session could be created but never dropped.
            raise BadRequestError(
                f"session name must be a non-empty string without '/', got {name!r}"
            )
        if request.session in self.sessions:
            raise SessionExistsError(
                f"session {request.session!r} already exists"
            )
        deadline = self._deadline_of(request)
        self._admit()
        try:
            session = GraphSession(
                name=request.session,
                seed=request.seed,
                repair_iteration_budget=self.config.repair_iteration_budget,
                repair_damage_cap=self.config.repair_damage_cap,
            )
            session.tracer = self.tracer
            state = _SessionState(
                session,
                CircuitBreaker(
                    self.config.breaker_threshold,
                    self.config.breaker_reset_s,
                    self.clock,
                ),
            )
            if request.edges:
                # Bootstrap epoch: the initial edge list arrives as one
                # mutation batch so the engine path (and its failure
                # handling) is identical to steady-state churn.
                bootstrap = tuple(
                    Mutation("add-edge", u, v) for u, v in request.edges
                )
                report, snapshot = await self._run_epoch(
                    state, bootstrap, [deadline]
                )
                self._commit(state, report, snapshot)
            else:
                # Safe on the loop thread: no epoch can run before the
                # session is registered below.
                state.snapshot = session.snapshot()
            self.sessions[request.session] = state
            state.worker = asyncio.get_running_loop().create_task(
                self._epoch_worker(request.session, state)
            )
            return Response(
                ok=True, status="ok", served="fresh", result=state.snapshot
            )
        finally:
            self._inflight -= 1

    def _handle_drop(self, request: Request) -> Response:
        state = self._state(request.session)
        if state.worker is not None:
            state.worker.cancel()
        while not state.queue.empty():
            waiter = state.queue.get_nowait()
            if not waiter.future.done():
                waiter.future.set_exception(
                    SessionNotFoundError(
                        f"session {request.session!r} dropped"
                    )
                )
        del self.sessions[request.session]
        return Response(ok=True, status="ok", result={"dropped": request.session})

    # -- queries --------------------------------------------------------------

    async def _handle_query(self, request: Request) -> Response:
        state = self._state(request.session)
        # Overload / open breaker: the same committed snapshot, marked
        # stale — the session may be unable to commit a newer one.
        if self.overloaded or not state.breaker.allow():
            self.counters.stale_served += 1
            return Response(
                ok=True, status="stale", served="stale-cache", result=state.snapshot
            )
        self.counters.cache_hits += 1
        return Response(ok=True, status="ok", served="cache", result=state.snapshot)

    # -- mutations ------------------------------------------------------------

    async def _handle_mutate(self, request: Request) -> Response:
        state = self._state(request.session)
        if not request.mutations:
            raise BadRequestError("mutate requires a non-empty mutation list")
        if not state.breaker.allow():
            raise CircuitOpenError(
                f"circuit open for session {request.session!r} after "
                f"{state.breaker.failures} engine failure(s)",
                retry_after_s=self.config.breaker_reset_s,
            )
        deadline = self._deadline_of(request)
        self._admit()
        future: "asyncio.Future[Response]" = (
            asyncio.get_running_loop().create_future()
        )
        state.queue.put_nowait(
            _MutationWaiter(tuple(request.mutations), deadline, future)
        )
        try:
            if deadline is None:
                return await future
            remaining = deadline - self.clock()
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), timeout=max(0.0, remaining)
                )
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    "deadline elapsed while the epoch was queued or running"
                ) from None
        finally:
            self._inflight -= 1

    async def _epoch_worker(self, name: str, state: _SessionState) -> None:
        """Per-session epoch loop: drain, coalesce, compute, commit.

        The loop must outlive any single batch: an exception escaping
        :meth:`_commit_batch` (it handles the typed failures itself, so
        only a genuine bug lands here) resolves every still-pending
        waiter with a structured ``engine-failed`` response and the
        worker keeps serving — a dead worker would leave all subsequent
        mutations for the session queued forever with no response.
        """
        while True:
            batch = [await state.queue.get()]
            if self.config.coalesce_window_s > 0:
                await asyncio.sleep(self.config.coalesce_window_s)
            while not state.queue.empty():
                batch.append(state.queue.get_nowait())
            try:
                await self._commit_batch(name, state, batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # backstop: never kill the worker
                self.counters.engine_failures += 1
                response = self._error_response(wrap_engine_error(exc))
                for waiter in batch:
                    self._resolve(waiter, response)

    async def _commit_batch(
        self, name: str, state: _SessionState, batch: List[_MutationWaiter]
    ) -> None:
        now = self.clock()
        live = []
        for waiter in batch:
            if waiter.expired(now):
                self._resolve(
                    waiter,
                    self._error_response(
                        DeadlineExceededError(
                            "deadline elapsed before the epoch started"
                        )
                    ),
                )
            else:
                live.append(waiter)
        if not live:
            return

        if not state.breaker.allow():
            exc = CircuitOpenError(
                f"circuit open for session {name!r}",
                retry_after_s=self.config.breaker_reset_s,
            )
            for waiter in live:
                self._resolve(waiter, self._error_response(exc))
            return

        mutations = tuple(m for waiter in live for m in waiter.mutations)
        deadlines = [w.deadline for w in live]
        try:
            report, snapshot = await self._run_epoch(state, mutations, deadlines)
        except ComputeAborted:
            response = self._error_response(
                DeadlineExceededError(
                    "epoch aborted cooperatively: every waiter's deadline "
                    "elapsed mid-computation"
                )
            )
            for waiter in live:
                self._resolve(waiter, response)
            return
        except ServiceError as exc:
            # Only genuine compute failures feed the breaker: counting
            # client-caused errors (bad-request class) would let a few
            # malformed requests open a shared session's circuit and
            # deny service to well-formed traffic.
            if isinstance(exc, EngineFailure):
                state.breaker.record_failure()
            state.epoch_failures += 1
            response = self._error_response(exc)
            for waiter in live:
                self._resolve(waiter, response)
            return

        state.breaker.record_success()
        self._commit(state, report, snapshot)
        response = Response(
            ok=True,
            status="ok",
            served="fresh",
            result={
                "epoch": report.epoch,
                "mode": report.mode,
                "rounds": report.rounds,
                "mutations": report.mutations,
                "coalesced_requests": len(live),
                "mis_size": report.mis_size,
                "fingerprint": report.fingerprint,
            },
        )
        for waiter in live:
            self._resolve(waiter, response)

    @staticmethod
    def _resolve(waiter: _MutationWaiter, response: Response) -> None:
        if not waiter.future.done():
            waiter.future.set_result(response)

    def _commit(
        self, state: _SessionState, report: EpochReport, snapshot: Dict[str, Any]
    ) -> None:
        state.snapshot = snapshot
        if report.mode == "repair":
            self.counters.epochs_repair += 1
            self.counters.repair_rounds += report.rounds
        else:
            self.counters.epochs_recompute += 1
            self.counters.recompute_rounds += report.rounds
        self.counters.mutations_applied += report.mutations
        if self.obs is not None:
            self.obs.emit(
                EVENT_SERVE_EPOCH,
                session=state.session.name,
                epoch=report.epoch,
                mode=report.mode,
                mutations=report.mutations,
                damaged=report.damaged,
                rounds=report.rounds,
                evicted=report.evicted,
                added=report.added,
                mis_size=report.mis_size,
            )

    # -- the engine boundary --------------------------------------------------

    async def _run_epoch(
        self,
        state: _SessionState,
        mutations: Tuple[Mutation, ...],
        deadlines: List[Optional[float]],
    ) -> Tuple[EpochReport, Dict[str, Any]]:
        """Run one epoch on the executor with retries and wrapping.

        Returns the epoch's report and its committed snapshot, both built
        on the executor thread so the loop never reads a graph that is
        being mutated.  ``deadlines`` lists the waiters' deadlines; the
        abort callback fires only once *every* one has passed —
        cancelling a shared epoch because one rider expired would punish
        the patient riders.
        """

        def should_abort() -> bool:
            now = self.clock()
            return all(d is not None and now >= d for d in deadlines)

        session = state.session
        epoch_key = hashlib.sha256(
            f"{session.name}:{session.epoch}".encode()
        ).hexdigest()
        policy = FailurePolicy(
            on_error="continue",
            retries=self.config.retries,
            backoff_base=self.config.backoff_base,
        )

        def compute() -> Tuple[EpochReport, Dict[str, Any]]:
            if self._inject_engine_failures > 0:
                self._inject_engine_failures -= 1
                raise ReproError("injected engine failure")
            if self.tracer is None:
                report = session.apply_epoch(mutations, should_abort=should_abort)
                return report, session.snapshot()
            with self._compute_lock:
                with self.tracer.span(SPAN_SERVE_EPOCH) as span:
                    report = session.apply_epoch(
                        mutations, should_abort=should_abort
                    )
                    span.add(
                        mode=report.mode,
                        mutations=report.mutations,
                        rounds=report.rounds,
                    )
                    return report, session.snapshot()

        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            try:
                return await loop.run_in_executor(None, compute)
            except ComputeAborted:
                raise
            except ServiceError:
                raise
            except Exception as exc:
                # Anything the compute raises — ReproError or not (a
                # networkx/logic bug is as fatal to the epoch as an
                # engine error) — takes the same retry-then-wrap path,
                # so nothing non-cancellation escapes the boundary.
                attempt += 1
                self.counters.engine_failures += 1
                if attempt > policy.retries:
                    raise wrap_engine_error(exc) from exc
                self.counters.retries += 1
                if self.obs is not None:
                    self.obs.emit(
                        EVENT_SERVE_RETRY,
                        session=session.name,
                        epoch=session.epoch,
                        attempt=attempt,
                        error=type(exc).__name__,
                    )
                await asyncio.sleep(policy.backoff_seconds(epoch_key, attempt))

    # -- probes ---------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness payload: process-level state, always served."""
        return {
            "status": "ok",
            "uptime_s": round(self.clock() - self.started_at, 3),
            "sessions": len(self.sessions),
            "queue_depth": self._inflight,
            "queue_limit": self.config.queue_limit,
            "breakers": {
                name: state.breaker.state for name, state in self.sessions.items()
            },
            "counters": self.counters.to_dict(),
        }

    def ready(self) -> bool:
        """Readiness: false while overloaded or any breaker is open."""
        if self.overloaded:
            return False
        return not any(
            state.breaker.state == "open" for state in self.sessions.values()
        )

    def prometheus(self) -> str:
        """Live counters in the Prometheus text exposition format."""
        lines: List[str] = []

        def metric(name: str, help_text: str, kind: str, value) -> None:
            lines.append(f"# HELP repro_serve_{name} {help_text}")
            lines.append(f"# TYPE repro_serve_{name} {kind}")
            lines.append(f"repro_serve_{name} {value}")

        c = self.counters
        metric("requests_total", "Requests accepted by the service.", "counter", c.requests)
        metric("rejected_total", "Requests rejected at admission (queue-full).", "counter", c.rejected)
        metric("shed_total", "Requests shed with an explicit response (always 0).", "counter", c.shed)
        metric("stale_served_total", "Queries served the committed snapshot marked stale.", "counter", c.stale_served)
        metric("cache_hits_total", "Queries served the committed snapshot.", "counter", c.cache_hits)
        metric("deadline_exceeded_total", "Requests that ran out of deadline.", "counter", c.deadline_exceeded)
        metric("retries_total", "Epoch retries after engine failures.", "counter", c.retries)
        metric("engine_failures_total", "Engine exceptions wrapped as typed failures.", "counter", c.engine_failures)
        metric("epochs_repair_total", "Epochs committed via incremental repair.", "counter", c.epochs_repair)
        metric("epochs_recompute_total", "Epochs committed via full recompute.", "counter", c.epochs_recompute)
        metric("repair_rounds_total", "CONGEST rounds spent in incremental repair.", "counter", c.repair_rounds)
        metric("recompute_rounds_total", "CONGEST rounds spent in recompute fallbacks.", "counter", c.recompute_rounds)
        metric("mutations_applied_total", "Graph mutations committed.", "counter", c.mutations_applied)
        metric("queue_depth", "In-flight requests right now.", "gauge", self._inflight)
        metric("queue_peak", "High-water mark of in-flight requests.", "gauge", c.queue_peak)
        metric("sessions", "Live graph sessions.", "gauge", len(self.sessions))
        metric("ready", "Readiness probe (1 ready / 0 not).", "gauge", int(self.ready()))
        return "\n".join(lines) + "\n"

    # -- lifecycle ------------------------------------------------------------

    async def close(self) -> None:
        """Cancel every session worker and fail queued waiters cleanly."""
        if self._closed:
            return
        self._closed = True
        for name in list(self.sessions):
            self._handle_drop(Request(op="drop", session=name))
        await asyncio.sleep(0)
