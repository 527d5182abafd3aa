"""Tests for :class:`repro.serve.server.MISService`.

Every rung of the degradation ladder is exercised: incremental repair,
recompute fallback, and the session's committed snapshot served stale
under an open breaker, however many epochs other sessions commit.  A
query that lands mid-epoch reads the last committed snapshot.  The breaker,
deadline, retry, and typed-engine-failure paths are pinned too.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import CommBudgetExceededError
from repro.mpc.budget import CommBudget
from repro.mpc.runtime import run_sharded
from repro.serve import errors as serve_errors
from repro.serve import incremental
from repro.serve.http import _STATUS_BY_CODE
from repro.serve.incremental import ComputeAborted, Mutation
from repro.serve.server import (
    CircuitBreaker,
    MISService,
    Request,
    ServeConfig,
    Response,
)


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    """Injectable monotonic clock so breaker windows need no sleeping."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_service(clock=None, **overrides) -> MISService:
    defaults = dict(retries=0, backoff_base=0.0)
    defaults.update(overrides)
    config = ServeConfig(**defaults)
    if clock is None:
        return MISService(config)
    return MISService(config, clock=clock)


PATH_EDGES = tuple((u, u + 1) for u in range(10))


async def create_session(service, name="s", edges=PATH_EDGES, **kw):
    response = await service.submit(
        Request(op="create", session=name, edges=edges, **kw)
    )
    assert response.ok, response
    return response


class TestConfig:
    def test_from_env_reads_knobs(self):
        config = ServeConfig.from_env(
            {
                "REPRO_SERVE_QUEUE_LIMIT": "7",
                "REPRO_SERVE_DEADLINE": "1.5",
                "REPRO_SERVE_BREAKER_THRESHOLD": "9",
                "REPRO_SERVE_DAMAGE_CAP": "0.25",
            }
        )
        assert config.queue_limit == 7
        assert config.default_deadline_s == 1.5
        assert config.breaker_threshold == 9
        assert config.repair_damage_cap == 0.25
        # Unset knobs keep their defaults.
        assert config.retries == ServeConfig.retries

    def test_blank_env_values_fall_back(self):
        config = ServeConfig.from_env({"REPRO_SERVE_QUEUE_LIMIT": "  "})
        assert config.queue_limit == ServeConfig.queue_limit


class TestCircuitBreaker:
    def test_open_half_open_closed_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, reset_s=5.0, clock=clock)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failure_during_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"


class TestSessionLifecycle:
    def test_create_query_drop(self):
        async def scenario():
            service = make_service()
            try:
                created = await create_session(service)
                assert created.result["mis_size"] > 0
                listed = await service.submit(Request(op="list"))
                assert listed.result["sessions"] == ["s"]
                query = await service.submit(Request(op="query", session="s"))
                assert query.ok and query.result["mis"] == created.result["mis"]
                dropped = await service.submit(Request(op="drop", session="s"))
                assert dropped.ok
                missing = await service.submit(Request(op="query", session="s"))
                assert missing.error["code"] == "session-not-found"
            finally:
                await service.close()

        run(scenario())

    def test_duplicate_create_rejected(self):
        async def scenario():
            service = make_service()
            try:
                await create_session(service)
                dup = await service.submit(
                    Request(op="create", session="s", edges=PATH_EDGES)
                )
                assert not dup.ok
                assert dup.error["code"] == "session-exists"
            finally:
                await service.close()

        run(scenario())

    def test_bad_requests(self):
        async def scenario():
            service = make_service()
            try:
                empty = await service.submit(
                    Request(op="create", session="", edges=())
                )
                assert empty.error["code"] == "bad-request"
                await create_session(service)
                no_mutations = await service.submit(
                    Request(op="mutate", session="s")
                )
                assert no_mutations.error["code"] == "bad-request"
                unknown = await service.submit(Request(op="frobnicate"))
                assert unknown.error["code"] == "bad-request"
            finally:
                await service.close()

        run(scenario())

    @pytest.mark.parametrize("name", [None, "", 7, "a/b"])
    def test_bad_session_name_is_a_bad_request(self, name):
        async def scenario():
            service = make_service()
            try:
                response = await service.submit(
                    Request(op="create", session=name, edges=PATH_EDGES)
                )
                assert response.error["code"] == "bad-request"
                assert service.sessions == {}
                assert service.queue_depth == 0
            finally:
                await service.close()

        run(scenario())


class TestLadderRungs:
    def test_rung_1_incremental_repair(self):
        async def scenario():
            service = make_service()
            try:
                await create_session(service)
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert response.ok
                assert response.result["mode"] == "repair"
                assert service.counters.epochs_repair == 1
            finally:
                await service.close()

        run(scenario())

    def test_rung_2_recompute_fallback(self):
        async def scenario():
            service = make_service(repair_damage_cap=0.0)
            try:
                await create_session(service)
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert response.ok
                assert response.result["mode"] == "recompute"
                assert service.counters.epochs_recompute >= 1
            finally:
                await service.close()

        run(scenario())

    def test_rung_3_stale_cache_under_open_breaker(self):
        clock = FakeClock()

        async def scenario():
            service = make_service(
                clock, breaker_threshold=1, breaker_reset_s=1000.0
            )
            try:
                created = await create_session(service)
                service.inject_engine_failure(1)
                failed = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert failed.error["code"] == "engine-failed"
                assert service.sessions["s"].breaker.state == "open"
                # Breaker open: query degrades to the committed snapshot.
                query = await service.submit(Request(op="query", session="s"))
                assert query.ok
                assert query.status == "stale"
                assert query.served == "stale-cache"
                assert query.result["mis"] == created.result["mis"]
                assert service.counters.stale_served == 1
                # And the failed epoch rolled back: nothing changed.
                assert query.result["epoch"] == created.result["epoch"]
            finally:
                await service.close()

        run(scenario())

    def test_rung_3_survives_commits_on_other_sessions(self):
        """A quiet session keeps its committed snapshot however many
        epochs other sessions commit: with its breaker open, its query
        degrades to that snapshot instead of being refused."""
        clock = FakeClock()

        async def scenario():
            service = make_service(
                clock, breaker_threshold=1, breaker_reset_s=1000.0
            )
            try:
                created = await create_session(service, "a")
                await create_session(
                    service, "b", edges=tuple((u, u + 2) for u in range(8))
                )
                for i in range(300):
                    op = "add-edge" if i % 2 == 0 else "remove-edge"
                    committed = await service.submit(
                        Request(
                            op="mutate",
                            session="b",
                            mutations=(Mutation(op, 0, 9),),
                        )
                    )
                    assert committed.ok
                service.inject_engine_failure(1)
                failed = await service.submit(
                    Request(
                        op="mutate",
                        session="a",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert failed.error["code"] == "engine-failed"
                assert service.sessions["a"].breaker.state == "open"
                query = await service.submit(Request(op="query", session="a"))
                assert query.ok
                assert query.status == "stale"
                assert query.served == "stale-cache"
                assert query.result == created.result
                assert service.counters.stale_served == 1
                assert service.counters.shed == 0
                # The healthy session is untouched by a's degradation.
                healthy = await service.submit(Request(op="query", session="b"))
                assert healthy.ok and healthy.status == "ok"
                assert healthy.result["epoch"] == 301
            finally:
                await service.close()

        run(scenario())


class TestBreaker:
    def test_open_breaker_refuses_mutations_then_recovers(self):
        clock = FakeClock()

        async def scenario():
            service = make_service(clock, breaker_threshold=1, breaker_reset_s=50.0)
            try:
                await create_session(service)
                service.inject_engine_failure(1)
                await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                refused = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert refused.error["code"] == "circuit-open"
                assert not service.ready()
                # After the reset window the half-open probe may compute.
                clock.advance(50.0)
                probe = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert probe.ok
                assert service.sessions["s"].breaker.state == "closed"
                assert service.ready()
            finally:
                await service.close()

        run(scenario())


class TestDeadlines:
    def test_expired_deadline_answers_without_running(self):
        async def scenario():
            service = make_service()
            try:
                await create_session(service)
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                        deadline_s=1e-9,
                    )
                )
                assert not response.ok
                assert response.status == "deadline"
                assert response.error["code"] == "deadline-exceeded"
                assert service.counters.deadline_exceeded == 1
            finally:
                await service.close()

        run(scenario())

    def test_compute_aborted_maps_to_deadline(self):
        async def scenario():
            service = make_service()
            try:
                await create_session(service)
                state = service.sessions["s"]

                def aborting_apply(*args, **kwargs):
                    raise ComputeAborted("test abort")

                state.session.apply_epoch = aborting_apply
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert response.status == "deadline"
                assert response.error["code"] == "deadline-exceeded"
                # A cooperative abort is not an engine failure: the
                # breaker stays closed.
                assert state.breaker.state == "closed"
            finally:
                await service.close()

        run(scenario())


    def test_malformed_deadline_is_a_bad_request_and_frees_no_slot(self):
        async def scenario():
            service = make_service(queue_limit=2)
            try:
                await create_session(service)
                for bad in ("5", True, float("nan"), float("inf"), [1]):
                    response = await service.submit(
                        Request(
                            op="mutate",
                            session="s",
                            mutations=(Mutation("add-edge", 0, 5),),
                            deadline_s=bad,
                        )
                    )
                    assert response.status == "error", bad
                    assert response.error["code"] == "bad-request", bad
                    assert service.queue_depth == 0, bad
                response = await service.submit(
                    Request(op="create", session="t", deadline_s="5")
                )
                assert response.error["code"] == "bad-request"
                assert "t" not in service.sessions
                # No slot leaked: well-formed traffic is still admitted
                # and queries are served fresh, not stale.
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                        deadline_s=5,
                    )
                )
                assert response.ok, response
                response = await service.submit(Request(op="query", session="s"))
                assert response.status == "ok"
                assert service.counters.rejected == 0
            finally:
                await service.close()

        run(scenario())


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        async def scenario():
            service = make_service(retries=1)
            try:
                await create_session(service)
                service.inject_engine_failure(1)
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert response.ok
                assert service.counters.retries == 1
                assert service.counters.engine_failures == 1
                assert service.sessions["s"].breaker.state == "closed"
            finally:
                await service.close()

        run(scenario())

    def test_retries_exhausted_is_typed_failure(self):
        async def scenario():
            service = make_service(retries=1, breaker_threshold=10)
            try:
                await create_session(service)
                service.inject_engine_failure(2)
                response = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert not response.ok
                assert response.error["code"] == "engine-failed"
                assert response.error["cause"] == "ReproError"
                assert service.counters.engine_failures == 2
            finally:
                await service.close()

        run(scenario())


class TestOverload:
    def test_bounded_queue_with_explicit_rejections(self):
        async def scenario():
            service = make_service(queue_limit=4)
            try:
                await create_session(service)
                requests = [
                    service.submit(
                        Request(
                            op="mutate",
                            session="s",
                            mutations=(Mutation("add-edge", i, i + 3),),
                        )
                    )
                    for i in range(40)
                ]
                responses = await asyncio.gather(*requests)
                # Every request is answered — nothing dropped, nothing
                # raised out of submit().
                assert len(responses) == 40
                assert all(isinstance(r, Response) for r in responses)
                statuses = {r.status for r in responses}
                assert statuses <= {"ok", "rejected"}
                rejected = [r for r in responses if r.status == "rejected"]
                assert rejected, "expected explicit queue-full rejections"
                assert all(
                    r.error["code"] == "queue-full"
                    and "retry_after_s" in r.error
                    for r in rejected
                )
                # The admission counter never exceeded the watermark.
                assert service.counters.queue_peak <= 4
                assert service.queue_depth == 0
            finally:
                await service.close()

        run(scenario())

    def test_overloaded_query_served_stale(self):
        async def scenario():
            service = make_service(queue_limit=1)
            try:
                await create_session(service)
                service._inflight = 1  # pin the service at the watermark
                try:
                    query = await service.submit(
                        Request(op="query", session="s")
                    )
                finally:
                    service._inflight = 0
                assert query.ok
                assert query.status == "stale"
                assert query.served == "stale-cache"
            finally:
                await service.close()

        run(scenario())


class TestCoalescing:
    def test_concurrent_mutations_share_one_epoch(self):
        async def scenario():
            service = make_service(coalesce_window_s=0.01)
            try:
                await create_session(service)
                responses = await asyncio.gather(
                    *[
                        service.submit(
                            Request(
                                op="mutate",
                                session="s",
                                mutations=(Mutation("add-edge", i, i + 4),),
                            )
                        )
                        for i in range(5)
                    ]
                )
                assert all(r.ok for r in responses)
                epochs = {r.result["epoch"] for r in responses}
                # Fewer committed epochs than requests: batching happened.
                assert len(epochs) < 5
                coalesced = max(r.result["coalesced_requests"] for r in responses)
                assert coalesced >= 2
            finally:
                await service.close()

        run(scenario())


class TestWorkerResilience:
    def test_worker_survives_non_repro_error(self):
        """A non-ReproError escaping compute (a logic bug) must come
        back as a structured engine-failed response and leave the
        per-session worker alive — not strand every later mutation."""

        async def scenario():
            service = make_service(breaker_threshold=10)
            try:
                await create_session(service)
                state = service.sessions["s"]
                original = state.session.apply_epoch

                def exploding_apply(*args, **kwargs):
                    raise ValueError("logic bug outside the ReproError tree")

                state.session.apply_epoch = exploding_apply
                broken = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert not broken.ok
                assert broken.error["code"] == "engine-failed"
                assert broken.error["cause"] == "ValueError"
                # The worker loop survived: the next request resolves
                # instead of hanging in the queue forever.
                state.session.apply_epoch = original
                healed = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert healed.ok
            finally:
                await service.close()

        run(scenario())

    def test_bad_request_failures_do_not_open_breaker(self):
        """Client-caused errors must not feed the circuit breaker: a
        few malformed requests would otherwise deny service to every
        well-formed client sharing the session."""

        async def scenario():
            service = make_service(breaker_threshold=1)
            try:
                await create_session(service)
                state = service.sessions["s"]
                original = state.session.apply_epoch

                def rejecting_apply(*args, **kwargs):
                    raise serve_errors.BadRequestError("client-caused")

                state.session.apply_epoch = rejecting_apply
                for _ in range(3):
                    response = await service.submit(
                        Request(
                            op="mutate",
                            session="s",
                            mutations=(Mutation("add-edge", 0, 5),),
                        )
                    )
                    assert response.error["code"] == "bad-request"
                assert state.breaker.state == "closed"
                # Valid traffic still computes immediately.
                state.session.apply_epoch = original
                ok = await service.submit(
                    Request(
                        op="mutate",
                        session="s",
                        mutations=(Mutation("add-edge", 0, 5),),
                    )
                )
                assert ok.ok
            finally:
                await service.close()

        run(scenario())


class TestCacheIsolation:
    def test_identical_content_sessions_do_not_share_snapshots(self):
        """Two sessions with the same graph and seed must never serve
        each other's snapshots — the committed body embeds the session's
        name, epoch, and repair counters."""

        async def scenario():
            service = make_service()
            try:
                await create_session(service, "a")
                await create_session(service, "b")  # identical edges/seed
                qa = await service.submit(Request(op="query", session="a"))
                qb = await service.submit(Request(op="query", session="b"))
                assert qa.ok and qb.ok
                assert qa.result["session"] == "a"
                assert qb.result["session"] == "b"
            finally:
                await service.close()

        run(scenario())


class TestCommittedSnapshot:
    def test_query_mid_epoch_reads_last_committed_snapshot(self, monkeypatch):
        """A query that lands while an epoch is mutating the graph on the
        executor answers with the last committed snapshot, untorn, and
        never hashes the graph on the event-loop thread."""
        entered = threading.Event()
        release = threading.Event()
        real_repair = incremental.update_repair
        real_fingerprint = incremental.graph_fingerprint
        fingerprint_threads = []

        def blocking_repair(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return real_repair(*args, **kwargs)

        def recording_fingerprint(graph):
            fingerprint_threads.append(threading.get_ident())
            return real_fingerprint(graph)

        monkeypatch.setattr(incremental, "graph_fingerprint", recording_fingerprint)

        async def scenario():
            loop_thread = threading.get_ident()
            service = make_service()
            try:
                created = await create_session(service)
                committed = created.result
                monkeypatch.setattr(incremental, "update_repair", blocking_repair)
                mutate = asyncio.ensure_future(
                    service.submit(
                        Request(
                            op="mutate",
                            session="s",
                            mutations=(Mutation("add-edge", 0, 5),),
                        )
                    )
                )
                for _ in range(3000):
                    if entered.is_set():
                        break
                    await asyncio.sleep(0.01)
                assert entered.is_set(), "the epoch never reached the repair"

                query = await service.submit(Request(op="query", session="s"))
                assert query.ok and query.status == "ok"
                fields = ("epoch", "fingerprint", "mis", "edges")
                assert [query.result[f] for f in fields] == [
                    committed[f] for f in fields
                ]
                assert loop_thread not in fingerprint_threads

                release.set()
                mutated = await asyncio.wait_for(mutate, timeout=30)
                assert mutated.ok
                assert mutated.result["epoch"] == committed["epoch"] + 1
                after = await service.submit(Request(op="query", session="s"))
                assert after.result["epoch"] == mutated.result["epoch"]
                assert after.result["fingerprint"] == mutated.result["fingerprint"]
                assert after.result["edges"] == committed["edges"] + 1
                assert loop_thread not in fingerprint_threads
            finally:
                release.set()
                await service.close()

        run(scenario())


class TestCommBudgetRegression:
    """The MPC runtime raises its budget error directly; the service
    wraps any such engine error (``TestHttpStatusMapping``)."""

    def test_comm_budget_error_raises_directly(self):
        import networkx as nx

        graph = nx.gnp_random_graph(40, 0.2, seed=1)
        with pytest.raises(CommBudgetExceededError):
            run_sharded(
                "metivier",
                graph,
                seed=0,
                budget=CommBudget(capacity=1, hard_capacity=1),
            )


class TestProbes:
    def test_health_ready_prometheus(self):
        async def scenario():
            service = make_service()
            try:
                await create_session(service)
                health = service.health()
                assert health["status"] == "ok"
                assert health["sessions"] == 1
                assert health["breakers"]["s"] == "closed"
                assert service.ready()
                text = service.prometheus()
                assert "repro_serve_requests_total 1" in text
                assert "repro_serve_ready 1" in text
                assert "# TYPE repro_serve_queue_depth gauge" in text
            finally:
                await service.close()

        run(scenario())


class TestHttpStatusMapping:
    def test_status_table_matches_error_classes(self):
        classes = [
            serve_errors.QueueFullError,
            serve_errors.DeadlineExceededError,
            serve_errors.CircuitOpenError,
            serve_errors.SessionNotFoundError,
            serve_errors.SessionExistsError,
            serve_errors.BadRequestError,
            serve_errors.EngineFailure,
        ]
        assert {cls.code for cls in classes} == set(_STATUS_BY_CODE)
        for cls in classes:
            assert _STATUS_BY_CODE[cls.code] == cls.http_status

    def test_wrap_engine_error_preserves_cause(self):
        cause = CommBudgetExceededError(
            shard=0, round_index=1, bytes_needed=10, limit=1
        )
        wrapped = serve_errors.wrap_engine_error(cause)
        assert wrapped.code == "engine-failed"
        assert wrapped.to_dict()["cause"] == "CommBudgetExceededError"
        assert wrapped.cause is cause
