"""Tests for the span-tracing layer: recording, collector mode,
reconstruction/exports, and the determinism + zero-overhead contracts."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.graphs.csr import csr_bounded_arboricity
from repro.mis.bulk import metivier_mis_bulk
from repro.mpc import run_sharded
from repro.obs.events import EVENT_SPAN, strip_timestamps
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession
from repro.obs.sinks import MemorySink
from repro.obs.summary import summarize_events
from repro.obs.trace import (
    SPAN_BULK_ITERATION,
    SPAN_KERNEL_COMPETE,
    SPAN_MPC_KERNEL,
    SPAN_NAMES,
    SPAN_RUN,
    Tracer,
    aggregate_spans,
    build_span_tree,
    chrome_trace,
    render_span_tree,
    render_top,
    run_wall_seconds,
)


def memory_session():
    manifest = RunManifest(run_id="t", kind="test", created_at="t")
    return ObsSession("unused", manifest, MemorySink())


def traced_session():
    session = memory_session()
    session.enable_tracing()
    return session


def span_records(session):
    return [
        e.to_dict() for e in session.sink.events if e.kind == EVENT_SPAN
    ]


class TestTracerRecording:
    def test_ids_depths_and_parents(self):
        session = traced_session()
        t = session.tracer
        run = t.begin(SPAN_RUN)
        it = t.begin(SPAN_BULK_ITERATION, round=0)
        kernel = t.begin(SPAN_KERNEL_COMPETE, round=0)
        t.end(kernel)
        t.end(it)
        t.end(run)
        records = span_records(session)
        # Children close (and emit) before parents; ids follow begin order.
        assert [r["span"] for r in records] == [2, 1, 0]
        by_id = {r["span"]: r for r in records}
        assert by_id[0]["parent"] is None and by_id[0]["depth"] == 0
        assert by_id[1]["parent"] == 0 and by_id[1]["depth"] == 1
        assert by_id[2]["parent"] == 1 and by_id[2]["depth"] == 2
        assert by_id[1]["round"] == 0

    def test_counters_via_end_and_add(self):
        session = traced_session()
        t = session.tracer
        span = t.begin(SPAN_RUN)
        span.add(bits=7)
        t.end(span, messages=3)
        (record,) = span_records(session)
        assert record["bits"] == 7 and record["messages"] == 3

    def test_span_contextmanager(self):
        session = traced_session()
        with session.tracer.span(SPAN_RUN, rounds=2):
            pass
        (record,) = span_records(session)
        assert record["phase"] == SPAN_RUN and record["rounds"] == 2

    def test_end_closes_dangling_children(self):
        session = traced_session()
        t = session.tracer
        run = t.begin(SPAN_RUN)
        t.begin(SPAN_BULK_ITERATION)  # never explicitly ended
        t.end(run)
        assert len(span_records(session)) == 2

    def test_end_of_unopened_span_raises(self):
        session = traced_session()
        t = session.tracer
        span = t.begin(SPAN_RUN)
        t.end(span)
        with pytest.raises(RuntimeError):
            t.end(span)

    def test_session_finish_closes_open_spans(self):
        session = traced_session()
        session.tracer.begin(SPAN_RUN)
        session.finish()
        assert len(span_records(session)) == 1

    def test_exactly_one_backend_required(self):
        with pytest.raises(ValueError):
            Tracer()
        with pytest.raises(ValueError):
            Tracer(session=memory_session(), collector=[])


class TestCollectorAndMerge:
    def test_collector_records_are_plain_dicts(self):
        buffer = []
        t = Tracer(collector=buffer)
        span = t.begin(SPAN_MPC_KERNEL, round=4)
        t.end(span, shard=2, rows=10)
        (record,) = buffer
        assert record["name"] == SPAN_MPC_KERNEL
        assert record["round"] == 4 and record["shard"] == 2
        assert type(record) is dict


class TestDeterminism:
    def test_same_seed_bulk_span_streams_identical(self):
        csr = csr_bounded_arboricity(500, 2, seed=0)
        streams = []
        for _ in range(2):
            session = traced_session()
            metivier_mis_bulk(csr, seed=7, tracer=session.tracer)
            session.finish()
            streams.append(strip_timestamps(span_records(session)))
        assert streams[0] == streams[1]
        assert streams[0]  # non-empty

    def test_mpc_span_streams_identical_same_seed(self):
        csr = csr_bounded_arboricity(300, 2, seed=0)
        for shards in (1, 4):
            streams = []
            results = []
            for _ in range(2):
                session = traced_session()
                results.append(
                    run_sharded("metivier", csr, seed=3, shards=shards, obs=session)
                )
                session.finish()
                streams.append(
                    strip_timestamps([e.to_dict() for e in session.sink.events])
                )
            assert results[0].mis == results[1].mis
            assert streams[0] == streams[1], shards
            kernels = [
                r
                for r in streams[0]
                if r["kind"] == EVENT_SPAN and r["phase"] == SPAN_MPC_KERNEL
            ]
            assert {r["shard"] for r in kernels} == set(range(shards))

    def test_all_recorded_names_are_taxonomy_members(self):
        csr = csr_bounded_arboricity(300, 2, seed=0)
        session = traced_session()
        metivier_mis_bulk(csr, seed=0, tracer=session.tracer)
        run_sharded("metivier", csr, seed=0, shards=2, workers=0, obs=session)
        names = {r["phase"] for r in span_records(session)}
        assert names and names <= SPAN_NAMES


class TestDisabledPath:
    def test_untraced_session_records_no_span_events(self):
        csr = csr_bounded_arboricity(300, 2, seed=0)
        session = memory_session()  # tracing not enabled
        run_sharded("metivier", csr, seed=0, shards=2, workers=0, obs=session)
        assert span_records(session) == []

    def test_disabled_tracing_allocates_nothing_in_trace_module(self):
        import repro.obs.trace as trace_module

        csr = csr_bounded_arboricity(300, 2, seed=0)
        metivier_mis_bulk(csr, seed=0, tracer=None)  # warm every code path
        tracemalloc.start()
        try:
            metivier_mis_bulk(csr, seed=0, tracer=None)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        trace_file = trace_module.__file__
        allocations = snapshot.filter_traces(
            [tracemalloc.Filter(True, trace_file)]
        )
        assert sum(s.size for s in allocations.statistics("filename")) == 0


class TestReconstruction:
    def _traced_stream(self, n=400):
        csr = csr_bounded_arboricity(n, 2, seed=0)
        session = traced_session()
        metivier_mis_bulk(csr, seed=0, tracer=session.tracer)
        session.finish()
        return [e.to_dict() for e in session.sink.events]

    def test_build_span_tree_shape(self):
        records = self._traced_stream()
        roots = build_span_tree(records)
        assert len(roots) == 1 and roots[0].name == SPAN_RUN
        assert all(
            c.name == SPAN_BULK_ITERATION for c in roots[0].children
        )
        assert roots[0].wall >= max(c.wall for c in roots[0].children)

    def test_chrome_trace_valid_complete_events(self):
        records = self._traced_stream()
        doc = chrome_trace(records)
        events = doc["traceEvents"]
        assert events and doc["displayTimeUnit"] == "ms"
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "dur_s" not in event["args"]  # timing lives in ts/dur

    def test_chrome_trace_places_shards_on_own_tracks(self):
        records = [
            {"kind": EVENT_SPAN, "phase": SPAN_MPC_KERNEL, "span": 0,
             "parent": None, "depth": 0, "dur_s": 0.5, "start_s": 0.0,
             "cpu_s": 0.1, "shard": 3},
        ]
        (event,) = chrome_trace(records)["traceEvents"]
        assert event["tid"] == 4 and event["args"]["shard"] == 3

    def test_run_wall_prefers_run_end_then_phase_then_roots(self):
        span = {"kind": EVENT_SPAN, "phase": SPAN_RUN, "span": 0,
                "parent": None, "depth": 0, "dur_s": 1.0, "start_s": 0.0}
        assert run_wall_seconds(
            [span, {"kind": "run-end", "dur_s": 4.0}]
        ) == 4.0
        assert run_wall_seconds(
            [span, {"kind": "phase-end", "phase": "algorithm", "dur_s": 3.0}]
        ) == 3.0
        assert run_wall_seconds([span]) == 1.0

    def test_top_table_and_coverage(self):
        records = self._traced_stream()
        stats, attributed, wall = aggregate_spans(records)
        assert attributed > 0 and attributed <= wall + 1e-9
        text = render_top(records)
        assert SPAN_BULK_ITERATION in text
        assert "coverage" in text

    def test_top_and_tree_without_spans(self):
        assert "no span events" in render_top([])
        assert "no span events" in render_span_tree([])

    def test_render_span_tree_truncates(self):
        records = self._traced_stream()
        text = render_span_tree(records, max_spans=2)
        assert "truncated" in text


class TestMpcShardSeconds:
    def test_round_events_carry_per_shard_wall(self):
        csr = csr_bounded_arboricity(300, 2, seed=0)
        session = traced_session()
        run_sharded("metivier", csr, seed=0, shards=3, workers=0, obs=session)
        session.finish()
        records = [e.to_dict() for e in session.sink.events]
        rounds = [r for r in records if r["kind"] == "mpc-round"]
        assert rounds
        for record in rounds:
            assert set(record["shard_seconds"]) == {"0", "1", "2"}
            assert all(v >= 0 for v in record["shard_seconds"].values())
        summary = summarize_events(records)
        assert set(summary.mpc_shard_seconds) == {"0", "1", "2"}
        assert "shard wall" in summary.render()
        # Per-shard walls are timing: strip_timestamps must drop them so
        # same-seed streams stay comparable.
        stripped = strip_timestamps(records)
        assert all("shard_seconds" not in r for r in stripped)

    def test_untraced_round_events_have_no_shard_seconds(self):
        csr = csr_bounded_arboricity(300, 2, seed=0)
        session = memory_session()
        run_sharded("metivier", csr, seed=0, shards=2, workers=0, obs=session)
        records = [e.to_dict() for e in session.sink.events]
        rounds = [r for r in records if r["kind"] == "mpc-round"]
        assert rounds
        assert all("shard_seconds" not in r for r in rounds)
