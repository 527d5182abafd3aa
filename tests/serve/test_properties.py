"""Property-based tests for the serving layer (Hypothesis).

Two properties the whole design leans on:

* **History independence** — for any mutation sequence, the committed
  MIS after every epoch is the greedy MIS of the session's priority
  order π on the committed graph: whether repair or recompute produced
  it, however the mutations were batched, and after failed or aborted
  epochs alike.
* **Same-seed determinism** — driving the same seeded workload twice in
  lockstep produces identical obs event streams up to timestamps.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.mis.greedy import greedy_mis
from repro.mis.validation import assert_valid_mis
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession
from repro.obs.sinks import MemorySink
from repro.obs.summary import diff_streams
from repro.serve.errors import BadRequestError
from repro.serve.incremental import ComputeAborted, GraphSession, Mutation, priority
from repro.serve.loadgen import LoadGenConfig, drive
from repro.serve.server import MISService, ServeConfig

pytestmark = pytest.mark.property

_NODES = 12

_raw_mutation = st.tuples(
    st.sampled_from(["add-edge", "remove-edge", "add-node", "remove-node"]),
    st.integers(0, _NODES - 1),
    st.integers(0, _NODES - 1),
)

_batches = st.lists(
    st.lists(_raw_mutation, min_size=1, max_size=5), min_size=1, max_size=6
)


def _materialize(raw_batches):
    """Raw draws → Mutation batches (self-loop edge draws become no-ops)."""
    batches = []
    for raw in raw_batches:
        batch = []
        for op, u, v in raw:
            if op in ("add-edge", "remove-edge"):
                if u == v:
                    continue
                batch.append(Mutation(op, u, v))
            else:
                batch.append(Mutation(op, u))
        if batch:
            batches.append(batch)
    return batches


def _oracle(session):
    """The greedy MIS of the session's graph in descending π."""
    graph = session.graph
    order = sorted(graph, key=lambda v: priority(session.seed, v), reverse=True)
    return frozenset(greedy_mis(graph, order))


def _self_loop(u):
    """A Mutation that fails at apply time (parse-time check bypassed)."""
    m = object.__new__(Mutation)
    for name, value in (("op", "add-edge"), ("u", u), ("v", u)):
        object.__setattr__(m, name, value)
    return m


class TestValidityUnderChurn:
    @settings(max_examples=30, deadline=None)
    @given(raw=_batches, seed=st.integers(0, 2**16))
    def test_repair_and_recompute_both_valid(self, raw, seed):
        batches = _materialize(raw)
        # repair_damage_cap=1.0 never falls back; cap=0.0 always does.
        repairing = GraphSession("r", seed=seed, repair_damage_cap=1.0)
        recomputing = GraphSession("c", seed=seed, repair_damage_cap=0.0)
        for batch in batches:
            repairing.apply_epoch(list(batch))
            recomputing.apply_epoch(list(batch))
            # Identical graphs regardless of how the MIS was maintained ...
            assert repairing.fingerprint == recomputing.fingerprint
            # ... and the same MIS: the oracle's.
            assert repairing.mis == recomputing.mis == _oracle(repairing)
            assert_valid_mis(repairing.graph, set(repairing.mis))

    @settings(max_examples=20, deadline=None)
    @given(raw=_batches, seed=st.integers(0, 2**16))
    def test_ladder_mix_stays_valid(self, raw, seed):
        session = GraphSession("m", seed=seed, repair_damage_cap=0.4)
        for batch in _materialize(raw):
            report = session.apply_epoch(list(batch))
            assert report.mode in ("repair", "recompute")
            assert session.mis == _oracle(session)

    @settings(max_examples=20, deadline=None)
    @given(raw=_batches, seed=st.integers(0, 2**16))
    def test_one_batch_and_one_per_epoch_end_on_the_same_mis(self, raw, seed):
        batches = _materialize(raw)
        coalesced = GraphSession("b", seed=seed)
        stepped = GraphSession("e", seed=seed)
        coalesced.apply_epoch([m for batch in batches for m in batch])
        for mutation in itertools.chain.from_iterable(batches):
            stepped.apply_epoch([mutation])
        assert coalesced.fingerprint == stepped.fingerprint
        assert coalesced.mis == stepped.mis == _oracle(stepped)

    @settings(max_examples=20, deadline=None)
    @given(
        raw=_batches,
        seed=st.integers(0, 2**16),
        failures=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    )
    def test_failed_and_aborted_epochs_restore_the_oracle(self, raw, seed, failures):
        # Before each committed batch, one epoch fails: it aborts at
        # probe 0-2 (before the repair or between waves), or a
        # self-loop fails it part-way through applying the batch.
        session = GraphSession("f", seed=seed)
        for batch, failure in zip(_materialize(raw), failures):
            committed = (session.fingerprint, session.mis, session.epoch)
            probes = itertools.count()
            try:
                if failure == 3:
                    session.apply_epoch(list(batch) + [_self_loop(0)])
                else:
                    session.apply_epoch(
                        list(batch),
                        should_abort=lambda: next(probes) >= failure,
                    )
            except (ComputeAborted, BadRequestError):
                assert (session.fingerprint, session.mis, session.epoch) == committed
            assert session.mis == _oracle(session)
            session.apply_epoch(list(batch))
            assert session.mis == _oracle(session)


def _drive_once(seed: int):
    """One lockstep drive against a fresh service; returns event dicts."""
    sink = MemorySink()
    manifest = RunManifest(run_id="prop", kind="test", created_at="t")
    obs = ObsSession("unused", manifest, sink)

    async def scenario():
        service = MISService(
            ServeConfig(retries=0, backoff_base=0.0), obs=obs
        )
        try:
            config = LoadGenConfig(seed=seed, nodes=24, epochs=5, churn=3)
            report = await drive(service, config)
            assert report.unhandled == 0
            return report.to_dict()
        finally:
            await service.close()

    report = asyncio.run(scenario())
    return report, [event.to_dict() for event in sink.events]


class TestSameSeedDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_obs_streams_identical_up_to_timestamps(self, seed):
        report_a, events_a = _drive_once(seed)
        report_b, events_b = _drive_once(seed)
        assert report_a == report_b
        assert events_a, "drive should emit obs events"
        diff = diff_streams(events_a, events_b)
        assert diff.identical, diff.differences[:5]
