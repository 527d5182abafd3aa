"""Shared pieces of the benchmark: metric catalogue, outcome, statistics, tracing.

Import it with the checkout's ``src/`` on ``sys.path`` (``run.py`` puts it
there).  Everything here is benchmark-side.  The program under test is driven only
through its public entry points; the traced run records spans from the
outside with collector-mode :class:`repro.obs.trace.Tracer` objects and by
swapping module attributes for timed wrappers, which it puts back when the
traced window closes.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AlgorithmError
from repro.mis.validation import assert_valid_mis
from repro.obs.events import EVENT_SPAN
from repro.obs.trace import SpanNode, SpanStat, Tracer, aggregate_spans, build_span_tree

#: End-to-end metrics, printed by every untraced run.  Each is defined for
#: every workload (README.md says what it means on each), because every run
#: reports every end-to-end metric.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_per_op": "rounds",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "graphs_per_s": "graphs/s",
}

#: Algorithms whose scalar engine some workload runs.
SCALAR_ALGORITHMS = ("metivier", "luby-a", "luby-b", "ghaffari")

#: Per-layer metrics, printed by every traced run.  A layer a workload does
#: not exercise reads 0 there.
PER_LAYER: Dict[str, str] = {
    "serve.server.queue_wait_ms_p50": "ms",
    "serve.server.epochs_per_mutate": "ratio",
    "serve.server.cache_hit_share": "ratio",
    "serve.server.rejected": "count",
    "serve.server.shed": "count",
    "serve.server.retries": "count",
    "serve.server.query_p50_ms": "ms",
    "serve.server.query_p90_ms": "ms",
    "serve.incremental.epoch_ms_p50": "ms",
    "serve.incremental.apply_ms_p50": "ms",
    "serve.incremental.repair_ms_p50": "ms",
    "serve.incremental.validate_ms_p50": "ms",
    "serve.incremental.fingerprint_ms_p50": "ms",
    "serve.incremental.fingerprint_calls_per_epoch": "count",
    "serve.incremental.fingerprint_calls_off_epoch_thread": "count",
    "serve.incremental.snapshot_ms_p50": "ms",
    "serve.incremental.snapshot_calls_per_epoch": "count",
    "serve.incremental.snapshot_calls_off_epoch_thread": "count",
    "serve.incremental.damaged_per_epoch": "nodes",
    "serve.incremental.recompute_share": "ratio",
    "serve.incremental.self_s": "s",
    **{f"mis.scalar_s.{name}": "s" for name in SCALAR_ALGORITHMS},
    "mis.scalar_ms_per_call": "ms",
    "mis.self_s": "s",
    "graphs.csr.convert_s": "s",
    "mis.bulk.kernel_s": "s",
    "mis.bulk.ms_per_call": "ms",
    "mis.bulk.self_s": "s",
    "core.degree_reduction_s": "s",
    "core.shattering_s": "s",
    "core.finishing_s": "s",
    "core.self_s": "s",
    "mpc.ms_per_call": "ms",
    "mpc.exchange_s": "s",
    "mpc.audit_s": "s",
    "mpc.comm_bytes": "bytes",
    "mpc.self_s": "s",
    "congest.ms_per_call": "ms",
    "congest.steps_s": "s",
    "congest.codec_s": "s",
    "congest.messages_per_run": "count",
    "congest.bits_per_run": "bits",
    "congest.self_s": "s",
    "mis.validation.ms_per_call": "ms",
    "mis.validation.self_s": "s",
    "graphs.generators.s": "s",
    "obs.trace.overhead_share": "ratio",
    "obs.trace.wall_s": "s",
    "obs.trace.uncovered_s": "s",
    "obs.trace.uncovered_share": "ratio",
}

#: Set-up is repeated this many times in an untraced run; ``setup_s`` is
#: the median.
SETUP_REPEATS = 3


class CheckFailed(Exception):
    """An output the benchmark checked was wrong."""


@dataclass
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Set by ``--inject-fault``: the next MIS check sees a corrupted set.
    corrupt_next_check: bool = False

    def record(self, ok: bool, what: str) -> None:
        """Count one attempted operation; keep the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                self.notes.append(f"FAILED: {what}")

    def check_mis(self, graph, mis) -> bool:
        """``assert_valid_mis`` as a boolean, honouring fault injection."""
        if self.corrupt_next_check and mis:
            self.corrupt_next_check = False
            mis = set(mis) - {min(mis)}
        try:
            assert_valid_mis(graph, set(mis))
        except AlgorithmError as exc:
            self.notes.append(f"invalid MIS: {type(exc).__name__}: {exc}")
            return False
        return True


# -- statistics -----------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, interpolated between samples (never beyond the max)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mis_digest(mis: Iterable[int]) -> str:
    """Order-independent identity of an MIS, cheap to store per epoch."""
    return hashlib.blake2b(repr(sorted(mis)).encode(), digest_size=16).hexdigest()


def timed_setup(build: Callable[[], object], repeats: int) -> Tuple[object, List[float]]:
    """Run ``build`` ``repeats`` times; return the last result and each time."""
    times = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous inputs go before building again
        started = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - started)
    return result, times


def rounds_of(result) -> int:
    """CONGEST rounds of one solve: measured when the engine has them."""
    if result.congest_rounds is not None:
        return int(result.congest_rounds)
    return 3 * int(result.iterations)


def solve_checked(outcome: Outcome, recorder: Optional["Recorder"], span_name: str, call, graph):
    """Run one solve and validate its MIS; returns ``(result, valid)``."""
    with span(recorder, span_name):
        result = call()
    with span(recorder, "mis.validation|check"):
        valid = outcome.check_mis(graph, result.mis)
    return result, valid


# -- tracing --------------------------------------------------------------


def span(recorder: Optional["Recorder"], name: str):
    """``recorder.span(name)``, or nothing when the run is untraced."""
    return recorder.span(name) if recorder is not None else nullcontext()


def thread_role() -> str:
    """``main`` for the main thread (the asyncio loop), ``worker`` otherwise."""
    return "main" if threading.current_thread() is threading.main_thread() else "worker"


#: Program span-name prefixes and the layer their self time belongs to.
#: Benchmark spans are named ``<layer>|<detail>``; the program's ``run``
#: root spans take the layer of the benchmark span around them.
_PROGRAM_LAYERS = (
    ("kernel:", "mis.bulk"),
    ("bulk:", "mis.bulk"),
    ("congest:", "congest"),
    ("mpc:", "mpc"),
    ("arb:", "core"),
    ("serve:epoch", "serve.server"),
    ("serve:", "serve.incremental"),
)


class Recorder:
    """Spans of one traced window, kept in memory until it closes.

    One collector-mode ``Tracer`` per thread role, because a tracer keeps
    one span stack and the serve workload computes epochs on an executor
    thread while the asyncio loop thread answers queries.  The service
    serialises traced epochs, so one ``worker`` tracer suffices.
    """

    def __init__(self) -> None:
        self.records: Dict[str, List[dict]] = {}
        self._tracers: Dict[str, Tracer] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (span name, thread role) -> calls.
        self.calls: Counter = Counter()
        #: Wall intervals of outermost benchmark spans, for coverage.
        self.intervals: List[Tuple[float, float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def tracer(self, role: Optional[str] = None) -> Tracer:
        role = role or thread_role()
        with self._lock:
            if role not in self._tracers:
                self.records[role] = []
                self._tracers[role] = Tracer(collector=self.records[role])
            return self._tracers[role]

    @contextmanager
    def span(self, name: str) -> Iterator[object]:
        """A benchmark span named ``<layer>|<detail>`` on this thread's tracer."""
        role = thread_role()
        tracer = self.tracer(role)
        local = self._local
        depth = getattr(local, "depth", 0)
        local.depth = depth + 1
        started = time.perf_counter()
        handle = tracer.begin(name)
        try:
            yield handle
        finally:
            tracer.end(handle)
            ended = time.perf_counter()
            local.depth = depth
            bucket = getattr(local, "bucket", None)
            if bucket is not None:
                bucket[name] += ended - started
            with self._lock:
                self.calls[name, role] += 1
                if depth == 0:
                    self.intervals.append((started, ended))

    @contextmanager
    def bucket(self) -> Iterator[Dict[str, float]]:
        """Sum, per span name, the benchmark spans this thread closes inside the block."""
        self._local.bucket = totals = defaultdict(float)
        try:
            yield totals
        finally:
            self._local.bucket = None

    def replace(self, owner, attr: str, replacement) -> None:
        """Swap ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as benchmark span ``name``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.replace(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def covered_s(self) -> float:
        """Wall time inside at least one outermost benchmark span."""
        covered = 0.0
        end = float("-inf")
        for lo, hi in sorted(self.intervals):
            if hi <= end:
                continue
            covered += hi - max(lo, end)
            end = hi
        return covered

    def span_stats(self) -> Tuple[Dict[str, SpanStat], Dict[str, float]]:
        """Per-name stats and per-layer self time over every thread."""
        by_name: Dict[str, SpanStat] = {}
        by_layer: Dict[str, float] = defaultdict(float)

        def visit(node: SpanNode, layer: str) -> None:
            layer = _layer_of(node.name, layer)
            by_layer[layer] += node.self_wall
            for child in node.children:
                visit(child, layer)

        for records in self.records.values():
            # Collector records lack the event fields the stream readers key on.
            spans = [{**r, "kind": EVENT_SPAN, "phase": r["name"]} for r in records]
            for stat in aggregate_spans(spans)[0]:
                total = by_name.setdefault(stat.name, SpanStat(stat.name))
                total.count += stat.count
                total.total += stat.total
                total.self_total += stat.self_total
            for root in build_span_tree(spans):
                visit(root, "unattributed")
        return by_name, by_layer


def _layer_of(name: str, parent_layer: str) -> str:
    """The layer a span's self time belongs to."""
    if "|" in name:
        return name.split("|", 1)[0]
    return next((layer for prefix, layer in _PROGRAM_LAYERS if name.startswith(prefix)),
                parent_layer)


def layer_metrics(recorder: Recorder, wall_s: float, overhead_share: float) -> Dict[str, float]:
    """The per-layer metrics every workload derives the same way from spans."""
    by_name, by_layer = recorder.span_stats()

    def self_sum(match: Callable[[str], bool]) -> float:
        return sum(s.self_total for n, s in by_name.items() if match(n))

    def ms_per_call(layer: str) -> float:
        stats = [s for n, s in by_name.items() if n.startswith(layer + "|")]
        calls = sum(s.count for s in stats)
        return 1e3 * sum(s.total for s in stats) / calls if calls else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in SCALAR_ALGORITHMS:
        metrics[f"mis.scalar_s.{name}"] = self_sum(lambda n, a=name: n == f"mis|{a}")
    covered = recorder.covered_s()
    metrics.update(
        {
            "serve.incremental.self_s": by_layer.get("serve.incremental", 0.0),
            "mis.scalar_ms_per_call": ms_per_call("mis"),
            "mis.self_s": by_layer.get("mis", 0.0),
            "graphs.csr.convert_s": by_layer.get("graphs.csr", 0.0),
            "mis.bulk.kernel_s": self_sum(lambda n: n.startswith("kernel:")),
            "mis.bulk.ms_per_call": ms_per_call("mis.bulk"),
            "mis.bulk.self_s": by_layer.get("mis.bulk", 0.0),
            "core.degree_reduction_s": self_sum(lambda n: n == "core|degree-reduction"),
            "core.shattering_s": self_sum(lambda n: n == "core|shattering"),
            "core.finishing_s": self_sum(lambda n: n == "core|finishing"),
            "core.self_s": by_layer.get("core", 0.0),
            "mpc.ms_per_call": ms_per_call("mpc"),
            "mpc.exchange_s": self_sum(lambda n: n == "mpc:exchange"),
            "mpc.audit_s": self_sum(lambda n: n == "mpc:audit"),
            "mpc.self_s": by_layer.get("mpc", 0.0),
            "congest.ms_per_call": ms_per_call("congest"),
            "congest.steps_s": self_sum(lambda n: n == "congest:steps"),
            "congest.codec_s": self_sum(lambda n: n == "congest:codec"),
            "congest.self_s": by_layer.get("congest", 0.0),
            "mis.validation.ms_per_call": ms_per_call("mis.validation"),
            "mis.validation.self_s": by_layer.get("mis.validation", 0.0),
            "obs.trace.overhead_share": overhead_share,
            "obs.trace.wall_s": wall_s,
            "obs.trace.uncovered_s": max(0.0, wall_s - covered),
            "obs.trace.uncovered_share": max(0.0, wall_s - covered) / wall_s if wall_s else 0.0,
        }
    )
    return metrics


def top_lines(recorder: Recorder, limit: int = 12) -> List[str]:
    """A short self-time table for the human-readable part of the output."""
    by_name, by_layer = recorder.span_stats()
    lines = ["self time by layer:"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<22} {seconds:9.3f} s")
    lines.append("self time by span:")
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1].self_total)[:limit]
    for name, stat in ranked:
        lines.append(f"  {name:<36} {stat.self_total:9.3f} s  {stat.count:7d} spans")
    return lines
