"""Hierarchical span tracing on top of :class:`~repro.obs.session.ObsSession`.

A *span* is a named, nested wall+CPU interval — run → phase → round →
shard → kernel — with attachable integer/string counters (comm bytes,
message counts, CONGEST bits).  Spans ride the existing event stream as
``span`` events (:data:`~repro.obs.events.EVENT_SPAN`), so they inherit
the whole layer for free: JSONL persistence, sampling/backpressure,
``repro obs diff``, and the PR-3 determinism contract.  Same-seed runs
produce identical span trees after :func:`~repro.obs.events.
strip_timestamps` (ids come from a deterministic counter, never from a
clock), pinned tier-1.

Two producer modes:

* **Session mode** (``Tracer(session=...)``): each closed span is emitted
  immediately.  This is the coordinator/CLI side.
* **Collector mode** (``Tracer(collector=[])``): closed spans append to a
  plain ``list[dict]`` — JSON/pickle-safe, no session, no file handles —
  which is how perfbench's recorder and the perf gate's traced cells
  record spans without a session.

The hot-loop API is ``begin``/``end`` rather than a context manager so a
disabled tracer costs one ``is not None`` check and **zero allocations**
per round (pinned by a tracemalloc test); :meth:`Tracer.span` exists for
coarse spans where a ``with`` block reads better.

Span *names* are a closed taxonomy (the ``SPAN_*`` constants below),
validated statically by lint rule S5 exactly like obs event kinds.

Consumer side: :func:`build_span_tree` reconstructs the forest from a
recorded stream, :func:`chrome_trace` exports Chrome trace-event JSON
(load in Perfetto / ``chrome://tracing``), and :func:`render_top` prints
the self/total-time hot-spot table behind ``repro obs top``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.events import (
    EVENT_ASYNC_RUN_END,
    EVENT_PHASE_END,
    EVENT_RUN_END,
    EVENT_SPAN,
)

__all__ = [
    "Tracer",
    "OpenSpan",
    "SpanNode",
    "SPAN_NAMES",
    "build_span_tree",
    "chrome_trace",
    "aggregate_spans",
    "render_top",
    "render_span_tree",
    "run_wall_seconds",
    "SPAN_RUN",
    "SPAN_CONGEST_ROUND",
    "SPAN_CONGEST_STEPS",
    "SPAN_CONGEST_CODEC",
    "SPAN_BULK_ITERATION",
    "SPAN_KERNEL_DRAW",
    "SPAN_KERNEL_COMPETE",
    "SPAN_KERNEL_ELIMINATE",
    "SPAN_KERNEL_DEGREES",
    "SPAN_ARB_SCALE",
    "SPAN_MPC_ROUND",
    "SPAN_MPC_EXCHANGE",
    "SPAN_MPC_AUDIT",
    "SPAN_MPC_SHARD",
    "SPAN_MPC_KERNEL",
    "SPAN_SERVE_REQUEST",
    "SPAN_SERVE_EPOCH",
    "SPAN_SERVE_REPAIR",
    "SPAN_SERVE_RECOMPUTE",
]

# -- span-name taxonomy (closed set; lint rule S5 checks call sites) ----------

SPAN_RUN = "run"  # root: one whole algorithm/simulator run
SPAN_CONGEST_ROUND = "congest:round"  # one synchronous CONGEST round
SPAN_CONGEST_STEPS = "congest:steps"  # deliver inboxes + node on_round steps
SPAN_CONGEST_CODEC = "congest:codec"  # outbox collection + message metering
SPAN_BULK_ITERATION = "bulk:iteration"  # one bulk-engine elimination iteration
SPAN_KERNEL_DRAW = "kernel:draw"  # keyed priority/uniform draws
SPAN_KERNEL_COMPETE = "kernel:compete"  # masked neighborhood competition
SPAN_KERNEL_ELIMINATE = "kernel:eliminate"  # winner absorption + elimination
SPAN_KERNEL_DEGREES = "kernel:degrees"  # residual degree recount
SPAN_ARB_SCALE = "arb:scale"  # one Algorithm-1 degree scale
SPAN_MPC_ROUND = "mpc:round"  # one sharded-runtime round (coordinator)
SPAN_MPC_EXCHANGE = "mpc:exchange"  # metered coordinator->shard state push
SPAN_MPC_AUDIT = "mpc:audit"  # cross-shard winner audit
SPAN_MPC_SHARD = "mpc:shard"  # one shard's stage, retries included
SPAN_MPC_KERNEL = "mpc:kernel"  # one attempt of a shard's stage compute
SPAN_SERVE_REQUEST = "serve:request"  # one service request end to end
SPAN_SERVE_EPOCH = "serve:epoch"  # one coalesced mutation epoch (queue to commit)
SPAN_SERVE_REPAIR = "serve:repair"  # incremental update-repair pass
SPAN_SERVE_RECOMPUTE = "serve:recompute"  # full-recompute fallback

#: Every declared span name; ``repro obs top`` groups by these and lint
#: rule S5 rejects names outside this set.
SPAN_NAMES = frozenset(
    {
        SPAN_RUN,
        SPAN_CONGEST_ROUND,
        SPAN_CONGEST_STEPS,
        SPAN_CONGEST_CODEC,
        SPAN_BULK_ITERATION,
        SPAN_KERNEL_DRAW,
        SPAN_KERNEL_COMPETE,
        SPAN_KERNEL_ELIMINATE,
        SPAN_KERNEL_DEGREES,
        SPAN_ARB_SCALE,
        SPAN_MPC_ROUND,
        SPAN_MPC_EXCHANGE,
        SPAN_MPC_AUDIT,
        SPAN_MPC_SHARD,
        SPAN_MPC_KERNEL,
        SPAN_SERVE_REQUEST,
        SPAN_SERVE_EPOCH,
        SPAN_SERVE_REPAIR,
        SPAN_SERVE_RECOMPUTE,
    }
)

#: Structural keys of a span record; everything else is a counter.
_SPAN_META = frozenset(
    {"kind", "ts", "round", "node", "phase", "dur_s", "span", "parent", "depth",
     "start_s", "cpu_s", "name"}
)


class OpenSpan:
    """An in-flight span handle returned by :meth:`Tracer.begin`."""

    __slots__ = ("span_id", "parent_id", "depth", "name", "round", "start",
                 "cpu_start", "counters")

    def __init__(self, span_id, parent_id, depth, name, round_index, start, cpu_start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.name = name
        self.round = round_index
        self.start = start
        self.cpu_start = cpu_start
        self.counters: Optional[Dict[str, Any]] = None

    def add(self, **counters: Any) -> None:
        """Attach counters (comm bytes, message counts, ...) to this span."""
        if self.counters is None:
            self.counters = counters
        else:
            self.counters.update(counters)


class Tracer:
    """Records a tree of spans into a session or a local buffer.

    Exactly one of ``session``/``collector`` must be given.  Ids are
    assigned from a monotone counter in ``begin`` order, so same-seed
    runs produce identical trees (timing fields aside).  Span events are
    emitted when the span *closes*, i.e. children appear before their
    parent in the stream — reconstruction sorts by id.
    """

    def __init__(
        self,
        session: Optional[Any] = None,
        collector: Optional[List[Dict[str, Any]]] = None,
        clock: Optional[Callable[[], float]] = None,
        cpu_clock: Optional[Callable[[], float]] = None,
    ):
        if (session is None) == (collector is None):
            raise ValueError("Tracer needs exactly one of session= or collector=")
        self._session = session
        self._collector = collector
        if clock is None:
            clock = session.clock if session is not None else time.perf_counter
        self.clock = clock
        self.cpu_clock = cpu_clock or time.process_time
        self._epoch = self.clock()
        self._stack: List[OpenSpan] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, round: Optional[int] = None) -> OpenSpan:
        """Open a span nested under the currently open one."""
        stack = self._stack
        span = OpenSpan(
            self._next_id,
            stack[-1].span_id if stack else None,
            len(stack),
            name,
            round,
            self.clock(),
            self.cpu_clock(),
        )
        self._next_id += 1
        stack.append(span)
        return span

    def end(self, span: OpenSpan, **counters: Any) -> None:
        """Close ``span`` (and, defensively, any dangling children)."""
        if counters:
            span.add(**counters)
        now = self.clock()
        cpu_now = self.cpu_clock()
        stack = self._stack
        while stack:
            top = stack.pop()
            self._finalize(top, now - top.start, cpu_now - top.cpu_start)
            if top is span:
                return
        raise RuntimeError(f"span {span.name!r} is not open")

    @contextmanager
    def span(
        self, name: str, round: Optional[int] = None, **counters: Any
    ) -> Iterator[OpenSpan]:
        """``with``-style span for coarse, non-hot-loop scopes."""
        handle = self.begin(name, round=round)
        if counters:
            handle.add(**counters)
        try:
            yield handle
        finally:
            self.end(handle)

    def finish(self) -> None:
        """Close every span still open (crash/exception safety net)."""
        now = self.clock()
        cpu_now = self.cpu_clock()
        stack = self._stack
        while stack:
            top = stack.pop()
            self._finalize(top, now - top.start, cpu_now - top.cpu_start)

    def _finalize(self, span: OpenSpan, wall: float, cpu: float) -> None:
        counters = span.counters or {}
        if self._session is not None:
            self._session.emit(
                EVENT_SPAN,
                round=span.round,
                phase=span.name,
                dur_s=wall,
                span=span.span_id,
                parent=span.parent_id,
                depth=span.depth,
                start_s=span.start - self._epoch,
                cpu_s=cpu,
                **counters,
            )
        else:
            record = {
                "name": span.name,
                "round": span.round,
                "span": span.span_id,
                "parent": span.parent_id,
                "depth": span.depth,
                "dur_s": wall,
                "cpu_s": cpu,
            }
            record.update(counters)
            self._collector.append(record)


# -- reconstruction ----------------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span; ``children`` sorted by id."""

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    round: Optional[int]
    wall: float
    cpu: float
    start: float
    counters: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def self_wall(self) -> float:
        """Wall time not attributed to any direct child."""
        return max(0.0, self.wall - sum(c.wall for c in self.children))


def _span_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("kind") == EVENT_SPAN]


def build_span_tree(records: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Reconstruct the span forest (roots, children sorted by id)."""
    nodes: Dict[int, SpanNode] = {}
    for r in _span_records(records):
        node = SpanNode(
            name=str(r.get("phase", "?")),
            span_id=int(r.get("span", -1)),
            parent_id=r.get("parent"),
            depth=int(r.get("depth") or 0),
            round=r.get("round"),
            wall=float(r.get("dur_s") or 0.0),
            cpu=float(r.get("cpu_s") or 0.0),
            start=float(r.get("start_s") or 0.0),
            counters={k: v for k, v in r.items() if k not in _SPAN_META},
        )
        nodes[node.span_id] = node
    roots: List[SpanNode] = []
    for node in sorted(nodes.values(), key=lambda s: s.span_id):
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def run_wall_seconds(records: Iterable[Dict[str, Any]]) -> float:
    """Best-available total run wall time for coverage accounting.

    Prefers ``run-end``/``async-run-end`` durations, then the CLI's
    ``algorithm`` phase timer, then the traced roots themselves.
    """
    records = list(records)
    total = sum(
        float(r.get("dur_s") or 0.0)
        for r in records
        if r.get("kind") in (EVENT_RUN_END, EVENT_ASYNC_RUN_END)
    )
    if total > 0.0:
        return total
    total = sum(
        float(r.get("dur_s") or 0.0)
        for r in records
        if r.get("kind") == EVENT_PHASE_END and r.get("phase") == "algorithm"
    )
    if total > 0.0:
        return total
    return sum(root.wall for root in build_span_tree(records))


def chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete ``"X"`` events, microseconds).

    Load the dumped object in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.  Worker-side MPC spans carry a ``shard``
    counter and are placed on thread ``shard + 1`` so per-shard
    timelines render as separate tracks; everything else is track 0.
    """
    events: List[Dict[str, Any]] = []
    for r in sorted(_span_records(records), key=lambda r: int(r.get("span", -1))):
        shard = r.get("shard")
        tid = int(shard) + 1 if isinstance(shard, int) else 0
        args = {
            k: v
            for k, v in r.items()
            if k not in ("kind", "ts", "phase", "dur_s", "start_s", "cpu_s", "node")
            and v is not None
        }
        events.append(
            {
                "name": str(r.get("phase", "?")),
                "cat": "repro",
                "ph": "X",
                "ts": round(float(r.get("start_s") or 0.0) * 1e6, 3),
                "dur": round(float(r.get("dur_s") or 0.0) * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass
class SpanStat:
    """Aggregate over every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    cpu: float = 0.0


def aggregate_spans(
    records: Iterable[Dict[str, Any]],
) -> Tuple[List[SpanStat], float, float]:
    """Per-name stats plus (attributed, run-wall) coverage inputs.

    Returns stats sorted by descending self time; *attributed* is the
    summed wall of the root spans (what tracing accounts for), measured
    against :func:`run_wall_seconds`.
    """
    records = list(records)
    roots = build_span_tree(records)
    stats: Dict[str, SpanStat] = {}

    def visit(node: SpanNode) -> None:
        stat = stats.setdefault(node.name, SpanStat(node.name))
        stat.count += 1
        stat.total += node.wall
        stat.self_total += node.self_wall
        stat.cpu += node.cpu
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    attributed = sum(root.wall for root in roots)
    ordered = sorted(stats.values(), key=lambda s: (-s.self_total, s.name))
    return ordered, attributed, run_wall_seconds(records)


def render_top(records: Iterable[Dict[str, Any]], limit: int = 15) -> str:
    """The ``repro obs top`` table: self/total time per span name."""
    stats, attributed, wall = aggregate_spans(records)
    if not stats:
        return "no span events (run with --trace or REPRO_OBS_TRACE=1)"
    lines = [
        f"{'span':<22} {'count':>7} {'self_s':>9} {'total_s':>9} {'cpu_s':>9}  self%"
    ]
    denom = attributed or 1.0
    for stat in stats[: max(1, limit)]:
        lines.append(
            f"{stat.name:<22} {stat.count:>7} {stat.self_total:>9.4f} "
            f"{stat.total:>9.4f} {stat.cpu:>9.4f}  {100.0 * stat.self_total / denom:5.1f}"
        )
    coverage = 100.0 * attributed / wall if wall > 0 else 100.0
    lines.append(
        f"spans attribute {attributed:.4f}s of {wall:.4f}s run wall "
        f"({min(coverage, 100.0):.1f}% coverage)"
    )
    return "\n".join(lines)


def render_span_tree(
    records: Iterable[Dict[str, Any]], max_spans: int = 200
) -> str:
    """Indented text rendering of the span forest (debug/`--format tree`)."""
    roots = build_span_tree(records)
    lines: List[str] = []

    def visit(node: SpanNode) -> None:
        if len(lines) >= max_spans:
            return
        extra = f" r{node.round}" if node.round is not None else ""
        counters = " ".join(f"{k}={v}" for k, v in sorted(node.counters.items()))
        lines.append(
            f"{'  ' * node.depth}{node.name}{extra} "
            f"wall={node.wall:.4f}s cpu={node.cpu:.4f}s"
            + (f" {counters}" if counters else "")
        )
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    if not lines:
        return "no span events (run with --trace or REPRO_OBS_TRACE=1)"
    total = sum(1 for _ in roots)
    if len(lines) >= max_spans:
        lines.append(f"... truncated at {max_spans} spans ({total} roots)")
    return "\n".join(lines)
