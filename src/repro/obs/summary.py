"""Reconstruct run metrics from recorded event streams.

This is the read side of the telemetry layer: given the JSONL stream(s) a
past run left behind, rebuild the numbers the run itself computed —
total rounds, messages, bits, the largest message, per-phase wall time —
without re-executing anything.  ``repro obs summary``/``diff`` and the
Prometheus exporter are thin wrappers over this module.

Totals never double count: a stream that contains both per-round events
and their ``run-end`` aggregate contributes the aggregate (per-round
events may be sampled away; ``run-end`` is authoritative), and a stream
with only per-round events is summed directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.events import (
    EVENT_ASYNC_RUN_END,
    EVENT_FAULT,
    EVENT_MPC_ROUND,
    EVENT_MPC_RUN_END,
    EVENT_PHASE_END,
    EVENT_ROUND,
    EVENT_RUN_END,
    EVENT_RUN_START,
    EVENT_SERVE_EPOCH,
    EVENT_SERVE_REQUEST,
    EVENT_SERVE_RETRY,
    EVENT_SPAN,
    EVENT_START_ROUND,
    EVENT_SWEEP_POINT,
    strip_timestamps,
)
from repro.obs.session import EVENTS_FILENAME

__all__ = [
    "ObsSummary",
    "read_events",
    "resolve_streams",
    "summarize_events",
    "summarize_paths",
    "diff_streams",
    "StreamDiff",
]

PathLike = Union[str, Path]


@dataclass
class ObsSummary:
    """Aggregate view of one or more event streams."""

    events: int = 0
    runs: int = 0
    total_rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    sweep_points: int = 0
    sweep_cached: int = 0
    pulses: int = 0
    async_events_processed: int = 0
    #: Total injected message faults (run-end aggregate preferred) and the
    #: per-kind breakdown from individual ``fault`` events (which may be
    #: sampled, so the breakdown can undercount while the total is exact).
    faults_injected: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Sharded (MPC) runtime aggregates, from ``mpc-run-end`` events only —
    #: per-round ``mpc-round`` events may be sampled, the aggregate is
    #: authoritative (same rule as run-end vs round).
    mpc_runs: int = 0
    mpc_comm_bytes: int = 0
    mpc_sparsified_rounds: int = 0
    #: Per-shard kernel wall seconds from ``mpc-round`` ``shard_seconds``
    #: maps (present only on traced runs; per-round events may be sampled,
    #: so these are lower bounds, like ``fault_counts``).
    mpc_shard_seconds: Dict[str, float] = field(default_factory=dict)
    #: Span aggregates from ``span`` events: wall/CPU seconds and counts
    #: keyed by span name (only traced runs emit them).
    span_seconds: Dict[str, float] = field(default_factory=dict)
    span_cpu_seconds: Dict[str, float] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    #: Serving-layer aggregates from ``serve-*`` events: completed
    #: requests by final status, epochs by mode (repair vs recompute)
    #: with their CONGEST-round costs, and retries.
    serve_requests: int = 0
    serve_status_counts: Dict[str, int] = field(default_factory=dict)
    serve_epochs: Dict[str, int] = field(default_factory=dict)
    serve_rounds: Dict[str, int] = field(default_factory=dict)
    serve_mutations: int = 0
    serve_retries: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "ObsSummary") -> None:
        self.events += other.events
        self.runs += other.runs
        self.total_rounds += other.total_rounds
        self.total_messages += other.total_messages
        self.total_bits += other.total_bits
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.sweep_points += other.sweep_points
        self.sweep_cached += other.sweep_cached
        self.pulses += other.pulses
        self.async_events_processed += other.async_events_processed
        self.faults_injected += other.faults_injected
        for kind, count in other.fault_counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count
        self.mpc_runs += other.mpc_runs
        self.mpc_comm_bytes += other.mpc_comm_bytes
        self.mpc_sparsified_rounds += other.mpc_sparsified_rounds
        for shard, seconds in other.mpc_shard_seconds.items():
            self.mpc_shard_seconds[shard] = (
                self.mpc_shard_seconds.get(shard, 0.0) + seconds
            )
        for name, seconds in other.span_seconds.items():
            self.span_seconds[name] = self.span_seconds.get(name, 0.0) + seconds
        for name, seconds in other.span_cpu_seconds.items():
            self.span_cpu_seconds[name] = (
                self.span_cpu_seconds.get(name, 0.0) + seconds
            )
        for name, count in other.span_counts.items():
            self.span_counts[name] = self.span_counts.get(name, 0) + count
        self.serve_requests += other.serve_requests
        for status, count in other.serve_status_counts.items():
            self.serve_status_counts[status] = (
                self.serve_status_counts.get(status, 0) + count
            )
        for mode, count in other.serve_epochs.items():
            self.serve_epochs[mode] = self.serve_epochs.get(mode, 0) + count
        for mode, rounds in other.serve_rounds.items():
            self.serve_rounds[mode] = self.serve_rounds.get(mode, 0) + rounds
        self.serve_mutations += other.serve_mutations
        self.serve_retries += other.serve_retries
        for kind, count in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "runs": self.runs,
            "total_rounds": self.total_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
            "sweep_points": self.sweep_points,
            "sweep_cached": self.sweep_cached,
            "pulses": self.pulses,
            "async_events_processed": self.async_events_processed,
            "faults_injected": self.faults_injected,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "mpc_runs": self.mpc_runs,
            "mpc_comm_bytes": self.mpc_comm_bytes,
            "mpc_sparsified_rounds": self.mpc_sparsified_rounds,
            "mpc_shard_seconds": dict(sorted(self.mpc_shard_seconds.items())),
            "span_seconds": dict(sorted(self.span_seconds.items())),
            "span_cpu_seconds": dict(sorted(self.span_cpu_seconds.items())),
            "span_counts": dict(sorted(self.span_counts.items())),
            "serve_requests": self.serve_requests,
            "serve_status_counts": dict(sorted(self.serve_status_counts.items())),
            "serve_epochs": dict(sorted(self.serve_epochs.items())),
            "serve_rounds": dict(sorted(self.serve_rounds.items())),
            "serve_mutations": self.serve_mutations,
            "serve_retries": self.serve_retries,
            "by_kind": dict(sorted(self.by_kind.items())),
        }

    def render(self) -> str:
        """Multi-line human-readable summary (the ``summary`` default)."""
        lines = [
            f"events:        {self.events}",
            f"runs:          {self.runs}",
            f"total rounds:  {self.total_rounds}",
            f"total msgs:    {self.total_messages}",
            f"total bits:    {self.total_bits}",
            f"max msg bits:  {self.max_message_bits}",
        ]
        if self.sweep_points:
            lines.append(
                f"sweep points:  {self.sweep_points} ({self.sweep_cached} cached)"
            )
        if self.pulses:
            lines.append(
                f"async:         {self.pulses} pulses, "
                f"{self.async_events_processed} events"
            )
        if self.faults_injected:
            breakdown = " ".join(
                f"{kind}={count}" for kind, count in sorted(self.fault_counts.items())
            )
            lines.append(
                f"faults:        {self.faults_injected}"
                + (f" ({breakdown})" if breakdown else "")
            )
        if self.mpc_runs:
            mpc_line = (
                f"mpc:           {self.mpc_runs} runs, "
                f"{self.mpc_comm_bytes} comm bytes, "
                f"{self.mpc_sparsified_rounds} sparsified shard-rounds"
            )
            if self.mpc_shard_seconds:
                per_shard = " ".join(
                    f"s{shard}={seconds:.4f}s"
                    for shard, seconds in sorted(self.mpc_shard_seconds.items())
                )
                mpc_line += f", shard wall: {per_shard}"
            lines.append(mpc_line)
        if self.serve_requests or self.serve_epochs:
            status = " ".join(
                f"{name}={count}"
                for name, count in sorted(self.serve_status_counts.items())
            )
            lines.append(
                f"serve:         {self.serve_requests} requests"
                + (f" ({status})" if status else "")
            )
            epoch_bits = []
            for mode in sorted(self.serve_epochs):
                epoch_bits.append(
                    f"{mode}={self.serve_epochs[mode]}"
                    f"/{self.serve_rounds.get(mode, 0)}r"
                )
            detail = " ".join(epoch_bits)
            lines.append(
                f"serve epochs:  {detail or 'none'}, "
                f"{self.serve_mutations} mutations, "
                f"{self.serve_retries} retries"
            )
        if self.phase_seconds:
            lines.append("phase wall time:")
            for name, seconds in sorted(self.phase_seconds.items()):
                lines.append(f"  {name:<20} {seconds:.4f}s")
        if self.span_seconds:
            lines.append("span wall time:")
            for name, seconds in sorted(
                self.span_seconds.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(
                    f"  {name:<20} {seconds:.4f}s "
                    f"(cpu {self.span_cpu_seconds.get(name, 0.0):.4f}s, "
                    f"n={self.span_counts.get(name, 0)})"
                )
        return "\n".join(lines)


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """Load one JSONL stream (skipping blank and torn tail lines)."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn tail from an interrupted run
    return records


def resolve_streams(path: PathLike) -> List[Path]:
    """Find event streams under ``path``.

    Accepts an ``events.jsonl`` file, a run directory containing one, or
    an obs root directory of run directories (sorted by run id).
    """
    path = Path(path)
    if path.is_file():
        return [path]
    if (path / EVENTS_FILENAME).is_file():
        return [path / EVENTS_FILENAME]
    if path.is_dir():
        return sorted(path.glob(f"*/{EVENTS_FILENAME}"))
    raise FileNotFoundError(f"no event stream at {path}")


def summarize_events(records: Iterable[Dict[str, Any]]) -> ObsSummary:
    """Summarize one stream's records."""
    summary = ObsSummary()
    # Totals from per-round events, used only when no run-end aggregate
    # exists in the stream (e.g. a run cut short before on_run_end).
    fine_rounds = fine_messages = fine_bits = fine_faults = 0
    saw_aggregate = False

    for record in records:
        kind = record.get("kind", "?")
        summary.events += 1
        summary.by_kind[kind] = summary.by_kind.get(kind, 0) + 1

        if kind == EVENT_RUN_START:
            summary.runs += 1
        elif kind in (EVENT_ROUND, EVENT_START_ROUND):
            if kind == EVENT_ROUND:
                fine_rounds += 1
            fine_messages += record.get("messages", 0)
            fine_bits += record.get("bits", 0)
            summary.max_message_bits = max(
                summary.max_message_bits, record.get("max_bits", 0)
            )
        elif kind in (EVENT_RUN_END, EVENT_ASYNC_RUN_END):
            saw_aggregate = True
            summary.total_rounds += record.get("rounds", 0)
            summary.total_messages += record.get("messages", 0)
            summary.total_bits += record.get("bits", 0)
            summary.max_message_bits = max(
                summary.max_message_bits, record.get("max_bits", 0)
            )
            summary.pulses += record.get("pulses", 0)
            summary.async_events_processed += record.get("events_processed", 0)
            summary.faults_injected += record.get("faults", 0)
        elif kind == EVENT_MPC_RUN_END:
            summary.mpc_runs += 1
            summary.total_rounds += record.get("rounds", 0)
            summary.mpc_comm_bytes += record.get("comm_bytes", 0)
            summary.mpc_sparsified_rounds += record.get("sparsified_rounds", 0)
        elif kind == EVENT_MPC_ROUND:
            for shard, seconds in (record.get("shard_seconds") or {}).items():
                summary.mpc_shard_seconds[shard] = summary.mpc_shard_seconds.get(
                    shard, 0.0
                ) + float(seconds)
        elif kind == EVENT_SPAN:
            name = record.get("phase", "?")
            summary.span_seconds[name] = summary.span_seconds.get(
                name, 0.0
            ) + record.get("dur_s", 0.0)
            summary.span_cpu_seconds[name] = summary.span_cpu_seconds.get(
                name, 0.0
            ) + record.get("cpu_s", 0.0)
            summary.span_counts[name] = summary.span_counts.get(name, 0) + 1
        elif kind == EVENT_SERVE_REQUEST:
            summary.serve_requests += 1
            status = record.get("status", "?")
            summary.serve_status_counts[status] = (
                summary.serve_status_counts.get(status, 0) + 1
            )
        elif kind == EVENT_SERVE_EPOCH:
            mode = record.get("mode", "?")
            summary.serve_epochs[mode] = summary.serve_epochs.get(mode, 0) + 1
            summary.serve_rounds[mode] = summary.serve_rounds.get(
                mode, 0
            ) + record.get("rounds", 0)
            summary.serve_mutations += record.get("mutations", 0)
        elif kind == EVENT_SERVE_RETRY:
            summary.serve_retries += 1
        elif kind == EVENT_FAULT:
            fine_faults += 1
            name = record.get("fault", "?")
            summary.fault_counts[name] = summary.fault_counts.get(name, 0) + 1
        elif kind == EVENT_PHASE_END:
            name = record.get("phase", "?")
            summary.phase_seconds[name] = summary.phase_seconds.get(
                name, 0.0
            ) + record.get("dur_s", 0.0)
        elif kind == EVENT_SWEEP_POINT:
            summary.sweep_points += 1
            if record.get("cached"):
                summary.sweep_cached += 1
            summary.total_rounds += record.get("rounds", 0) or 0
            summary.total_bits += record.get("bits", 0) or 0
            summary.total_messages += record.get("messages", 0) or 0

    if not saw_aggregate:
        summary.total_rounds += fine_rounds
        summary.total_messages += fine_messages
        summary.total_bits += fine_bits
        summary.faults_injected += fine_faults
    return summary


def summarize_paths(paths: Sequence[PathLike]) -> ObsSummary:
    """Resolve and summarize every stream reachable from ``paths``."""
    total = ObsSummary()
    for path in paths:
        for stream in resolve_streams(path):
            total.merge(summarize_events(read_events(stream)))
    return total


@dataclass
class StreamDiff:
    """Outcome of comparing two streams up to timestamp fields."""

    identical: bool
    differences: List[str] = field(default_factory=list)

    def render(self) -> str:
        if self.identical:
            return "streams identical (up to timestamp fields)"
        head = f"streams differ ({len(self.differences)} difference(s)):"
        return "\n".join([head] + [f"  {d}" for d in self.differences[:20]])


def diff_streams(
    a: Sequence[Dict[str, Any]],
    b: Sequence[Dict[str, Any]],
    max_differences: int = 100,
) -> StreamDiff:
    """Compare two event streams after stripping timestamp fields."""
    a_stripped = strip_timestamps(a)
    b_stripped = strip_timestamps(b)
    differences: List[str] = []
    for index, (left, right) in enumerate(zip(a_stripped, b_stripped)):
        if left != right:
            differences.append(f"event {index}: {left!r} != {right!r}")
            if len(differences) >= max_differences:
                break
    if len(a_stripped) != len(b_stripped):
        differences.append(
            f"length: {len(a_stripped)} events vs {len(b_stripped)} events"
        )
    return StreamDiff(identical=not differences, differences=differences)
