"""Prometheus text-format exporter for reconstructed run metrics.

Renders an :class:`~repro.obs.summary.ObsSummary` in the Prometheus
exposition format (text/plain; version 0.0.4) so recorded runs can be
scraped, pushed to a Pushgateway, or diffed with standard tooling::

    repro obs summary results/obs --format prom > metrics.prom

Only counters/gauges derivable from a finished stream are exported; this
is an offline exporter, not a live endpoint (the simulator's hot loop
stays free of network concerns).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.obs.summary import ObsSummary

__all__ = ["summary_to_prometheus"]

_PREFIX = "repro"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    # Exposition format: HELP lines escape backslash and newline (quotes
    # are legal there, unlike in label values).
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _metric(
    lines: List[str],
    name: str,
    help_text: str,
    metric_type: str,
    value: float,
    labels: Optional[Mapping[str, str]] = None,
) -> None:
    lines.append(f"# HELP {name} {_escape_help(help_text)}")
    lines.append(f"# TYPE {name} {metric_type}")
    rendered = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(value, float) else str(value)
    lines.append(f"{name}{_labels(labels)} {rendered}")


def summary_to_prometheus(
    summary: ObsSummary, labels: Optional[Mapping[str, str]] = None
) -> str:
    """Render ``summary`` in the Prometheus text exposition format."""
    lines: List[str] = []
    base: Dict[str, str] = dict(labels or {})
    _metric(
        lines,
        f"{_PREFIX}_events_total",
        "Telemetry events recorded.",
        "counter",
        summary.events,
        base,
    )
    _metric(
        lines,
        f"{_PREFIX}_runs_total",
        "Executions observed (run-start events).",
        "counter",
        summary.runs,
        base,
    )
    _metric(
        lines,
        f"{_PREFIX}_rounds_total",
        "CONGEST rounds across all observed runs.",
        "counter",
        summary.total_rounds,
        base,
    )
    _metric(
        lines,
        f"{_PREFIX}_messages_total",
        "Messages sent across all observed runs.",
        "counter",
        summary.total_messages,
        base,
    )
    _metric(
        lines,
        f"{_PREFIX}_bits_total",
        "Bits on the wire across all observed runs.",
        "counter",
        summary.total_bits,
        base,
    )
    _metric(
        lines,
        f"{_PREFIX}_max_message_bits",
        "Largest single message observed (the E9 compliance quantity).",
        "gauge",
        summary.max_message_bits,
        base,
    )
    if summary.sweep_points:
        _metric(
            lines,
            f"{_PREFIX}_sweep_points_total",
            "Sweep grid points completed.",
            "counter",
            summary.sweep_points,
            base,
        )
        _metric(
            lines,
            f"{_PREFIX}_sweep_cached_total",
            "Sweep grid points served from the results store.",
            "counter",
            summary.sweep_cached,
            base,
        )
    if summary.mpc_runs:
        _metric(
            lines,
            f"{_PREFIX}_mpc_runs_total",
            "Sharded (MPC) runtime executions observed.",
            "counter",
            summary.mpc_runs,
            base,
        )
        _metric(
            lines,
            f"{_PREFIX}_mpc_comm_bytes_total",
            "Inter-shard bytes metered across all sharded runs.",
            "counter",
            summary.mpc_comm_bytes,
            base,
        )
        _metric(
            lines,
            f"{_PREFIX}_mpc_sparsified_rounds_total",
            "Shard-rounds that ran in sparsified (delta) mode.",
            "counter",
            summary.mpc_sparsified_rounds,
            base,
        )
    if summary.mpc_shard_seconds:
        name = f"{_PREFIX}_mpc_shard_seconds_total"
        lines.append(
            f"# HELP {name} Worker kernel wall seconds per shard "
            "(from merged worker spans)."
        )
        lines.append(f"# TYPE {name} counter")
        for shard, seconds in sorted(summary.mpc_shard_seconds.items()):
            shard_labels = dict(base)
            shard_labels["shard"] = shard
            lines.append(f"{name}{_labels(shard_labels)} {seconds:.6f}")
    if summary.serve_requests or summary.serve_epochs:
        _metric(
            lines,
            f"{_PREFIX}_serve_requests_total",
            "Service requests completed (serve-request events).",
            "counter",
            summary.serve_requests,
            base,
        )
        name = f"{_PREFIX}_serve_requests_by_status_total"
        lines.append(f"# HELP {name} Service requests by final status.")
        lines.append(f"# TYPE {name} counter")
        for status, count in sorted(summary.serve_status_counts.items()):
            status_labels = dict(base)
            status_labels["status"] = status
            lines.append(f"{name}{_labels(status_labels)} {count}")
        name = f"{_PREFIX}_serve_epochs_total"
        lines.append(
            f"# HELP {name} Committed serve epochs by mode "
            "(repair vs recompute)."
        )
        lines.append(f"# TYPE {name} counter")
        for mode, count in sorted(summary.serve_epochs.items()):
            mode_labels = dict(base)
            mode_labels["mode"] = mode
            lines.append(f"{name}{_labels(mode_labels)} {count}")
        name = f"{_PREFIX}_serve_rounds_total"
        lines.append(
            f"# HELP {name} CONGEST rounds spent committing serve epochs, "
            "by mode."
        )
        lines.append(f"# TYPE {name} counter")
        for mode, rounds in sorted(summary.serve_rounds.items()):
            mode_labels = dict(base)
            mode_labels["mode"] = mode
            lines.append(f"{name}{_labels(mode_labels)} {rounds}")
        _metric(
            lines,
            f"{_PREFIX}_serve_mutations_total",
            "Graph mutations committed by the serving layer.",
            "counter",
            summary.serve_mutations,
            base,
        )
        _metric(
            lines,
            f"{_PREFIX}_serve_retries_total",
            "Serve epochs retried after engine failures.",
            "counter",
            summary.serve_retries,
            base,
        )
    if summary.phase_seconds:
        name = f"{_PREFIX}_phase_seconds_total"
        lines.append(f"# HELP {name} Wall-clock seconds per pipeline phase.")
        lines.append(f"# TYPE {name} counter")
        for phase, seconds in sorted(summary.phase_seconds.items()):
            phase_labels = dict(base)
            phase_labels["phase"] = phase
            lines.append(f"{name}{_labels(phase_labels)} {seconds:.6f}")
    if summary.span_seconds:
        for metric_name, values, unit in (
            (f"{_PREFIX}_span_seconds_total", summary.span_seconds, "wall"),
            (f"{_PREFIX}_span_cpu_seconds_total", summary.span_cpu_seconds, "CPU"),
        ):
            lines.append(
                f"# HELP {metric_name} Traced {unit} seconds per span name."
            )
            lines.append(f"# TYPE {metric_name} counter")
            for span, seconds in sorted(values.items()):
                span_labels = dict(base)
                span_labels["span"] = span
                lines.append(
                    f"{metric_name}{_labels(span_labels)} {seconds:.6f}"
                )
        name = f"{_PREFIX}_spans_total"
        lines.append(f"# HELP {name} Spans recorded per span name.")
        lines.append(f"# TYPE {name} counter")
        for span, count in sorted(summary.span_counts.items()):
            span_labels = dict(base)
            span_labels["span"] = span
            lines.append(f"{name}{_labels(span_labels)} {count}")
    return "\n".join(lines) + "\n"
