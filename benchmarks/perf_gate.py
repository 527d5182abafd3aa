"""Performance gate for the bulk and sharded engines — E16/E17/E19/E20.

Runs a small, CI-sized grid of bulk-engine (E16/E17), sharded
MPC-runtime (E19), and trace-overhead (E20) cells and compares
throughput (nodes per second) against the committed baselines in
``benchmarks/baselines/BENCH_e16_bulk.json`` / ``BENCH_e17_bulk.json`` /
``BENCH_e19_mpc.json`` / ``BENCH_e20_trace.json``.

Usage::

    python benchmarks/perf_gate.py --check            # CI: exit 1 on regression
    python benchmarks/perf_gate.py --update           # rewrite the baselines
    python benchmarks/perf_gate.py --check --experiment e16

Two kinds of drift are gated:

* **Determinism** — each cell's ``iterations`` and ``mis_size`` must equal
  the baseline *exactly*.  The engines are keyed-deterministic (DESIGN.md
  §4), so any difference means an algorithm changed behavior, which must be
  an intentional, baseline-updating change.
* **Throughput** — current nodes/s must be at least ``baseline / tolerance``.
  The tolerance is deliberately loose (default 3x, override with
  ``REPRO_PERF_GATE_TOLERANCE`` or ``--tolerance``): the gate exists to
  catch order-of-magnitude regressions (an accidental Python loop inside a
  kernel), not percent-level noise on shared CI hardware.

Every invocation also writes the freshly measured cells to
``benchmarks/results/perf_gate_<experiment>.json`` so CI can upload them as
an artifact regardless of pass/fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.bounded_arb import bounded_arb_independent_set  # noqa: E402
from repro.graphs.csr import csr_bounded_arboricity  # noqa: E402
from repro.mis.bulk import (  # noqa: E402
    ghaffari_mis_bulk,
    luby_a_mis_bulk,
    luby_b_mis_bulk,
    metivier_mis_bulk,
)
from repro.mpc import run_sharded  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402

BASELINE_DIR = os.path.join(_HERE, "baselines")
RESULTS_DIR = os.path.join(_HERE, "results")
DEFAULT_TOLERANCE = 3.0

_MIS_ENGINES: Dict[str, Callable] = {
    "metivier-bulk": metivier_mis_bulk,
    "luby-a-bulk": luby_a_mis_bulk,
    "luby-b-bulk": luby_b_mis_bulk,
    "ghaffari-bulk": ghaffari_mis_bulk,
}

# The gated grid.  Cells are keyed by (algorithm, n, alpha, seed); keep each
# under ~5 s on one CPU so the whole gate stays inside a CI minute.
GRIDS: Dict[str, List[dict]] = {
    "e16": [
        {"algorithm": "metivier-bulk", "n": 300_000, "alpha": 2, "seed": 0},
        {"algorithm": "luby-a-bulk", "n": 300_000, "alpha": 2, "seed": 0},
        {"algorithm": "luby-b-bulk", "n": 300_000, "alpha": 2, "seed": 0},
        {"algorithm": "ghaffari-bulk", "n": 300_000, "alpha": 2, "seed": 0},
        {"algorithm": "metivier-bulk", "n": 1_000_000, "alpha": 2, "seed": 0},
    ],
    "e17": [
        {"algorithm": "arb-alg1-bulk", "n": 300_000, "alpha": 2, "seed": 0},
        {"algorithm": "arb-alg1-bulk", "n": 1_000_000, "alpha": 2, "seed": 0},
    ],
    # E19: the sharded MPC runtime (every shard runs inline in the
    # coordinator process).  The shards axis is the point:
    # iterations/mis_size must be identical down the column (the engines
    # are bit-identical for every shard count) and throughput scales with
    # the per-round frontier exchange overhead.
    "e19": [
        {"algorithm": "metivier-mpc", "n": 100_000, "alpha": 2, "seed": 0, "shards": 1},
        {"algorithm": "metivier-mpc", "n": 100_000, "alpha": 2, "seed": 0, "shards": 4},
        {"algorithm": "metivier-mpc", "n": 100_000, "alpha": 2, "seed": 0, "shards": 8},
        {"algorithm": "luby-b-mpc", "n": 100_000, "alpha": 2, "seed": 0, "shards": 4},
        {"algorithm": "ghaffari-mpc", "n": 100_000, "alpha": 2, "seed": 0, "shards": 4},
        {"algorithm": "metivier-mpc", "n": 300_000, "alpha": 2, "seed": 0, "shards": 4},
    ],
    # E20: span-tracing overhead.  Traced cells run the same engines with
    # a collector-mode Tracer attached (no disk I/O, so the delta is the
    # instrumentation itself); untraced twins pin the tracing-disabled
    # fast path.  A traced/untraced throughput gap beyond the tolerance
    # means instrumentation crept into the per-element work.
    "e20": [
        {"algorithm": "metivier-bulk", "n": 300_000, "alpha": 2, "seed": 0, "traced": False},
        {"algorithm": "metivier-bulk", "n": 300_000, "alpha": 2, "seed": 0, "traced": True},
        {"algorithm": "luby-b-bulk", "n": 300_000, "alpha": 2, "seed": 0, "traced": False},
        {"algorithm": "luby-b-bulk", "n": 300_000, "alpha": 2, "seed": 0, "traced": True},
    ],
    # E21: the serving layer's churn economics.  Each pair applies the
    # same seeded workload (repro.serve.loadgen) to a session that always
    # repairs incrementally and one that always recomputes; the gated
    # "iterations" field is the total CONGEST rounds over the churn
    # epochs, so any drift in the repair algorithm (waves, priorities,
    # fallback policy) trips the determinism check.
    "e21": [
        {"algorithm": "serve-repair", "n": 400, "seed": 0, "churn": 2, "epochs": 12},
        {"algorithm": "serve-recompute", "n": 400, "seed": 0, "churn": 2, "epochs": 12},
        {"algorithm": "serve-repair", "n": 400, "seed": 0, "churn": 8, "epochs": 12},
        {"algorithm": "serve-recompute", "n": 400, "seed": 0, "churn": 8, "epochs": 12},
        {"algorithm": "serve-repair", "n": 400, "seed": 0, "churn": 16, "epochs": 12},
        {"algorithm": "serve-recompute", "n": 400, "seed": 0, "churn": 16, "epochs": 12},
    ],
}

_CSR_CACHE: Dict[tuple, object] = {}


def _graph(n: int, alpha: int, seed: int):
    key = (n, alpha, seed)
    if key not in _CSR_CACHE:
        _CSR_CACHE[key] = csr_bounded_arboricity(n, alpha, seed=seed)
    return _CSR_CACHE[key]


def _cell_id(cell: dict) -> str:
    if "alpha" in cell:
        base = "{algorithm}/n={n}/alpha={alpha}/seed={seed}".format(**cell)
    else:
        base = "{algorithm}/n={n}/seed={seed}".format(**cell)
    if "shards" in cell:
        base += "/shards={shards}".format(**cell)
    if "traced" in cell:
        base += "/traced={traced}".format(**cell)
    if "churn" in cell:
        base += "/churn={churn}/epochs={epochs}".format(**cell)
    return base


def _run_serve_cell(cell: dict) -> tuple:
    """One E21 cell: seeded churn workload through a GraphSession.

    Returns ``(iterations, mis_size)`` where iterations is the total
    CONGEST rounds over the churn epochs (bootstrap excluded) — a pure
    function of the cell, so it doubles as the determinism pin.
    """
    from repro.serve.incremental import GraphSession, Mutation
    from repro.serve.loadgen import LoadGenConfig, initial_edges, mutation_batches

    mode = cell["algorithm"][len("serve-"):]
    config = LoadGenConfig(
        seed=cell["seed"],
        nodes=cell["n"],
        epochs=cell["epochs"],
        churn=cell["churn"],
    )
    session = GraphSession(
        "perf-gate",
        seed=cell["seed"],
        repair_damage_cap=1.0 if mode == "repair" else 0.0,
    )
    session.apply_epoch(
        [Mutation("add-edge", u, v) for u, v in initial_edges(config)]
    )
    rounds = 0
    for batch in mutation_batches(config):
        rounds += session.apply_epoch(batch).rounds
    return rounds, len(session.mis)


def run_cell(cell: dict) -> dict:
    """Execute one grid cell, best-of-k timing, and return its record."""
    serve_cell = cell["algorithm"].startswith("serve-")
    csr = None if serve_cell else _graph(cell["n"], cell["alpha"], cell["seed"])
    repeats = 3 if cell["n"] <= 300_000 else 2
    best = float("inf")
    iterations = mis_size = None
    for _ in range(repeats):
        start = time.perf_counter()
        if serve_cell:
            iterations, mis_size = _run_serve_cell(cell)
        elif cell["algorithm"] == "arb-alg1-bulk":
            result = bounded_arb_independent_set(
                csr, alpha=cell["alpha"], seed=cell["seed"]
            )
            iterations = result.iterations
            mis_size = len(result.independent_set)
        elif cell["algorithm"].endswith("-mpc"):
            result = run_sharded(
                cell["algorithm"][: -len("-mpc")],
                csr,
                seed=cell["seed"],
                shards=cell["shards"],
            )
            iterations = result.iterations
            mis_size = len(result.mis)
        else:
            kwargs = {}
            if cell.get("traced"):
                kwargs["tracer"] = Tracer(collector=[])
            result = _MIS_ENGINES[cell["algorithm"]](
                csr, seed=cell["seed"], **kwargs
            )
            iterations = result.iterations
            mis_size = len(result.mis)
        best = min(best, time.perf_counter() - start)
    return {
        "id": _cell_id(cell),
        **cell,
        "seconds": round(best, 4),
        "nodes_per_sec": round(cell["n"] / best, 1),
        "iterations": iterations,
        "mis_size": mis_size,
    }


_BASELINE_SUFFIX = {
    "e16": "bulk",
    "e17": "bulk",
    "e19": "mpc",
    "e20": "trace",
    "e21": "serve",
}


def _baseline_path(experiment: str) -> str:
    suffix = _BASELINE_SUFFIX[experiment]
    return os.path.join(BASELINE_DIR, f"BENCH_{experiment}_{suffix}.json")


def _results_path(experiment: str) -> str:
    return os.path.join(RESULTS_DIR, f"perf_gate_{experiment}.json")


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _measure(experiment: str) -> dict:
    cells = [run_cell(cell) for cell in GRIDS[experiment]]
    return {
        "experiment": experiment,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cells": cells,
    }


def check(experiment: str, tolerance: float) -> List[str]:
    """Compare a fresh run against the committed baseline; return failures."""
    path = _baseline_path(experiment)
    if not os.path.exists(path):
        return [f"{experiment}: missing baseline {path} (run with --update first)"]
    with open(path) as handle:
        baseline = json.load(handle)
    current = _measure(experiment)
    _write_json(_results_path(experiment), current)

    current_by_id = {cell["id"]: cell for cell in current["cells"]}
    failures = []
    for base_cell in baseline["cells"]:
        cell_id = base_cell["id"]
        now = current_by_id.get(cell_id)
        if now is None:
            failures.append(f"{experiment}: baseline cell {cell_id} not in current grid")
            continue
        for field in ("iterations", "mis_size"):
            if now[field] != base_cell[field]:
                failures.append(
                    f"{experiment}: {cell_id}: {field} drifted "
                    f"{base_cell[field]} -> {now[field]} (determinism violation; "
                    "if intentional, refresh with --update)"
                )
        floor = base_cell["nodes_per_sec"] / tolerance
        if now["nodes_per_sec"] < floor:
            failures.append(
                f"{experiment}: {cell_id}: throughput regressed "
                f"{base_cell['nodes_per_sec']:.3g} -> {now['nodes_per_sec']:.3g} "
                f"nodes/s (floor {floor:.3g} at tolerance {tolerance:g}x)"
            )
    for cell in current["cells"]:
        print(
            f"  [{experiment}] {cell['id']}: {cell['seconds']}s "
            f"({cell['nodes_per_sec']:.3g} nodes/s, iters={cell['iterations']}, "
            f"|MIS|={cell['mis_size']})"
        )
    return failures


def update(experiment: str) -> None:
    payload = _measure(experiment)
    _write_json(_baseline_path(experiment), payload)
    _write_json(_results_path(experiment), payload)
    print(f"wrote {_baseline_path(experiment)} ({len(payload['cells'])} cells)")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="gate against baselines")
    mode.add_argument("--update", action="store_true", help="rewrite baselines")
    parser.add_argument(
        "--experiment",
        choices=sorted(GRIDS),
        action="append",
        help="limit to one experiment (default: all)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_PERF_GATE_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed slowdown factor vs baseline (default %(default)s)",
    )
    args = parser.parse_args(argv)
    experiments = args.experiment or sorted(GRIDS)

    if args.update:
        for experiment in experiments:
            update(experiment)
        return 0

    failures: List[str] = []
    for experiment in experiments:
        failures.extend(check(experiment, args.tolerance))
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed ({len(experiments)} experiment(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
