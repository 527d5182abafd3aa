"""E19 — the sharded MPC runtime: invariance and communication scaling.

A shards × n grid over the CSR-native bounded-arboricity workload.  Two
things are measured, one is pinned:

* **Invariance (pinned):** for every n, the MIS, iteration count, and
  active-set trajectory are identical at every shard count — and equal to
  the bulk engine's.  Sharding is an execution strategy, not an
  algorithm change.
* **Communication (measured):** total inter-shard bytes and the worst
  per-shard round, against the cut size the partitioner reports.  On
  bounded-arboricity inputs the cut grows roughly linearly with the
  shard count while per-shard traffic stays near the O(S) line the
  budget models (docs/mpc_runtime.md).

The committed throughput baseline lives in
``benchmarks/baselines/BENCH_e19_mpc.json`` and is gated by
``benchmarks/perf_gate.py --check --experiment e19`` in CI.
"""

from __future__ import annotations

import time

from _common import emit
from repro.graphs.csr import csr_bounded_arboricity
from repro.mis.bulk import metivier_mis_bulk
from repro.mpc import partition_csr, run_sharded

SIZES = [2**13, 2**15, 2**17]
SHARD_COUNTS = [1, 2, 4, 8]
ALPHA = 2
SEED = 0


def test_e19_shard_invariance_and_comm(benchmark):
    rows = []
    for n in SIZES:
        csr = csr_bounded_arboricity(n, ALPHA, seed=SEED)
        reference = metivier_mis_bulk(csr, seed=SEED)
        for shards in SHARD_COUNTS:
            plan = partition_csr(csr, shards)
            start = time.perf_counter()
            result = run_sharded("metivier", csr, seed=SEED, shards=shards)
            seconds = time.perf_counter() - start
            assert result.mis == reference.mis, (n, shards)
            assert result.iterations == reference.iterations, (n, shards)
            assert result.active_history == reference.active_history, (n, shards)
            comm = result.extra["comm"]
            rows.append(
                {
                    "n": n,
                    "shards": shards,
                    "iterations": result.iterations,
                    "|MIS|": len(result.mis),
                    "cut edges": plan.cut_edges,
                    "comm KiB": round(comm["total_bytes"] / 1024, 1),
                    "max shard-round B": max(
                        comm["max_round_bytes_by_shard"], default=0
                    ),
                    "wall s": round(seconds, 3),
                }
            )
    emit(
        "e19_mpc_invariance",
        rows,
        f"E19: sharded runtime, shards x n grid (alpha={ALPHA}, metivier)",
    )

    # Communication sanity on the largest n: a single shard exchanges
    # nothing; more shards exchange more in total.
    largest = [r for r in rows if r["n"] == SIZES[-1]]
    by_shards = {r["shards"]: r for r in largest}
    assert by_shards[1]["comm KiB"] == 0
    assert by_shards[8]["comm KiB"] >= by_shards[2]["comm KiB"]

    csr = csr_bounded_arboricity(2**15, ALPHA, seed=SEED)
    benchmark.pedantic(
        lambda: run_sharded("metivier", csr, seed=SEED, shards=4),
        rounds=3,
        iterations=1,
    )


def test_e19_budget_pressure_row():
    """One adversarial row: tight budget flips shards to delta pushes
    without moving a single output bit (the satellite budget test checks
    the mechanism; this records the magnitude at benchmark scale)."""
    from repro.mpc import CommBudget

    csr = csr_bounded_arboricity(2**15, 3, seed=SEED)
    free = run_sharded("metivier", csr, seed=SEED, shards=4)
    cap = max(free.extra["comm"]["max_round_bytes_by_shard"]) // 2
    tight = run_sharded(
        "metivier",
        csr,
        seed=SEED,
        shards=4,
        budget=CommBudget(capacity=cap, hard_capacity=cap * 50),
    )
    assert tight.mis == free.mis
    assert sum(tight.extra["comm"]["sparsified_rounds_by_shard"]) > 0
    emit(
        "e19_budget_pressure",
        [
            {
                "mode": mode,
                "total B": r.extra["comm"]["total_bytes"],
                "sparsified shard-rounds": sum(
                    r.extra["comm"]["sparsified_rounds_by_shard"]
                ),
            }
            for mode, r in [("unlimited", free), ("tight", tight)]
        ],
        "E19: budget pressure (alpha=3, metivier, 4 shards)",
    )
