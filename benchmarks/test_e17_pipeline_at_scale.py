"""E17 (extension) — the full pipeline at n up to 2¹⁶.

With Algorithm 1 on its columnar fast engine (bit-identical to the
CONGEST program), the complete ArbMIS pipeline runs at n = 65 536.  This records the
end-to-end picture at the largest feasible sizes: measured CONGEST
rounds of the paper's pipeline vs the Métivier baseline, validated
outputs, and wall time — the repository's "does the whole thing actually
scale" card.
"""

from __future__ import annotations

import os
import time

import pytest

from _common import emit
from repro.core.arb_mis import arb_mis
from repro.core.bounded_arb import bounded_arb_independent_set
from repro.graphs.csr import csr_bounded_arboricity
from repro.graphs.generators import bounded_arboricity_graph
from repro.mis.bulk import metivier_mis_bulk
from repro.mis.validation import assert_valid_mis

SIZES = [2**13, 2**14, 2**15, 2**16]
ALPHA = 2
SEED = 0

# n = 10⁶–10⁷ cells (Algorithm-1 stage only — the finishing stages need a
# networkx graph, which does not exist on this path).  Opt-in:
# REPRO_E17_LARGE=1 pytest benchmarks/test_e17_pipeline_at_scale.py
LARGE_SIZES = [10**6, 10**7]
LARGE_GATE = os.environ.get("REPRO_E17_LARGE", "") == "1"


def test_e17_pipeline_at_scale(benchmark):
    rows = []
    for n in SIZES:
        graph = bounded_arboricity_graph(n, ALPHA, seed=SEED)

        start = time.perf_counter()
        pipeline = arb_mis(graph, alpha=ALPHA, seed=SEED)
        pipeline_seconds = time.perf_counter() - start
        assert_valid_mis(graph, pipeline.mis)

        start = time.perf_counter()
        baseline = metivier_mis_bulk(graph, seed=SEED)
        baseline_seconds = time.perf_counter() - start

        rows.append(
            {
                "n": n,
                "arb-mis rounds": pipeline.congest_rounds,
                "arb-mis |MIS|": len(pipeline.mis),
                "metivier iters": baseline.iterations,
                "metivier |MIS|": len(baseline.mis),
                "arb-mis wall s": round(pipeline_seconds, 2),
                "metivier wall s": round(baseline_seconds, 2),
            }
        )
    emit("e17_pipeline_at_scale", rows, f"E17: full pipeline at scale (alpha={ALPHA}, bulk engine)")

    graph = bounded_arboricity_graph(2**14, ALPHA, seed=SEED)
    benchmark.pedantic(
        lambda: arb_mis(graph, alpha=ALPHA, seed=SEED, validate=False),
        rounds=3,
        iterations=1,
    )


@pytest.mark.skipif(not LARGE_GATE, reason="set REPRO_E17_LARGE=1 to run the 10^6-10^7 cells")
def test_e17_algorithm1_at_ten_million(benchmark):
    """The paper's Algorithm 1 (BoundedArbIS) alone at n up to 10⁷.

    The columnar stage is the scalable part of the pipeline; finishing
    (small-component MIS over the bad set) stays scalar and needs an
    nx.Graph, so this measures how far the vectorized core itself goes
    and how much residue it leaves for finishing at each n.
    """
    rows = []
    for n in LARGE_SIZES:
        csr = csr_bounded_arboricity(n, ALPHA, seed=SEED)
        start = time.perf_counter()
        stage = bounded_arb_independent_set(csr, alpha=ALPHA, seed=SEED)
        seconds = time.perf_counter() - start
        rows.append(
            {
                "n": n,
                "alg1 iters": stage.iterations,
                "|IS|": len(stage.independent_set),
                "|bad|": len(stage.bad_set),
                "|residual|": len(stage.residual),
                "wall s": round(seconds, 2),
                "nodes/s": f"{n / seconds:.2e}",
            }
        )
    emit(
        "e17_algorithm1_large",
        rows,
        f"E17: Algorithm 1 (bulk) at n up to 1e7 (alpha={ALPHA}, CSR-native path)",
    )
    csr = csr_bounded_arboricity(10**6, ALPHA, seed=SEED)
    benchmark.pedantic(
        lambda: bounded_arb_independent_set(csr, alpha=ALPHA, seed=SEED),
        rounds=2,
        iterations=1,
    )
