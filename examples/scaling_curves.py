#!/usr/bin/env python3
"""Scaling curves in the terminal: measured iterations vs theory shapes.

Sweeps n over three octaves on arboricity-2 workloads with the columnar
engines, then draws an ASCII chart of the measured iteration counts for
Luby-B, Métivier and the full ArbMIS pipeline, next to the theoretical
log n and sqrt(log n · log log n) reference curves (scaled to match at
the smallest n).  This is experiment E1/E2's content as a picture.

Run:  python examples/scaling_curves.py
"""

import math

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.stats import summarize
from repro.core.arb_mis import arb_mis
from repro.graphs.generators import bounded_arboricity_graph
from repro.mis.bulk import metivier_mis_bulk
from repro.mis.luby import luby_b_mis

SIZES = [2**10, 2**11, 2**12, 2**13, 2**14]
SEEDS = [0, 1, 2]
ALPHA = 2


def main() -> None:
    measured = {"luby-b": [], "metivier": [], "arb-mis": []}
    for n in SIZES:
        luby, met, arb = [], [], []
        for seed in SEEDS:
            graph = bounded_arboricity_graph(n, ALPHA, seed=seed)
            luby.append(luby_b_mis(graph, seed=seed).iterations)
            met.append(metivier_mis_bulk(graph, seed=seed).iterations)
            arb.append(arb_mis(graph, alpha=ALPHA, seed=seed).iterations)
        measured["luby-b"].append((n, summarize(luby).mean))
        measured["metivier"].append((n, summarize(met).mean))
        measured["arb-mis"].append((n, summarize(arb).mean))

    # Theory shapes, anchored to luby-b / arb-mis at the smallest n.
    anchor_n = SIZES[0]
    luby_anchor = measured["luby-b"][0][1] / math.log2(anchor_n)
    arb_anchor = measured["arb-mis"][0][1] / math.sqrt(
        math.log2(anchor_n) * math.log2(math.log2(anchor_n))
    )
    measured["c*log n"] = [(n, luby_anchor * math.log2(n)) for n in SIZES]
    measured["c*sqrt(log n loglog n)"] = [
        (n, arb_anchor * math.sqrt(math.log2(n) * math.log2(math.log2(n))))
        for n in SIZES
    ]

    print(
        ascii_plot(
            measured,
            width=66,
            height=18,
            log_x=True,
            title=f"iterations vs n (alpha={ALPHA}, mean of {len(SEEDS)} seeds)",
            x_label="n",
            y_label="iterations",
        )
    )
    print(
        "\nReading: the measured curves sit near the bottom, far below the\n"
        "anchored theory shapes — the baselines' constants are tiny on sparse\n"
        "graphs (see EXPERIMENTS.md E16), and arb-mis tracks metivier because\n"
        "at these degrees the scale machinery clears the graph immediately."
    )


if __name__ == "__main__":
    main()
