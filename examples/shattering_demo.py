#!/usr/bin/env python3
"""Shattering in action: watch Algorithm 1 dismantle a hub-heavy graph.

The paper's central mechanism is *graph shattering*: run the randomized
competition until the graph breaks into a small bad set B whose components
are finished deterministically.  Uniform sparse graphs never produce an
interesting B; hub-skewed arboricity graphs (a few nodes of degree
Θ(n/hubs)) do exercise every scale.  This example prints:

* the parameter schedule (Θ scales, Λ iterations, ρ_k cutoffs),
* the per-scale progress (actives, joins, eliminations, forced-bad),
* the shattering report on G[B] vs the Lemma 3.7 bound,
* the finishing-phase accounting (Vlo/Vhi split + component costs).

Run:  python examples/shattering_demo.py
"""

from repro.analysis.tables import render_rows
from repro.core.arb_mis import arb_mis
from repro.core.shattering import analyze_bad_components
from repro.graphs.generators import starry_arboricity_graph
from repro.graphs.properties import max_degree
from repro.mis.validation import assert_valid_mis


def main() -> None:
    n, alpha, hubs, seed = 4096, 2, 6, 13
    graph = starry_arboricity_graph(n, alpha, hubs=hubs, seed=seed)
    print(
        f"workload: starry arboricity-{alpha} graph, n={n}, "
        f"m={graph.number_of_edges()}, Delta={max_degree(graph)} ({hubs} hubs)"
    )

    result = arb_mis(graph, alpha=alpha, seed=seed, apply_degree_reduction=False)
    assert_valid_mis(graph, result.mis)
    report = result.extra["report"]
    params = report.parameters

    print(
        f"\nparameter schedule ({params.profile} profile): "
        f"Theta={params.theta} scales, Lambda={params.lambda_iterations} "
        f"iterations/scale"
    )
    rows = [
        {
            "scale k": k,
            "rho_k (compete cutoff)": round(params.rho(k), 1),
            "high-degree >": round(params.high_degree_threshold(k), 1),
            "bad if > nbrs": round(params.bad_threshold(k), 1),
        }
        for k in params.scales()
    ]
    print(render_rows(rows))

    print("\nper-scale progress:")
    rows = [
        {
            "scale": s.scale,
            "iters": s.iterations_used,
            "active": f"{s.active_before} -> {s.active_after}",
            "joined I": s.joined,
            "eliminated": s.eliminated,
            "forced bad": s.bad_added,
            "invariant": "ok" if s.invariant_satisfied else "VIOLATED",
        }
        for s in report.partial.scale_stats
    ]
    print(render_rows(rows))

    shattering = analyze_bad_components(graph, report.partial.bad_set)
    print(f"\n{shattering.summary()}")

    finishing = report.finishing
    component = finishing.component_report
    print(
        f"\nfinishing: |Vlo|={finishing.vlo_size} ({finishing.vlo_iterations} iters), "
        f"|Vhi|={finishing.vhi_size} ({finishing.vhi_iterations} iters), "
        f"{component.component_count if component else 0} bad components "
        f"(parallel cost {component.max_rounds if component else 0} rounds)"
    )
    print(f"\n{result.summary()}")

    # ------------------------------------------------------------------
    # B empty above is exactly Theorem 3.6's prediction (bad probability
    # 1/Delta^2p) — randomness clears the graph long before anything goes
    # bad.  To watch the *failure path* (bad-marking, shattered components,
    # Lemma 3.8's deterministic finishing) actually fire, we need both an
    # adversarial topology (witness nodes touching many persistent hubs)
    # and a crippled algorithm (rho = 0: nobody competes, so nothing is
    # ever eliminated and the invariant cannot be restored).
    # ------------------------------------------------------------------
    import dataclasses

    import networkx as nx

    from repro.core.parameters import compute_parameters

    hub_count, leaves_per_hub, witnesses, hubs_per_witness = 24, 40, 50, 12
    adversarial = nx.Graph()
    next_id = hub_count
    for hub in range(hub_count):
        for _ in range(leaves_per_hub):
            adversarial.add_edge(hub, next_id)
            next_id += 1
    witness_ids = list(range(next_id, next_id + witnesses))
    for index, w in enumerate(witness_ids):
        for j in range(hubs_per_witness):
            adversarial.add_edge(w, (index + j) % hub_count)
    for a, b in zip(witness_ids, witness_ids[1:]):  # chain the witnesses
        adversarial.add_edge(a, b)

    crippled = dataclasses.replace(
        compute_parameters(alpha, max_degree(adversarial), "practical"),
        rho_factor=0.0,  # nobody competes: pure invariant bookkeeping
        lambda_iterations=1,
    )
    stressed = arb_mis(
        adversarial,
        alpha=alpha,
        seed=seed,
        parameters=crippled,
        apply_degree_reduction=False,
    )
    assert_valid_mis(adversarial, stressed.mis)
    sreport = stressed.extra["report"]
    sshatter = analyze_bad_components(adversarial, sreport.partial.bad_set)
    scomp = sreport.finishing.component_report
    print(
        f"\nadversarial run (rho=0, witness nodes on {hubs_per_witness} hubs "
        f"each):\n  {sshatter.summary()}\n"
        f"  deterministic finishing over {scomp.component_count} bad "
        f"component(s): parallel cost {scomp.max_rounds} rounds "
        f"(Barenboim-Elkin forests + Cole-Vishkin sweeps),\n"
        f"  and the final output is still a valid MIS of the whole graph."
    )


if __name__ == "__main__":
    main()
