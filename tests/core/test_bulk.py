"""Tests for Algorithm 1's columnar engine fed a prebuilt CSR graph.

`bounded_arb_independent_set` runs the columnar kernels on either an
`nx.Graph` or a `CSRGraph`; these checks drive the CSR input form
directly, as the array pipelines do.
"""

from __future__ import annotations

from repro.core.bounded_arb import bounded_arb_independent_set
from repro.graphs.csr import csr_from_graph
from repro.mis.validation import is_independent_set


class TestBulkCorrectness:
    def test_independent_output(self, starry_graph):
        result = bounded_arb_independent_set(csr_from_graph(starry_graph), alpha=2, seed=2)
        assert is_independent_set(starry_graph, result.independent_set)

    def test_paper_profile_noop(self, arb3_graph):
        result = bounded_arb_independent_set(
            csr_from_graph(arb3_graph), alpha=3, seed=0, profile="paper"
        )
        assert result.parameters.theta == 0
        assert result.residual == set(arb3_graph.nodes())
