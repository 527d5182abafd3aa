"""Columnar (CSR) graph substrate for the bulk engines.

The scalar engines walk ``networkx`` adjacency dicts; the bulk engines
(:mod:`repro.mis.bulk`, Algorithm 1 in :mod:`repro.core.bounded_arb`)
walk flat arrays.  This
module owns the array layout and every way of building it:

* :class:`CSRGraph` — compressed-sparse-row adjacency plus the label
  bookkeeping that lets engines work purely in dense positions ``0..n-1``
  and translate back to the caller's node labels only at the end;
* :func:`csr_from_graph` — build from any :class:`networkx.Graph`,
  including graphs with non-integer (string, tuple, ...) node labels;
* :func:`csr_from_edges` — build directly from edge arrays, bypassing
  ``networkx`` entirely — this is what makes n = 10⁷ workloads feasible
  (a ``networkx`` graph at that size costs minutes and tens of GB; the
  CSR build is a couple of vectorized sorts);
* :func:`bounded_arboricity_edges` / :func:`csr_bounded_arboricity` —
  an O(n) vectorized generator for the benchmark workload family (union
  of α random forests) at sizes the Prüfer-based
  :func:`repro.graphs.generators.bounded_arboricity_graph` cannot reach.

Keyed-randomness contract (DESIGN.md §4): when every node label is an
integer, :attr:`CSRGraph.key_ids` holds the labels themselves, so
``priority_array(seed, key_ids, t)`` draws exactly the stream the scalar
engines draw with ``priority_draw(seed, label, t)`` — the bit-equivalence
the tier-1 tests pin.  For non-integer labels (which the scalar engines
cannot key at all) the dense positions serve as the keys.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, GraphError

__all__ = [
    "CSRGraph",
    "csr_from_graph",
    "csr_from_edges",
    "bounded_arboricity_edges",
    "csr_bounded_arboricity",
]

_MASK = (1 << 64) - 1


class CSRGraph:
    """Compressed-sparse-row adjacency with label translation.

    ``indices[indptr[i]:indptr[i+1]]`` are the neighbor *positions* of the
    node at position ``i``, sorted ascending; positions are assigned in
    sorted-label order whenever labels are sortable, so position order
    coincides with label order on the integer-labeled graphs the scalar
    engines handle.  Engines never touch labels after construction.
    """

    __slots__ = ("labels", "key_ids", "indptr", "indices", "integer_labeled")

    def __init__(
        self,
        labels: Sequence,
        key_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        integer_labeled: bool,
    ):
        self.labels = labels
        self.key_ids = key_ids
        self.indptr = indptr
        self.indices = indices
        self.integer_labeled = integer_labeled

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (each stored twice in ``indices``)."""
        return int(self.indices.size) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def tiebreak_id(self, position: int) -> int:
        """The integer the scalar ``(priority, id)`` rule breaks ties with.

        Integer-labeled graphs use the label itself (matching the scalar
        engines); other graphs use the dense position, which is the only
        total order the bulk engine defines for them.
        """
        if self.integer_labeled:
            return int(self.labels[position])
        return position

    def label_set(self, mask: np.ndarray) -> Set:
        """Translate a boolean position mask back to a set of node labels."""
        if self.integer_labeled:
            return {int(self.labels[i]) for i in np.nonzero(mask)[0]}
        return {self.labels[i] for i in np.nonzero(mask)[0]}


def _order_nodes(nodes: Iterable) -> List:
    """Sorted node order when the labels are sortable, else listing order.

    Sorting is what aligns positions with labels on integer graphs (the
    bit-equivalence contract); for unsortable label mixes any fixed order
    works because no scalar engine defines a competing one.
    """
    nodes = list(nodes)
    try:
        return sorted(nodes)
    except TypeError:
        return nodes


def _key_ids_for(ordered: List, integer_labeled: bool) -> np.ndarray:
    if integer_labeled:
        # Fold into the 64-bit ring exactly like ``derive_seed`` does with
        # ``label & MASK`` — negative and >= 2**63 labels key identically
        # in both engines.
        return np.fromiter(
            ((int(v) & _MASK) for v in ordered), dtype=np.uint64, count=len(ordered)
        )
    return np.arange(len(ordered), dtype=np.uint64)


def csr_from_graph(graph) -> CSRGraph:
    """Build a :class:`CSRGraph` from a :class:`networkx.Graph`.

    Works for arbitrary hashable node labels: labels are mapped to dense
    positions once, here, and translated back only in results (the fix for
    the ``position[int(v)]`` crash on non-integer labels).
    """
    ordered = _order_nodes(graph.nodes())
    integer_labeled = all(isinstance(v, int) for v in ordered)
    position = {v: i for i, v in enumerate(ordered)}
    indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
    flat: List[int] = []
    for i, v in enumerate(ordered):
        flat.extend(sorted(position[u] for u in graph.neighbors(v)))
        indptr[i + 1] = len(flat)
    if integer_labeled:
        try:
            labels: Sequence = np.array(ordered, dtype=np.int64)
        except OverflowError:  # labels outside int64: keep Python ints
            labels = ordered
    else:
        labels = ordered
    return CSRGraph(
        labels=labels,
        key_ids=_key_ids_for(ordered, integer_labeled),
        indptr=indptr,
        indices=np.array(flat, dtype=np.int64),
        integer_labeled=integer_labeled,
    )


def csr_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> CSRGraph:
    """Build a :class:`CSRGraph` on nodes ``0..n-1`` from edge arrays.

    ``u``/``v`` are parallel arrays of endpoints.  Self-loops are dropped
    and duplicate edges are deduplicated, so unions of overlapping edge
    sets (e.g. several random forests) are handled exactly like the
    ``networkx`` construction.  Everything is vectorized: the build is a
    lexsort plus a few scans, O(m log m) with tiny constants.
    """
    if n < 0:
        raise ConfigurationError(f"node count must be non-negative, got {n}")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ConfigurationError("edge endpoint arrays must have equal length")
    if u.size and (
        u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n
    ):
        raise GraphError("edge endpoint outside [0, n)")

    keep = u != v  # drop self-loops
    u, v = u[keep], v[keep]
    # Symmetrize, then sort by (source, target) so each segment comes out
    # ascending, and deduplicate parallel edges.
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if src.size:
        fresh = np.ones(src.size, dtype=bool)
        fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[fresh], dst[fresh]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    labels = np.arange(n, dtype=np.int64)
    return CSRGraph(
        labels=labels,
        key_ids=labels.astype(np.uint64),
        indptr=indptr,
        indices=dst,
        integer_labeled=True,
    )


def bounded_arboricity_edges(
    n: int, alpha: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge arrays for a union of ``alpha`` random attachment trees.

    Each tree attaches node ``v`` to a uniform parent in ``[0, v)`` — the
    random-recursive-tree family, chosen because it vectorizes to O(n)
    (the Prüfer decode behind
    :func:`~repro.graphs.generators.bounded_arboricity_graph` is an
    inherently sequential heap loop).  The union of α trees has arboricity
    ≤ α by construction, the property every experiment conditions on; the
    degree profile is Θ(log n) maximum degree, like the Prüfer family,
    but the distributions differ — large-n benchmark rows say which
    generator produced them.
    """
    if n <= 0:
        raise ConfigurationError(f"graph size must be positive, got {n}")
    if alpha < 1:
        raise ConfigurationError("arboricity parameter must be >= 1")
    if n == 1:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    children = np.arange(1, n, dtype=np.int64)
    parts_u, parts_v = [], []
    for forest_index in range(alpha):
        rng = np.random.Generator(
            np.random.Philox(key=(seed * 1_000_003 + forest_index + 1) & _MASK)
        )
        parents = rng.integers(0, children)  # parent of v uniform in [0, v)
        parts_u.append(parents.astype(np.int64))
        parts_v.append(children)
    return np.concatenate(parts_u), np.concatenate(parts_v)


def csr_bounded_arboricity(n: int, alpha: int, seed: int = 0) -> CSRGraph:
    """A :class:`CSRGraph` union-of-α-forests workload, built without
    ``networkx`` — the large-n benchmark path (E16/E17 at n = 10⁷)."""
    u, v = bounded_arboricity_edges(n, alpha, seed=seed)
    return csr_from_edges(n, u, v)
