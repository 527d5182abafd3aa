"""Columnar round-engine substrate shared by every bulk MIS engine.

One iteration of any competition-process MIS algorithm (DESIGN.md §4) is,
in columnar form, a fixed recipe over a :class:`~repro.graphs.csr.CSRGraph`:

1. draw keyed randomness for every node at once
   (:func:`keyed_priorities` / :func:`keyed_uniforms` — the vectorized
   twins of ``repro.rng.priority_draw`` / ``uniform_draw``);
2. reduce over neighborhoods (:func:`neighbor_max`, :func:`neighbor_sum`,
   :func:`neighbor_count`, :func:`neighbor_any` — CSR segment reductions);
3. pick winners (:func:`masked_competition` — the global
   :func:`degenerate_draw` check, then the vectorized
   :func:`strict_local_max` fast path or, on the ≤ n²/2⁶⁴ degenerate
   draws, the exact scalar rule :func:`exact_competition`);
4. eliminate winners and their neighbors (:func:`eliminate_winners_bulk` —
   an O(m) scatter, no per-winner Python loop).

The reductions and draws run over a :class:`RowView` as well as over a
whole :class:`~repro.graphs.csr.CSRGraph`: a view is some rows of the
adjacency over a column index space, which is how an MPC shard runs the
same kernels on its own rows.  The bulk algorithms in
:mod:`repro.mis.bulk` and Algorithm 1's fast engine
(:func:`repro.core.bounded_arb.bounded_arb_independent_set`) are thin
compositions of these kernels; adding a new bulk algorithm means writing only its
key/marking rule (docs/columnar_substrate.md walks through one).

Everything here is a pure function of its arguments — no wall clocks, no
global state — so the substrate inherits the determinism contract the
lint enforces for the scalar engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.errors import NotAnIndependentSetError, NotMaximalError
from repro.graphs.csr import CSRGraph
from repro.rng import priority_array

__all__ = [
    "RowView",
    "segment_max",
    "segment_sum",
    "neighbor_max",
    "neighbor_sum",
    "neighbor_count",
    "neighbor_any",
    "spread_to_neighbors",
    "keyed_priorities",
    "keyed_uniforms",
    "degenerate_draw",
    "strict_local_max",
    "exact_competition",
    "masked_competition",
    "eliminate_winners_bulk",
    "validate_mis_csr",
]


# -- row views ---------------------------------------------------------------


@dataclass(frozen=True)
class RowView:
    """Some rows of a graph's adjacency, over a column index space.

    ``indptr`` and ``indices`` are the rows' adjacency, with neighbors as
    column indices; ``key_ids`` is each column's keyed-randomness
    identity; ``n`` counts the whole graph's nodes; ``rows`` places the
    rows among the columns.  Per-node arrays passed to the kernels are
    indexed by column, and results come back for the rows.
    :meth:`whole` views the whole graph (``graph``), where rows are the
    columns — the bulk engines.  An MPC shard views its own rows over its
    ``support`` (own positions plus ghosts, in global order).
    """

    indptr: np.ndarray
    indices: np.ndarray
    key_ids: np.ndarray
    n: int
    rows: slice
    support: Optional[np.ndarray] = None
    graph: Optional[CSRGraph] = None

    @classmethod
    def whole(cls, csr: CSRGraph) -> "RowView":
        return cls(csr.indptr, csr.indices, csr.key_ids, csr.n, slice(None), graph=csr)

    def positions(self) -> np.ndarray:
        """Global position of each column."""
        if self.support is None:
            return np.arange(self.n, dtype=np.int64)
        return self.support


#: Anything the neighborhood kernels reduce over (``indptr``/``indices``).
Adjacency = Union[CSRGraph, RowView]


# -- segment reductions ------------------------------------------------------


def segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment maximum; empty segments get 0.

    ``reduceat`` quirks handled here: an empty segment would otherwise
    report ``values[start]`` instead of an identity, and a trailing empty
    segment's start index (== ``values.size``) would be out of bounds.
    The out-of-bounds start is kept in range by padding ``values`` with
    one identity element, never by clipping the start: clipping would
    shift the *previous* segment's end boundary and silently drop its
    last element from the reduction.  Empty-segment garbage is discarded
    by the ``nonempty`` mask.
    """
    result = np.zeros(len(indptr) - 1, dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size:
        padded = np.concatenate([values, np.zeros(1, dtype=values.dtype)])
        maxima = np.maximum.reduceat(padded, indptr[:-1])
        result[nonempty] = maxima[nonempty]
    return result


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments get 0.

    Summation is sequential in ascending index order (``add.reduceat``),
    which for float inputs fixes one definite association order — see the
    effective-degree note in docs/columnar_substrate.md.
    """
    result = np.zeros(len(indptr) - 1, dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size:
        # Same identity-padding scheme as segment_max (see its docstring
        # for why clipping the starts would be wrong).
        padded = np.concatenate([values, np.zeros(1, dtype=values.dtype)])
        sums = np.add.reduceat(padded, indptr[:-1])
        result[nonempty] = sums[nonempty]
    return result


def neighbor_max(values: np.ndarray, csr: Adjacency) -> np.ndarray:
    """Per-node maximum of ``values`` over its neighbors (0 if none)."""
    return segment_max(values[csr.indices], csr.indptr)


def neighbor_sum(values: np.ndarray, csr: Adjacency) -> np.ndarray:
    """Per-node sum of ``values`` over its neighbors (0 if none)."""
    return segment_sum(values[csr.indices], csr.indptr)


def neighbor_count(mask: np.ndarray, csr: Adjacency) -> np.ndarray:
    """Per-node count of flagged neighbors."""
    return segment_sum(mask[csr.indices].astype(np.int64), csr.indptr)


def neighbor_any(mask: np.ndarray, csr: Adjacency) -> np.ndarray:
    """Per-node boolean: does any neighbor carry the flag?"""
    return neighbor_max(mask.astype(np.uint8), csr).astype(bool)


def spread_to_neighbors(mask: np.ndarray, csr: CSRGraph) -> np.ndarray:
    """Boolean mask of nodes adjacent to a flagged node (O(m) scatter)."""
    out = np.zeros(csr.n, dtype=bool)
    if mask.any():
        edge_flag = np.repeat(mask, csr.degrees())
        out[csr.indices[edge_flag]] = True
    return out


# -- keyed randomness --------------------------------------------------------


def keyed_priorities(
    csr: Adjacency, seed: int, iteration: int, tag: int = 0
) -> np.ndarray:
    """All nodes' 64-bit priorities for one iteration, in column order.

    Bit-identical to ``priority_draw(seed, label, iteration, tag)`` per
    node on integer-labeled graphs (``key_ids`` holds the labels).
    """
    return priority_array(seed, csr.key_ids, iteration, tag)


def keyed_uniforms(
    csr: Adjacency, seed: int, iteration: int, tag: int = 0
) -> np.ndarray:
    """All nodes' uniform [0, 1) draws, bit-identical to ``uniform_draw``.

    Same construction as the scalar path: top 53 bits of the keyed hash
    scaled by 2⁻⁵³ — both steps exact in float64, so the comparison
    against any threshold lands on the same side in both engines.
    """
    raw = keyed_priorities(csr, seed, iteration, tag)
    return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


# -- competition step --------------------------------------------------------


def degenerate_draw(keys: np.ndarray, contenders: np.ndarray) -> bool:
    """Does this draw need the exact rule: a zero or repeated contender key?

    The check is global — two contenders anywhere holding equal keys make
    the draw degenerate — so it runs over the whole graph, never a shard.
    For hash-drawn keys it holds with probability ≤ n²/2⁶⁴ per iteration;
    id-embedding encodings never trigger it.
    """
    values = keys[contenders]
    return bool((values == 0).any()) or len(np.unique(values)) != values.size


def strict_local_max(
    contenders: np.ndarray,
    keys: np.ndarray,
    adjacency: Adjacency,
    rows: slice = slice(None),
) -> np.ndarray:
    """The fast path: contenders among ``rows`` whose key strictly exceeds
    every neighbor's.  Exact whenever the draw is not degenerate."""
    return contenders[rows] & (keys[rows] > neighbor_max(keys, adjacency))


def exact_competition(
    csr: CSRGraph,
    contenders: np.ndarray,
    blockers: np.ndarray,
    exact_key: Callable[[int], Tuple],
) -> np.ndarray:
    """The exact scalar rule, for degenerate draws.

    ``exact_key`` maps a position to the full comparison tuple (ending in
    the tiebreak id, so keys are unique); a contender wins iff its tuple
    beats every neighboring blocker's.  This reproduces the scalar
    engines' ``(priority, id)`` comparison bit for bit.
    """
    winners = np.zeros(csr.n, dtype=bool)
    indptr, indices = csr.indptr, csr.indices
    for i in np.nonzero(contenders)[0]:
        key = exact_key(i)
        beats_all = True
        for j in indices[indptr[i] : indptr[i + 1]]:
            if blockers[j] and exact_key(int(j)) >= key:
                beats_all = False
                break
        winners[i] = beats_all
    return winners


def masked_competition(
    csr: CSRGraph,
    contenders: np.ndarray,
    keys: np.ndarray,
    blockers: Optional[np.ndarray] = None,
    exact_key: Optional[Callable[[int], Tuple]] = None,
) -> np.ndarray:
    """Winners of one competition step: contenders beating every neighbor.

    ``keys`` is a uint64 array where every non-participant holds 0 and
    participants hold a value whose numeric order equals their scalar key
    order.  A non-degenerate draw takes :func:`strict_local_max`; a
    degenerate one runs :func:`exact_competition` with ``exact_key`` and
    ``blockers`` (default: contenders — the nodes whose keys can dominate
    a neighbor).
    """
    if blockers is None:
        blockers = contenders
    if not degenerate_draw(keys, contenders):
        return strict_local_max(contenders, keys, csr)
    if exact_key is None:
        raise ValueError("degenerate keys need an exact_key fallback")
    return exact_competition(csr, contenders, blockers, exact_key)


def eliminate_winners_bulk(
    csr: CSRGraph, active: np.ndarray, winners: np.ndarray
) -> np.ndarray:
    """Remove winners and their active neighbors from ``active`` (in place).

    Returns the eliminated mask (winners ∪ their active neighbors) — the
    vectorized twin of :func:`repro.mis.engine.eliminate_winners`.
    """
    eliminated = (winners | spread_to_neighbors(winners, csr)) & active
    active &= ~eliminated
    return eliminated


# -- validation --------------------------------------------------------------


def validate_mis_csr(csr: CSRGraph, members: np.ndarray) -> None:
    """Assert ``members`` (a position mask) is an MIS of ``csr``.

    The O(n + m) columnar twin of ``repro.mis.validation.assert_valid_mis``
    for graphs that never materialize as ``networkx`` objects (the n = 10⁷
    benchmark path).
    """
    conflict = members & neighbor_any(members, csr)
    if conflict.any():
        position = int(np.nonzero(conflict)[0][0])
        raise NotAnIndependentSetError(
            f"adjacent members around position {position}"
        )
    undominated = ~members & ~neighbor_any(members, csr)
    if undominated.any():
        position = int(np.nonzero(undominated)[0][0])
        raise NotMaximalError(
            f"position {position} is neither a member nor dominated"
        )
