"""Bulk (numpy-vectorized) MIS engines for large-n experiments.

The scalar fast engines (e.g. :func:`repro.mis.metivier.metivier_mis`)
loop over nodes in Python — fine up to n ≈ 10⁴, painful beyond.  The bulk
engines here run the same processes as masked array operations over the
shared columnar substrate (:mod:`repro.mis.csr` kernels over a
:class:`repro.graphs.csr.CSRGraph`), drawing the same keyed randomness
(:func:`repro.rng.priority_array` replicates the scalar splitmix64 chain
bit for bit), so each is **bit-identical** to its scalar twin — including
the astronomically-unlikely tie cases, which are detected per iteration
and resolved with the exact scalar tuple rule.

Four algorithms ride the substrate (all registered in
:mod:`repro.mis.registry` under ``<name>-bulk`` and selectable through the
``REPRO_MIS_ENGINE=bulk`` knob):

* :func:`metivier_mis_bulk` — the Métivier et al. priority process;
* :func:`luby_a_mis_bulk` — Luby's Algorithm A (``{1..n⁴}`` priorities);
* :func:`luby_b_mis_bulk` — Luby's Algorithm B (degree-based marking);
* :func:`ghaffari_mis_bulk` — Ghaffari's desire-level algorithm.

Every engine accepts either a :class:`networkx.Graph` (any hashable node
labels — labels are mapped to dense positions once and translated back in
``MISResult.mis``) or a prebuilt :class:`~repro.graphs.csr.CSRGraph`,
which is what powers the n = 10⁷ rows of E16/E17 without ever building a
``networkx`` object.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.mis.csr import (
    eliminate_winners_bulk,
    keyed_priorities,
    keyed_uniforms,
    masked_competition,
    neighbor_any,
    neighbor_count,
    neighbor_sum,
    segment_max as _segment_max,  # re-exported for backward compatibility
)
from repro.mis.engine import MISResult

# The rng tags are the algorithm definitions' — shared with the scalar and
# CONGEST engines so all three draw from identical streams.
from repro.mis.ghaffari import _MARK_TAG, _MIN_EXPONENT, shatter_iteration
from repro.mis.luby import _LUBY_B_TAG
from repro.obs.trace import (
    SPAN_BULK_ITERATION,
    SPAN_KERNEL_COMPETE,
    SPAN_KERNEL_DEGREES,
    SPAN_KERNEL_DRAW,
    SPAN_KERNEL_ELIMINATE,
    SPAN_RUN,
)

__all__ = [
    "csr_adjacency",
    "metivier_mis_bulk",
    "luby_a_mis_bulk",
    "luby_b_mis_bulk",
    "ghaffari_mis_bulk",
]

_UINT64_CARDINALITY = 1 << 64


def _as_csr(graph: Union[nx.Graph, CSRGraph]) -> CSRGraph:
    if isinstance(graph, CSRGraph):
        return graph
    return csr_from_graph(graph)


def csr_adjacency(graph: nx.Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(node_ids, indptr, indices)`` (legacy interface).

    ``indices`` stores positions into ``node_ids`` (not raw labels).  Kept
    for callers of the original Métivier-only module; new code should use
    :func:`repro.graphs.csr.csr_from_graph`, which this wraps.  Unlike the
    original, it accepts arbitrary hashable node labels (``node_ids``
    comes back as an object array when labels are not integers).
    """
    csr = csr_from_graph(graph)
    if isinstance(csr.labels, np.ndarray):
        node_ids = csr.labels
    else:
        node_ids = np.array(csr.labels, dtype=object)
    return node_ids, csr.indptr, csr.indices


#: One bulk iteration: ``step(iteration, active, kernel)`` returns the
#: winner mask.  ``kernel(name)`` closes the step's open kernel span and
#: opens ``name`` (a no-op when tracing is off).
BulkStep = Callable[[int, np.ndarray, Callable[[str], None]], np.ndarray]


def _run_bulk(
    csr: CSRGraph,
    algorithm: str,
    seed: int,
    max_iterations: int,
    tracer,
    step: BulkStep,
    require_progress: bool,
    extra: Optional[Callable[[List[int]], Dict[str, Any]]] = None,
) -> MISResult:
    """The bulk competition loop shared by the four engines.

    Owns the iteration spans, ``active_history``, winner absorption and
    elimination, and the partial-result contract (``extra["completed"]``
    is False when ``max_iterations`` ran out).  With ``require_progress``
    an iteration without a winner raises
    :class:`~repro.errors.AlgorithmError` — for the priority processes the
    maximum active key always wins, so that is an engine bug, never a
    silent non-maximal set.  ``extra(history)`` adds algorithm-specific
    result fields.
    """
    n = csr.n
    if n == 0:
        return MISResult(mis=set(), iterations=0, algorithm=algorithm, seed=seed)

    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    history: List[int] = []
    iteration = 0
    kernel_span = None

    def kernel(name: Optional[str]) -> None:
        nonlocal kernel_span
        if tracer is None:
            return
        if kernel_span is not None:
            tracer.end(kernel_span)
        kernel_span = None if name is None else tracer.begin(name, round=iteration)

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    while active.any() and iteration < max_iterations:
        history.append(int(active.sum()))
        it_span = (
            tracer.begin(SPAN_BULK_ITERATION, round=iteration)
            if tracer is not None
            else None
        )
        winners = step(iteration, active, kernel)
        kernel(None)
        if require_progress and not winners.any():
            raise AlgorithmError(
                f"{algorithm} made no progress with nodes still active "
                f"(iteration {iteration}) — engine invariant violated"
            )
        kernel(SPAN_KERNEL_ELIMINATE)
        in_mis |= winners
        eliminate_winners_bulk(csr, active, winners)
        if tracer is not None:
            tracer.end(kernel_span, winners=int(winners.sum()))
            kernel_span = None
            tracer.end(it_span, active=history[-1])
        iteration += 1

    if tracer is not None:
        tracer.end(run_span, iterations=iteration)
    payload: Dict[str, Any] = {"completed": not bool(active.any())}
    if extra is not None:
        payload.update(extra(history))
    return MISResult(
        mis=csr.label_set(in_mis),
        iterations=iteration,
        algorithm=algorithm,
        seed=seed,
        active_history=history,
        extra=payload,
    )


def metivier_mis_bulk(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 10_000,
    tracer=None,
) -> MISResult:
    """Vectorized Métivier MIS, bit-identical to the scalar fast engine.

    Winner rule per iteration: active node wins iff its ``(priority, id)``
    exceeds every active neighbor's.  The vectorized path compares raw
    priorities; iterations containing a duplicate or zero active priority
    (a ≤ n²/2⁶⁴ event) fall back to exact tuple comparison.

    Exhausting ``max_iterations`` returns the partial result with
    ``extra["completed"] = False`` — the same contract as the scalar
    engine.  An iteration that produces no winner while nodes remain
    active is impossible for this process (the maximum active key always
    wins) and raises :class:`~repro.errors.AlgorithmError` instead of
    silently returning a non-maximal set.
    """
    csr = _as_csr(graph)

    def step(iteration, active, kernel):
        kernel(SPAN_KERNEL_DRAW)
        priorities = keyed_priorities(csr, seed, iteration)
        # Inactive nodes play 0 so they never beat anyone; a genuine zero
        # priority is routed through the exact fallback.
        masked = np.where(active, priorities, np.uint64(0))
        kernel(SPAN_KERNEL_COMPETE)
        return masked_competition(
            csr,
            contenders=active,
            keys=masked,
            blockers=active,
            exact_key=lambda i: (int(masked[i]), csr.tiebreak_id(i)),
        )

    return _run_bulk(
        csr, "metivier-bulk", seed, max_iterations, tracer, step, require_progress=True
    )


def luby_a_mis_bulk(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 10_000,
    tracer=None,
) -> MISResult:
    """Vectorized Luby Algorithm A, bit-identical to the scalar engine.

    Scalar priorities are ``1 + draw mod n⁴``.  For n⁴ < 2⁶⁴ the modulus
    is computed in uint64; beyond that every 64-bit draw is below n⁴, so
    the raw draw already has the scalar priority's order and serves as the
    comparison key directly.  Ties (likelier than Métivier's since the
    range is n⁴) fall back to the exact ``(priority, id)`` rule.
    """
    csr = _as_csr(graph)
    range_size = max(1, csr.n) ** 4
    small_range = range_size < _UINT64_CARDINALITY

    def step(iteration, active, kernel):
        kernel(SPAN_KERNEL_DRAW)
        raw = keyed_priorities(csr, seed, iteration)
        if small_range:
            keys = np.mod(raw, np.uint64(range_size)) + np.uint64(1)
        else:
            keys = raw  # same order as 1 + raw, and 1 + raw == scalar
        masked = np.where(active, keys, np.uint64(0))
        kernel(SPAN_KERNEL_COMPETE)
        return masked_competition(
            csr,
            contenders=active,
            keys=masked,
            blockers=active,
            exact_key=lambda i: (1 + int(raw[i]) % range_size, csr.tiebreak_id(i)),
        )

    return _run_bulk(
        csr, "luby-a-bulk", seed, max_iterations, tracer, step, require_progress=True
    )


def luby_b_mis_bulk(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 10_000,
    tracer=None,
) -> MISResult:
    """Vectorized Luby Algorithm B (degree-based marking).

    The scalar key ``(marked, active_degree, id)`` is encoded into one
    uint64 as ``degree·n + position + 1`` for marked nodes and 0 for
    everyone else: positions are assigned in sorted-label order, so the
    encoding's numeric order equals the tuple order, and embedding the
    position makes keys unique — the fast path is always exact.  Marking
    coins replicate the scalar float comparison bit for bit.

    Iterations where no node marks itself legitimately select no winner
    (the scalar engine idles the same way), so only ``max_iterations``
    bounds the loop, with the scalar engine's partial-result contract.
    """
    csr = _as_csr(graph)
    n = csr.n
    positions = np.arange(n, dtype=np.uint64)

    def step(iteration, active, kernel):
        kernel(SPAN_KERNEL_DEGREES)
        degrees = neighbor_count(active, csr)
        degrees[~active] = 0
        kernel(SPAN_KERNEL_DRAW)
        uniforms = keyed_uniforms(csr, seed, iteration, tag=_LUBY_B_TAG)
        # Scalar coin: p = 1/(2d), or certainty when the active degree is 0.
        thresholds = 1.0 / (2.0 * np.maximum(degrees, 1).astype(np.float64))
        marked = active & ((degrees == 0) | (uniforms < thresholds))
        kernel(SPAN_KERNEL_COMPETE)
        keys = np.where(
            marked,
            degrees.astype(np.uint64) * np.uint64(n) + positions + np.uint64(1),
            np.uint64(0),
        )
        return masked_competition(
            csr,
            contenders=marked,
            keys=keys,
            blockers=active,
            exact_key=lambda i: (
                (1, int(degrees[i]), csr.tiebreak_id(i))
                if marked[i]
                else (0, 0, csr.tiebreak_id(i))
            ),
        )

    return _run_bulk(
        csr, "luby-b-bulk", seed, max_iterations, tracer, step, require_progress=False
    )


def ghaffari_mis_bulk(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 20_000,
    tracer=None,
) -> MISResult:
    """Vectorized Ghaffari desire-level MIS.

    Desire levels stay in exponent form (p = 2⁻ʲ, j ∈ [1, 60]); marking
    coins, the no-marked-neighbor join rule, and the effective-degree
    update are all segment reductions.  Effective degrees are sums of
    exact powers of two accumulated in ascending neighbor order — see
    docs/columnar_substrate.md for why this matches the scalar engine.
    """
    csr = _as_csr(graph)
    exponents = np.ones(csr.n, dtype=np.int64)

    def step(iteration, active, kernel):
        nonlocal exponents
        kernel(SPAN_KERNEL_DRAW)
        desires = np.ldexp(1.0, -exponents.astype(np.int32))  # exact 2^-j
        uniforms = keyed_uniforms(csr, seed, iteration, tag=_MARK_TAG)
        marked = active & (uniforms < desires)
        kernel(SPAN_KERNEL_COMPETE)
        winners = marked & ~neighbor_any(marked, csr)
        kernel(SPAN_KERNEL_DEGREES)
        # Desire update against the pre-elimination neighborhood, as in
        # the paper: d_t(v) sums this iteration's p values.
        effective = neighbor_sum(np.where(active, desires, 0.0), csr)
        raised = np.minimum(_MIN_EXPONENT, exponents + 1)
        lowered = np.maximum(1, exponents - 1)
        exponents = np.where(
            active, np.where(effective >= 2.0, raised, lowered), exponents
        )
        return winners

    return _run_bulk(
        csr,
        "ghaffari-bulk",
        seed,
        max_iterations,
        tracer,
        step,
        require_progress=False,
        extra=lambda history: {
            "iterations_to_shatter": shatter_iteration(history, csr.n)
        },
    )
