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

Each algorithm is defined once, as a :class:`BulkAlgorithm`: its extra
per-node state, its stages (pure functions over a
:class:`~repro.mis.csr.RowView`), its iteration default, its progress
rule and its result extras.  Two drivers run the definitions: the bulk
loop :func:`_run_bulk` over the whole graph, and the sharded MPC
coordinator (:mod:`repro.mpc.runtime`) over each shard's rows.  The table
:data:`ALGORITHMS` holds the four:

* ``metivier`` — the Métivier et al. priority process;
* ``luby-a`` — Luby's Algorithm A (``{1..n⁴}`` priorities);
* ``luby-b`` — Luby's Algorithm B (degree-based marking);
* ``ghaffari`` — Ghaffari's desire-level algorithm.

Each is registered in :mod:`repro.mis.registry` as ``<name>-bulk`` (the
engines in :data:`ENGINES`, selectable through ``REPRO_MIS_ENGINE=bulk``)
and ``<name>-mpc``.  Every bulk engine has the call shape
``fn(graph, seed=0, max_iterations=..., tracer=None)`` and accepts either
a :class:`networkx.Graph` (any hashable node labels — labels are mapped to
dense positions once and translated back in ``MISResult.mis``) or a
prebuilt :class:`~repro.graphs.csr.CSRGraph`, which is what powers the
n = 10⁷ rows of E16/E17 without ever building a ``networkx`` object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.mis.csr import (
    Adjacency,
    RowView,
    degenerate_draw,
    eliminate_winners_bulk,
    exact_competition,
    keyed_priorities,
    keyed_uniforms,
    masked_competition,
    neighbor_any,
    neighbor_count,
    neighbor_sum,
    strict_local_max,
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
    "BulkAlgorithm",
    "Stage",
    "StateField",
    "ALGORITHMS",
    "ENGINES",
    "metivier_mis_bulk",
    "luby_a_mis_bulk",
    "luby_b_mis_bulk",
    "ghaffari_mis_bulk",
]

_UINT64_CARDINALITY = 1 << 64

#: ``kernel(name)`` closes the stage's open kernel span and opens ``name``
#: (None: open nothing).  A no-op when tracing is off and on MPC shards.
Kernel = Callable[[Optional[str]], None]

#: ``compute(view, state, seed, iteration, kernel)``: ``state`` maps each
#: state field (``active`` plus the algorithm's extras) to its values in
#: the view's column order; the result maps ``"winners"`` and/or updated
#: state fields to values for the view's rows.  Pure: ``state`` is read,
#: never written.
StageFn = Callable[
    [RowView, Dict[str, np.ndarray], int, int, Kernel], Dict[str, np.ndarray]
]


@dataclass(frozen=True)
class StateField:
    """An extra per-node state field an algorithm carries across rounds."""

    name: str
    initial: int
    #: Narrow dtype the MPC runtime ships and mirrors the field in.
    wire: type


@dataclass(frozen=True)
class Stage:
    """One step of an iteration.

    ``name`` is the MPC phase (and its span's ``stage`` label);
    ``exchange`` lists the state fields shards trade across the cut
    before the stage runs.  ``audit(csr, active, seed, iteration)``, when
    set, is the global degenerate-draw check a shard cannot run: it
    returns the exact winner mask for a degenerate draw, else None.
    """

    name: str
    compute: StageFn
    exchange: Tuple[str, ...] = ("active",)
    audit: Optional[
        Callable[[CSRGraph, np.ndarray, int, int], Optional[np.ndarray]]
    ] = None


@dataclass(frozen=True)
class BulkAlgorithm:
    """One columnar MIS algorithm, as every array engine runs it.

    The final stage yields the winners.  With ``require_progress`` an
    iteration without a winner raises :class:`~repro.errors.AlgorithmError`
    — for the priority processes the maximum active key always wins, so
    that is an engine bug, never a silent non-maximal set.
    ``result_extra(history, n)`` adds algorithm-specific result fields.
    """

    name: str
    title: str
    stages: Tuple[Stage, ...]
    fields: Tuple[StateField, ...] = ()
    max_iterations: int = 10_000
    require_progress: bool = False
    result_extra: Callable[[List[int], int], Dict[str, Any]] = lambda history, n: {}

    def stage(self, name: str) -> Stage:
        return next(stage for stage in self.stages if stage.name == name)

    def check_progress(self, engine: str, iteration: int, winners: np.ndarray) -> None:
        if self.require_progress and not winners.any():
            raise AlgorithmError(
                f"{engine} made no progress with nodes still active "
                f"(iteration {iteration}) — engine invariant violated"
            )


# -- priority competitions (Métivier, Luby A) --------------------------------


@dataclass(frozen=True)
class _Priority:
    """A competition on keyed priorities, where draws can tie.

    ``keys(raw, n)`` maps the 64-bit draws to uint64 keys whose numeric
    order is the scalar priority order.  A node wins iff its
    ``(priority, id)`` exceeds every active neighbor's.  The fast path
    compares keys; a draw holding a duplicate or zero active key (a
    ≤ n²/2⁶⁴ event) takes the exact tuple rule instead.
    """

    keys: Callable[[np.ndarray, int], np.ndarray]

    def masked(self, view: Adjacency, active, seed: int, iteration: int) -> np.ndarray:
        # Inactive nodes play 0 so they never beat anyone; a genuine zero
        # key is routed through the exact fallback.
        keys = self.keys(keyed_priorities(view, seed, iteration), view.n)
        return np.where(active, keys, np.uint64(0))

    @staticmethod
    def _exact_key(csr: CSRGraph, masked: np.ndarray):
        return lambda i: (int(masked[i]), csr.tiebreak_id(i))

    def winners(self, view: RowView, state, seed, iteration, kernel):
        active = state["active"].astype(bool, copy=False)
        kernel(SPAN_KERNEL_DRAW)
        masked = self.masked(view, active, seed, iteration)
        kernel(SPAN_KERNEL_COMPETE)
        if view.graph is None:
            # A shard: the coordinator ran ``audit`` on the whole graph,
            # so the draw is known not to be degenerate.
            return {"winners": strict_local_max(active, masked, view, view.rows)}
        return {
            "winners": masked_competition(
                view.graph,
                contenders=active,
                keys=masked,
                blockers=active,
                exact_key=self._exact_key(view.graph, masked),
            )
        }

    def audit(self, csr: CSRGraph, active, seed, iteration) -> Optional[np.ndarray]:
        masked = self.masked(csr, active, seed, iteration)
        if not degenerate_draw(masked, active):
            return None
        return exact_competition(csr, active, active, self._exact_key(csr, masked))

    def stage(self) -> Stage:
        return Stage("winners", self.winners, audit=self.audit)


def _luby_a_keys(raw: np.ndarray, n: int) -> np.ndarray:
    """Scalar priorities are ``1 + draw mod n⁴``.  For n⁴ < 2⁶⁴ the
    modulus is computed in uint64; beyond that every 64-bit draw is below
    n⁴, so the raw draw already has the scalar priority's order."""
    range_size = max(1, n) ** 4
    if range_size < _UINT64_CARDINALITY:
        return np.mod(raw, np.uint64(range_size)) + np.uint64(1)
    return raw


METIVIER = BulkAlgorithm(
    name="metivier",
    title="Métivier MIS",
    stages=(_Priority(lambda raw, n: raw).stage(),),
    require_progress=True,
)

LUBY_A = BulkAlgorithm(
    name="luby-a",
    title="Luby Algorithm A",
    stages=(_Priority(_luby_a_keys).stage(),),
    require_progress=True,
)


# -- Luby B: degree-based marking --------------------------------------------


def _luby_b_degrees(view: RowView, state, seed, iteration, kernel):
    """Each row's active degree (0 for inactive rows)."""
    active = state["active"].astype(bool, copy=False)
    kernel(SPAN_KERNEL_DEGREES)
    degrees = neighbor_count(active, view)
    degrees[~active[view.rows]] = 0
    return {"degree": degrees}


def _luby_b_winners(view: RowView, state, seed, iteration, kernel):
    """Marked nodes beating every marked neighbor on ``(degree, id)``.

    The scalar key ``(marked, active_degree, id)`` is encoded into one
    uint64 as ``degree·n + position + 1`` for marked nodes and 0 for
    everyone else: positions are assigned in sorted-label order, so the
    encoding's numeric order equals the tuple order, and embedding the
    position makes keys unique — the fast path is always exact.  Marking
    coins replicate the scalar float comparison bit for bit.
    """
    active = state["active"].astype(bool, copy=False)
    degrees = state["degree"].astype(np.int64, copy=False)
    kernel(SPAN_KERNEL_DRAW)
    uniforms = keyed_uniforms(view, seed, iteration, tag=_LUBY_B_TAG)
    # Scalar coin: p = 1/(2d), or certainty when the active degree is 0.
    thresholds = 1.0 / (2.0 * np.maximum(degrees, 1).astype(np.float64))
    marked = active & ((degrees == 0) | (uniforms < thresholds))
    kernel(SPAN_KERNEL_COMPETE)
    keys = np.where(
        marked,
        degrees.astype(np.uint64) * np.uint64(view.n)
        + view.positions().astype(np.uint64)
        + np.uint64(1),
        np.uint64(0),
    )
    return {"winners": strict_local_max(marked, keys, view, view.rows)}


# Iterations where no node marks itself legitimately select no winner (the
# scalar engine idles the same way), so only max_iterations bounds the loop.
LUBY_B = BulkAlgorithm(
    name="luby-b",
    title="Luby Algorithm B",
    stages=(
        Stage("degrees", _luby_b_degrees),
        # Degrees must cross the cut before keys can be compared across it.
        Stage("winners", _luby_b_winners, exchange=("degree",)),
    ),
    fields=(StateField("degree", 0, np.int32),),
)


# -- Ghaffari: desire levels -------------------------------------------------


def _ghaffari_winners(view: RowView, state, seed, iteration, kernel):
    """Marked nodes with no marked neighbor, plus the desire update.

    Desire levels stay in exponent form (p = 2⁻ʲ, j ∈ [1, 60]); marking
    coins, the no-marked-neighbor join rule, and the effective-degree
    update are all segment reductions.  Effective degrees are sums of
    exact powers of two accumulated in ascending neighbor order — see
    docs/columnar_substrate.md for why this matches the scalar engine.
    """
    active = state["active"].astype(bool, copy=False)
    exponents = state["exponent"].astype(np.int64, copy=False)
    rows = view.rows
    kernel(SPAN_KERNEL_DRAW)
    # Exact 2^-j; exponents are in [1, _MIN_EXPONENT = 60], so int32 holds them.
    desires = np.ldexp(1.0, -exponents.astype(np.int32))  # repro: lint-ignore[S3]
    uniforms = keyed_uniforms(view, seed, iteration, tag=_MARK_TAG)
    marked = active & (uniforms < desires)
    kernel(SPAN_KERNEL_COMPETE)
    winners = marked[rows] & ~neighbor_any(marked, view)
    kernel(SPAN_KERNEL_DEGREES)
    # Desire update against the pre-elimination neighborhood, as in the
    # paper: d_t(v) sums this iteration's p values.
    effective = neighbor_sum(np.where(active, desires, 0.0), view)
    own = exponents[rows]
    raised = np.minimum(_MIN_EXPONENT, own + 1)
    lowered = np.maximum(1, own - 1)
    updated = np.where(
        active[rows], np.where(effective >= 2.0, raised, lowered), own
    )
    return {"winners": winners, "exponent": updated}


GHAFFARI = BulkAlgorithm(
    name="ghaffari",
    title="Ghaffari desire-level MIS",
    stages=(Stage("winners", _ghaffari_winners, exchange=("active", "exponent")),),
    fields=(StateField("exponent", 1, np.int8),),
    max_iterations=20_000,
    result_extra=lambda history, n: {
        "iterations_to_shatter": shatter_iteration(history, n)
    },
)

#: name -> definition, for every columnar algorithm.
ALGORITHMS: Dict[str, BulkAlgorithm] = {
    a.name: a for a in (METIVIER, LUBY_A, LUBY_B, GHAFFARI)
}


# -- the bulk driver ---------------------------------------------------------


def _run_bulk(
    algorithm: BulkAlgorithm,
    csr: CSRGraph,
    seed: int,
    max_iterations: int,
    tracer,
) -> MISResult:
    """Run ``algorithm``'s stages over the whole graph until no node is active.

    Owns the iteration spans, ``active_history``, winner absorption and
    elimination, and the partial-result contract (``extra["completed"]``
    is False when ``max_iterations`` ran out).
    """
    engine = f"{algorithm.name}-bulk"
    n = csr.n
    if n == 0:
        return MISResult(mis=set(), iterations=0, algorithm=engine, seed=seed)

    view = RowView.whole(csr)
    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    state: Dict[str, np.ndarray] = {"active": active}
    for spec in algorithm.fields:
        state[spec.name] = np.full(n, spec.initial, dtype=np.int64)
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
        for stage in algorithm.stages:
            outputs = stage.compute(view, state, seed, iteration, kernel)
            winners = outputs.pop("winners", None)
            for name, values in outputs.items():
                state[name][:] = values
        kernel(None)
        algorithm.check_progress(engine, iteration, winners)
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
    payload.update(algorithm.result_extra(history, n))
    return MISResult(
        mis=csr.label_set(in_mis),
        iterations=iteration,
        algorithm=engine,
        seed=seed,
        active_history=history,
        extra=payload,
    )


def _bulk_engine(algorithm: BulkAlgorithm) -> Callable[..., MISResult]:
    def engine(
        graph: Union[nx.Graph, CSRGraph],
        seed: int = 0,
        max_iterations: int = algorithm.max_iterations,
        tracer=None,
    ) -> MISResult:
        csr = graph if isinstance(graph, CSRGraph) else csr_from_graph(graph)
        return _run_bulk(algorithm, csr, seed, max_iterations, tracer)

    engine.__name__ = engine.__qualname__ = (
        f"{algorithm.name.replace('-', '_')}_mis_bulk"
    )
    engine.__doc__ = (
        f"Vectorized {algorithm.title}, bit-identical to the scalar engine.\n\n"
        "Exhausting ``max_iterations`` returns the partial result with\n"
        '``extra["completed"] = False`` — the scalar engine\'s contract.'
    )
    return engine


#: ``<name>-bulk`` -> engine, for every definition in :data:`ALGORITHMS`.
ENGINES: Dict[str, Callable[..., MISResult]] = {
    f"{name}-bulk": _bulk_engine(algorithm) for name, algorithm in ALGORITHMS.items()
}

metivier_mis_bulk = ENGINES["metivier-bulk"]
luby_a_mis_bulk = ENGINES["luby-a-bulk"]
luby_b_mis_bulk = ENGINES["luby-b-bulk"]
ghaffari_mis_bulk = ENGINES["ghaffari-bulk"]
