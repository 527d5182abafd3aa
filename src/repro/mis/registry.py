"""Name → algorithm registry used by benchmarks and examples.

Keeping the lookup here (instead of ad-hoc dicts inside each benchmark)
guarantees every table in EXPERIMENTS.md refers to the same implementations
under the same names.

Engines: every randomized algorithm registers its scalar fast engine under
its plain name and, when one exists, its columnar bulk engine
(:mod:`repro.mis.bulk`) under ``<name>-bulk``.  Since the engines are
bit-identical for equal seeds (tier-1 tested), a caller may also ask for a
name's bulk variant implicitly with ``REPRO_MIS_ENGINE=bulk`` (or
``get_algorithm(name, engine="bulk")``) — algorithms without a bulk engine
fall back to their scalar one, so the knob is safe to set globally for a
sweep.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

import networkx as nx

from repro.errors import ConfigurationError
from repro.mis.engine import MISResult

__all__ = [
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
    "available_node_programs",
    "get_node_program",
]

AlgorithmFn = Callable[..., MISResult]

_REGISTRY: Dict[str, AlgorithmFn] = {}


def register_algorithm(name: str, fn: AlgorithmFn) -> None:
    """Register ``fn`` under ``name`` (used by plugins/tests)."""
    if name in _REGISTRY:
        raise ConfigurationError(f"algorithm {name!r} already registered")
    _REGISTRY[name] = fn


def unregister_algorithm(name: str) -> None:
    """Remove a previously registered algorithm (no-op if absent)."""
    _REGISTRY.pop(name, None)


def _bootstrap() -> None:
    from repro.core.arb_mis import arb_mis
    from repro.mis import bulk
    from repro.mis.ghaffari import ghaffari_mis
    from repro.mis.lenzen_wattenhofer import lenzen_wattenhofer_tree_mis
    from repro.mis.luby import luby_a_mis, luby_b_mis
    from repro.mis.metivier import metivier_mis
    from repro.mis.tree import tree_mis
    from repro.mpc import engines as mpc

    defaults: Dict[str, AlgorithmFn] = {
        "luby-a": luby_a_mis,
        "luby-b": luby_b_mis,
        "metivier": metivier_mis,
        "ghaffari": ghaffari_mis,
        "tree-independent-set": tree_mis,
        "lenzen-wattenhofer": lenzen_wattenhofer_tree_mis,
        "arb-mis": arb_mis,
        # One definition per columnar algorithm yields both array engines.
        **bulk.ENGINES,
        **mpc.ENGINES,
    }
    for name, fn in defaults.items():
        if name not in _REGISTRY:
            _REGISTRY[name] = fn


def available_algorithms() -> List[str]:
    """Sorted names of every registered MIS algorithm."""
    _bootstrap()
    return sorted(_REGISTRY)


def available_node_programs() -> List[str]:
    """Names accepted by :func:`get_node_program`."""
    return ["metivier", "luby-a", "luby-b", "ghaffari", "arb-mis"]


def get_node_program(name: str, graph: nx.Graph, alpha: int = 2):
    """Instantiate the CONGEST node program registered under ``name``.

    Returns ``(program, max_rounds)`` — ``max_rounds`` is the program's
    fixed schedule length when it has one (BoundedArb), else None (run to
    quiescence).  This is the lookup the fault-injection path uses: unlike
    :func:`get_algorithm`'s fast engines, node programs execute through
    :class:`~repro.congest.simulator.SynchronousSimulator` and therefore
    honor crash schedules and message adversaries.
    """
    if name == "arb-mis":
        from repro.core.bounded_arb import BoundedArbNodeProgram
        from repro.core.parameters import compute_parameters
        from repro.graphs.properties import max_degree

        params = compute_parameters(alpha, max_degree(graph))
        program = BoundedArbNodeProgram(params)
        return program, program.total_rounds + 3

    from repro.mis.ghaffari import GhaffariMIS
    from repro.mis.luby import LubyAMIS, LubyBMIS
    from repro.mis.metivier import MetivierMIS

    phased = {
        "metivier": MetivierMIS,
        "luby-a": LubyAMIS,
        "luby-b": LubyBMIS,
        "ghaffari": GhaffariMIS,
    }
    try:
        return phased[name](), None
    except KeyError:
        raise ConfigurationError(
            f"unknown node program {name!r}; available: "
            f"{', '.join(available_node_programs())}"
        ) from None


def get_algorithm(name: str, engine: Optional[str] = None) -> AlgorithmFn:
    """Look up an algorithm by registry name.

    ``engine`` (default: the ``REPRO_MIS_ENGINE`` environment variable)
    selects between the bit-identical engines of a name: ``"scalar"`` (the
    plain registration), ``"bulk"`` (the columnar ``<name>-bulk``
    registration when present, scalar otherwise), or ``"mpc"`` (the
    sharded ``<name>-mpc`` registration when present, scalar otherwise —
    the shard count comes from ``REPRO_MPC_SHARDS``).

    >>> fn = get_algorithm("metivier")
    >>> import networkx as nx
    >>> result = fn(nx.path_graph(5), seed=1)
    >>> sorted(result.mis) in ([0, 2, 4], [0, 3], [1, 3], [1, 4])
    True
    """
    _bootstrap()
    if engine is None:
        engine = os.environ.get("REPRO_MIS_ENGINE", "").strip() or None
    if engine not in (None, "scalar", "bulk", "mpc"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; use 'scalar', 'bulk', or 'mpc'"
        )
    for suffix in ("bulk", "mpc"):
        if (
            engine == suffix
            and not name.endswith(f"-{suffix}")
            and f"{name}-{suffix}" in _REGISTRY
        ):
            name = f"{name}-{suffix}"
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None
