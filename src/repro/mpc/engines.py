"""Registry-facing entry points: the ``<name>-mpc`` MIS engines.

One engine per definition in :data:`repro.mis.bulk.ALGORITHMS`, with the
same call shape as its scalar and bulk twins
(``fn(graph, seed=0, max_iterations=...)``) so it can slot into
:mod:`repro.mis.registry`, sweeps, and the CLI unchanged, while passing
the sharded runtime's extra knobs (``shards``, ``workers``, ``budget``,
``failure_policy``, ``crashes``) through as keyword arguments.  Unset
knobs fall back to the ``REPRO_MPC_SHARDS`` / ``REPRO_MPC_WORKERS``
environment variables (defaults: 4 shards, inline execution), mirroring
how ``REPRO_MIS_ENGINE`` selects the engine itself.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.mis.bulk import ALGORITHMS, BulkAlgorithm
from repro.mis.engine import MISResult
from repro.mpc.runtime import run_sharded

__all__ = [
    "ENGINES",
    "metivier_mis_mpc",
    "luby_a_mis_mpc",
    "luby_b_mis_mpc",
    "ghaffari_mis_mpc",
]


def _mpc_engine(algorithm: BulkAlgorithm) -> Callable[..., MISResult]:
    def engine(
        graph, seed: int = 0, max_iterations: int = algorithm.max_iterations, **kwargs
    ) -> MISResult:
        return run_sharded(
            algorithm.name, graph, seed=seed, max_iterations=max_iterations, **kwargs
        )

    engine.__name__ = engine.__qualname__ = (
        f"{algorithm.name.replace('-', '_')}_mis_mpc"
    )
    engine.__doc__ = (
        f"Sharded {algorithm.title}, bit-identical to ``{algorithm.name}-bulk``."
    )
    return engine


#: ``<name>-mpc`` -> engine, for every definition in ``ALGORITHMS``.
ENGINES: Dict[str, Callable[..., MISResult]] = {
    f"{name}-mpc": _mpc_engine(algorithm) for name, algorithm in ALGORITHMS.items()
}

metivier_mis_mpc = ENGINES["metivier-mpc"]
luby_a_mis_mpc = ENGINES["luby-a-mpc"]
luby_b_mis_mpc = ENGINES["luby-b-mpc"]
ghaffari_mis_mpc = ENGINES["ghaffari-mpc"]
