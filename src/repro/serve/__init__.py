"""MIS-as-a-service: a resilient async serving layer over the library.

The package turns the batch reproduction pipeline into a long-running
service with incremental repair under churn:

* :mod:`repro.serve.incremental` — dynamic-graph sessions that keep
  the greedy MIS of one fixed priority order, repaired in waves that
  spread from the damaged nodes, with a full-recompute fallback that
  commits the same set;
* :mod:`repro.serve.server` — the protocol-agnostic asyncio core:
  bounded admission, deadlines with cooperative cancellation, keyed
  retry backoff, mutation coalescing, queries served from each
  session's committed snapshot (stale under overload), circuit
  breaking, health/readiness probes;
* :mod:`repro.serve.errors` — the typed failure vocabulary;
* :mod:`repro.serve.http` — a stdlib-only HTTP/JSON binding;
* :mod:`repro.serve.loadgen` — a deterministic seeded load generator
  (drives the E21 benchmark and the CI serve-smoke job).
"""

from repro.serve.errors import (
    BadRequestError,
    CircuitOpenError,
    DeadlineExceededError,
    EngineFailure,
    QueueFullError,
    ServiceError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.serve.incremental import (
    EpochReport,
    GraphSession,
    Mutation,
    UpdateRepairReport,
    apply_mutations,
    graph_fingerprint,
    update_repair,
)
from repro.serve.server import (
    MISService,
    Request,
    Response,
    ServeConfig,
)

__all__ = [
    "MISService",
    "Request",
    "Response",
    "ServeConfig",
    "GraphSession",
    "Mutation",
    "EpochReport",
    "UpdateRepairReport",
    "apply_mutations",
    "update_repair",
    "graph_fingerprint",
    "ServiceError",
    "QueueFullError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "SessionNotFoundError",
    "SessionExistsError",
    "BadRequestError",
    "EngineFailure",
]
