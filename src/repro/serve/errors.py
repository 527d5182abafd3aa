"""Typed, catchable errors of the serving layer.

Every failure a request can experience maps to one :class:`ServiceError`
subclass carrying a stable machine-readable ``code``, a ``retryable``
flag, and (for admission rejections) a ``retry_after_s`` hint.  The
service **never** lets an engine exception tear down the event loop:
engine-raised :class:`~repro.errors.AlgorithmError`,
:class:`~repro.errors.CommBudgetExceededError`, and friends are wrapped
in :class:`EngineFailure` at the executor boundary and travel back to the
caller as a structured failure response while the server keeps serving
(a regression test pins this for a budget-exceeded MPC request).

The hierarchy doubles as the degradation-ladder vocabulary
(docs/serving.md): ``engine-failed`` (repeated, it opens the session's
circuit) is where queries fall back to the session's committed snapshot
served stale, and ``queue-full`` and ``circuit-open`` are the
explicit-backpressure answers to mutations — a request is always
answered, never silently dropped.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ReproError

__all__ = [
    "ServiceError",
    "QueueFullError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "SessionNotFoundError",
    "SessionExistsError",
    "BadRequestError",
    "EngineFailure",
    "wrap_engine_error",
]


class ServiceError(ReproError):
    """Base class for every failure the serving layer reports.

    ``code`` is the stable wire identifier; ``retryable`` tells a client
    whether re-submitting the same request can succeed; ``retry_after_s``
    (when not None) is the server's backoff hint.
    """

    code = "service-error"
    retryable = False
    http_status = 500

    def __init__(self, message: str, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of this error (rides in ``Response.error``)."""
        out: Dict[str, Any] = {
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }
        if self.retry_after_s is not None:
            out["retry_after_s"] = round(self.retry_after_s, 4)
        return out


class QueueFullError(ServiceError):
    """Admission queue hit its high watermark — explicit backpressure.

    The request was rejected *before* consuming compute; the client
    should back off ``retry_after_s`` seconds and retry.
    """

    code = "queue-full"
    retryable = True
    http_status = 429


class DeadlineExceededError(ServiceError):
    """The request's deadline elapsed (queued or mid-computation).

    Cooperative cancellation: the engine loop checks an abort flag
    between iterations, so an expired request stops consuming CPU at the
    next iteration boundary instead of running to completion.
    """

    code = "deadline-exceeded"
    retryable = True
    http_status = 504


class CircuitOpenError(ServiceError):
    """The session's circuit breaker is open after repeated engine
    failures; compute is refused until the reset window elapses."""

    code = "circuit-open"
    retryable = True
    http_status = 503


class SessionNotFoundError(ServiceError):
    """No graph session registered under the requested name."""

    code = "session-not-found"
    http_status = 404


class SessionExistsError(ServiceError):
    """A session with the requested name already exists."""

    code = "session-exists"
    http_status = 409


class BadRequestError(ServiceError):
    """The request itself is malformed (unknown op, bad mutation, ...)."""

    code = "bad-request"
    http_status = 400


class EngineFailure(ServiceError):
    """An engine raised while computing; the original error is preserved.

    ``cause_type`` names the wrapped exception class (for example
    ``CommBudgetExceededError``) so clients can distinguish a
    communication-budget overflow from a protocol-invariant violation
    without parsing messages.
    """

    code = "engine-failed"
    retryable = True
    http_status = 502

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause
        self.cause_type = type(cause).__name__ if cause is not None else None

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        if self.cause_type is not None:
            out["cause"] = self.cause_type
        return out


def wrap_engine_error(exc: BaseException) -> EngineFailure:
    """Wrap an engine-raised exception as a structured, catchable failure.

    Used at the executor boundary so a :class:`CommBudgetExceededError`
    (or any :class:`AlgorithmError`/:class:`SimulationError`) becomes a
    typed service error instead of an event-loop-killing traceback.
    """
    return EngineFailure(
        f"engine raised {type(exc).__name__}: {exc}", cause=exc
    )
