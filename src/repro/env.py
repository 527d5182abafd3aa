"""Parsing of the numeric ``REPRO_*`` environment knobs.

Every numeric knob (``REPRO_MPC_SHARDS``, ``REPRO_SWEEP_RETRIES``,
``REPRO_SERVE_QUEUE_LIMIT``, ...) reads through :func:`env_number`, so a
malformed value fails the same way everywhere: a
:class:`~repro.errors.ConfigurationError` that names the variable.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Optional, TypeVar

from repro.errors import ConfigurationError

__all__ = ["env_number"]

T = TypeVar("T", int, float)


def env_number(
    name: str,
    default: Optional[T],
    kind: Callable[[str], T] = int,
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[T]:
    """``kind(environ[name])``, or ``default`` when unset or blank.

    ``environ`` defaults to :data:`os.environ`; ``kind`` is ``int`` or
    ``float``.
    """
    env = os.environ if environ is None else environ
    raw = env.get(name, "").strip()
    if not raw:
        return default
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name} must be {expected}, got {raw!r}") from None
