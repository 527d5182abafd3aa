"""Parallel, cached, observable sweep runtime.

:class:`SweepRunner` decomposes a sweep grid into independent
:class:`WorkUnit` cells and executes them

* **in parallel** over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``parallel=True``, the default; ``parallel=False`` preserves a
  single-process path for debugging),
* **resumably**, by consulting a :class:`~repro.analysis.cache.SweepCache`
  keyed by each unit's content fingerprint before executing anything, and
* **observably**, reporting a :class:`SweepProgress` snapshot to a
  pluggable callback after every completed point (the ``repro sweep``
  CLI's progress line is one such callback), and — when an
  :class:`~repro.obs.session.ObsSession` is attached or
  ``REPRO_OBS_DIR`` is set — emitting a manifest plus a JSONL event
  stream (``sweep-start`` / ``sweep-point`` / ``sweep-end``) that
  ``repro obs summary`` can reconstruct the sweep from after the fact.
  Point events are emitted in canonical grid order regardless of
  completion order, so same-seed streams are identical up to timestamps.

Fanning the grid out is sound because the keyed splitmix64/Philox scheme
of :mod:`repro.rng` makes every ``(seed, node, round, tag)`` draw
order-independent: a point's value is a pure function of its work unit,
so execution order and process boundaries cannot change any number.  The
parallel runner is therefore **bit-identical** to the serial one — a
property test pins this, the same way DESIGN.md §4 pins engine duality.

Algorithm callables that cannot be pickled (lambdas, closures, test
doubles) are detected up front and executed in the parent process while
the picklable majority fans out, so correctness never depends on how a
callable was defined.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import networkx as nx

from repro.analysis.cache import CellFailure, SweepCache, unit_fingerprint
from repro.analysis.sweep import SweepPoint, SweepResult
from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.env import env_number
from repro.errors import ConfigurationError
from repro.graphs.generators import GraphSpec
from repro.mis.engine import MISResult
from repro.mis.validation import assert_valid_mis
from repro.obs.events import (
    EVENT_SWEEP_END,
    EVENT_SWEEP_FAILURE,
    EVENT_SWEEP_POINT,
    EVENT_SWEEP_START,
)
from repro.obs.session import ObsSession, session_from_env
from repro.rng import derive_seed, uniform_draw

__all__ = [
    "WorkUnit",
    "SweepProgress",
    "SweepRunner",
    "FailurePolicy",
    "execute_unit",
]

AlgorithmFn = Callable[..., MISResult]
ProgressCallback = Callable[["SweepProgress"], None]


@dataclass(frozen=True)
class WorkUnit:
    """One independent cell of the sweep grid.

    ``kwargs`` is stored as a sorted tuple of items so the unit is
    hashable and its fingerprint canonical.
    """

    spec: GraphSpec
    n: int
    algorithm: str
    seed: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def fingerprint(self) -> str:
        """Content hash identifying this unit in the results store."""
        return unit_fingerprint(
            self.spec, self.n, self.algorithm, self.seed, dict(self.kwargs)
        )


@dataclass
class SweepProgress:
    """Telemetry snapshot passed to the progress callback after each point."""

    total: int
    done: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    elapsed: float = 0.0
    algorithm_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def points_per_second(self) -> float:
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    def render(self) -> str:
        """One-line human-readable progress string (used by the CLI)."""
        parts = [f"{self.done}/{self.total} points"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} failed")
        parts.append(f"{self.points_per_second:.1f} pts/s")
        return " | ".join(parts)


@dataclass(frozen=True)
class FailurePolicy:
    """How a sweep responds when a cell errors or overruns its budget.

    ``on_error`` decides the endgame once a cell exhausts its attempts:

    * ``"fail-fast"`` (default, the historical behavior) — the failure is
      recorded, then the original exception is re-raised (after every
      healthy in-flight cell has been drained and cached);
    * ``"continue"`` — the failure is recorded (in the result, the cache,
      and the obs stream) and the sweep moves on; a *resumed* sweep skips
      cells the cache already knows to be bad;
    * ``"retry"`` — like ``"continue"``, but known-bad cells are
      re-attempted on resume instead of skipped.

    ``retries`` grants every cell that many extra attempts before the
    endgame, with exponential backoff whose jitter is keyed off the cell
    fingerprint (:mod:`repro.rng`), so two sweeps of the same grid back
    off identically.  ``on_error="retry"`` with ``retries=0`` defaults to
    2 extra attempts.  ``cell_timeout`` bounds one attempt's wall-clock
    seconds: parallel cells are abandoned at the deadline (the worker is
    written off), serial cells are checked post-hoc.

    Environment knobs (read by :meth:`from_env`, which every
    :class:`SweepRunner` without an explicit policy uses):
    ``REPRO_SWEEP_ON_ERROR``, ``REPRO_SWEEP_RETRIES``,
    ``REPRO_SWEEP_CELL_TIMEOUT``.
    """

    on_error: str = "fail-fast"
    retries: int = 0
    cell_timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.on_error not in ("fail-fast", "continue", "retry"):
            raise ConfigurationError(
                f"on_error must be fail-fast, continue, or retry; "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.on_error == "retry" and self.retries == 0:
            object.__setattr__(self, "retries", 2)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "FailurePolicy":
        """Build a policy from the ``REPRO_SWEEP_*`` environment knobs."""
        env = os.environ if environ is None else environ
        return cls(
            on_error=env.get("REPRO_SWEEP_ON_ERROR", "fail-fast"),
            retries=env_number("REPRO_SWEEP_RETRIES", 0, int, env),
            cell_timeout=env_number("REPRO_SWEEP_CELL_TIMEOUT", None, float, env),
        )

    @property
    def max_attempts(self) -> int:
        return 1 + self.retries

    @property
    def retry_known_bad(self) -> bool:
        """Whether a resumed sweep re-attempts cached known-bad cells."""
        return self.on_error != "continue"

    def backoff_seconds(self, fingerprint: str, attempt: int) -> float:
        """Deterministic exponential backoff with keyed jitter.

        ``attempt`` counts completed attempts (1 after the first failure).
        Jitter multiplies the capped exponential base by [0.5, 1.0),
        derived from the cell fingerprint — no ambient randomness, so
        reruns back off identically.
        """
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        jitter = uniform_draw(derive_seed(int(fingerprint[:16], 16)), 0, attempt)
        return base * (0.5 + 0.5 * jitter)


def execute_unit(
    unit: WorkUnit,
    fn: AlgorithmFn,
    validate: bool,
    graph: Optional[nx.Graph] = None,
) -> Tuple[SweepPoint, float]:
    """Execute one work unit: build the graph, run, validate.

    Module-level so worker processes can import it by reference.  Returns
    the finished point plus the wall-clock seconds it took (graph build
    included), which feeds the per-algorithm telemetry.
    """
    started = time.perf_counter()
    if graph is None:
        graph = unit.spec.build(unit.n, seed=unit.seed)
    result = fn(graph, seed=unit.seed, **dict(unit.kwargs))
    if validate:
        assert_valid_mis(graph, result.mis)
    point = SweepPoint(
        spec=unit.spec,
        n=unit.n,
        algorithm=unit.algorithm,
        seed=unit.seed,
        iterations=result.iterations,
        congest_rounds=result.congest_rounds,
        mis_size=len(result.mis),
    )
    return point, time.perf_counter() - started


def _is_picklable(fn: AlgorithmFn) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


class SweepRunner:
    """Executes a sweep grid with parallelism, caching, and telemetry.

    Parameters
    ----------
    algorithms:
        name → callable, as for :func:`~repro.analysis.sweep.run_sweep`.
    algorithm_kwargs:
        name → extra keyword arguments for that algorithm.
    validate:
        Validate every output as an MIS of its graph (never skipped by the
        benchmarks; see sweep.py's module docstring).
    parallel:
        Fan work units out over a process pool; ``False`` keeps everything
        in-process, in grid order.
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    cache:
        A :class:`SweepCache`, a path to create one at, or None to disable
        persistence.
    progress:
        Optional callback receiving a :class:`SweepProgress` after every
        completed (executed or cache-hit) point.
    obs:
        Optional :class:`~repro.obs.session.ObsSession` receiving the
        sweep's telemetry events.  When None and ``REPRO_OBS_DIR`` is
        set, the runner creates (and finishes) its own session per
        ``run()`` call, so every benchmark/sweep emits artifacts without
        call-site changes.
    """

    def __init__(
        self,
        algorithms: Mapping[str, AlgorithmFn],
        algorithm_kwargs: Optional[Mapping[str, Dict]] = None,
        validate: bool = True,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        cache: Union[SweepCache, str, Path, None] = None,
        progress: Optional[ProgressCallback] = None,
        obs: Optional[ObsSession] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ):
        self.algorithms = dict(algorithms)
        self.algorithm_kwargs = {
            name: dict(kwargs) for name, kwargs in (algorithm_kwargs or {}).items()
        }
        self.validate = validate
        self.parallel = parallel
        self.max_workers = max_workers or os.cpu_count() or 1
        if isinstance(cache, (str, Path)):
            cache = SweepCache(cache)
        self.cache = cache
        self.progress = progress
        self.obs = obs
        # No explicit policy → the REPRO_SWEEP_* env knobs apply, so every
        # benchmark/sweep call site picks fault tolerance up for free.
        self.failure_policy = failure_policy or FailurePolicy.from_env()
        self._timings: Dict[int, float] = {}

    # -- grid enumeration ----------------------------------------------------

    def enumerate_units(
        self,
        specs: Sequence[GraphSpec],
        sizes: Sequence[int],
        seeds: Sequence[int],
    ) -> List[WorkUnit]:
        """Flatten the grid in the canonical spec → n → seed → algorithm
        order (the same order the serial loop has always used, so results
        line up point-for-point)."""
        units = []
        for spec in specs:
            for n in sizes:
                for seed in seeds:
                    for name in self.algorithms:
                        kwargs = self.algorithm_kwargs.get(name, {})
                        units.append(
                            WorkUnit(
                                spec=spec,
                                n=n,
                                algorithm=name,
                                seed=seed,
                                kwargs=tuple(sorted(kwargs.items())),
                            )
                        )
        return units

    # -- execution -----------------------------------------------------------

    def run(
        self,
        specs: Sequence[GraphSpec],
        sizes: Sequence[int],
        seeds: Sequence[int],
    ) -> SweepResult:
        """Execute the grid and return its points in enumeration order."""
        units = self.enumerate_units(specs, sizes, seeds)
        progress = SweepProgress(total=len(units))
        started = time.perf_counter()
        points: List[Optional[SweepPoint]] = [None] * len(units)
        self._timings: Dict[int, float] = {}

        obs = self.obs
        owned_session = False
        if obs is None:
            obs = session_from_env(
                "sweep",
                params={
                    "specs": [spec.label() for spec in specs],
                    "sizes": list(sizes),
                    "seeds": list(seeds),
                    "algorithms": sorted(self.algorithms),
                },
            )
            owned_session = obs is not None
        if obs is not None:
            obs.emit(
                EVENT_SWEEP_START,
                total=len(units),
                specs=[spec.label() for spec in specs],
                sizes=list(sizes),
                seeds=list(seeds),
                algorithms=sorted(self.algorithms),
                workers=self.max_workers if self.parallel else 1,
            )

        failures: List[CellFailure] = []
        errors: List[BaseException] = []
        pending: List[int] = []
        for i, unit in enumerate(units):
            # NB: SweepCache.__len__ counts points only, so a cache holding
            # nothing but failure records is falsy — test identity, not truth.
            hit = (
                self.cache.get_point(unit.fingerprint)
                if self.cache is not None
                else None
            )
            if hit is not None:
                points[i] = hit
                progress.cached += 1
                self._tick(progress, started)
                continue
            known_bad = (
                self.cache.get_failure(unit.fingerprint)
                if self.cache is not None
                else None
            )
            if known_bad is not None and not self.failure_policy.retry_known_bad:
                # on_error="continue": a resumed sweep skips cells the cache
                # already knows to be bad instead of rediscovering them.
                failures.append(known_bad)
                progress.failed += 1
                self._tick(progress, started)
                continue
            pending.append(i)

        try:
            if self.parallel and self.max_workers > 1 and len(pending) > 1:
                self._run_parallel(
                    units, pending, points, progress, started, failures, errors
                )
            else:
                self._run_serial(
                    units, pending, points, progress, started, failures, errors
                )
        finally:
            if obs is not None:
                self._emit_obs(obs, units, points, progress, owned_session, failures)
        if errors and self.failure_policy.on_error == "fail-fast":
            # Re-raise the first failure with its original type (callers and
            # tests match on it) after every healthy cell has been drained
            # and cached — a worker exception costs exactly one cell.
            raise errors[0]
        return SweepResult(
            points=[p for p in points if p is not None], failures=failures
        )

    def _emit_obs(self, obs, units, points, progress, owned_session, failures) -> None:
        """Emit the sweep's telemetry in canonical grid order.

        Emission happens after execution (not as points complete) so the
        stream's order is independent of pool scheduling — the same-seed
        determinism guarantee `repro obs diff` checks.
        """
        for i, unit in enumerate(units):
            point = points[i]
            if point is None:
                continue
            rounds = (
                point.congest_rounds
                if point.congest_rounds is not None
                else ROUNDS_PER_ITERATION * point.iterations
            )
            obs.emit(
                EVENT_SWEEP_POINT,
                family=unit.spec.label(),
                n=unit.n,
                algorithm=unit.algorithm,
                seed=unit.seed,
                iterations=point.iterations,
                rounds=rounds,
                mis_size=point.mis_size,
                cached=i not in self._timings,
                dur_s=self._timings.get(i),
            )
        for failure in sorted(
            failures, key=lambda f: (f.family, f.n, f.algorithm, f.seed)
        ):
            obs.emit(
                EVENT_SWEEP_FAILURE,
                family=failure.family,
                n=failure.n,
                algorithm=failure.algorithm,
                seed=failure.seed,
                error_type=failure.error_type,
                error=failure.error,
                attempts=failure.attempts,
                timed_out=failure.timed_out,
            )
        obs.emit(
            EVENT_SWEEP_END,
            total=progress.total,
            executed=progress.executed,
            cached=progress.cached,
            failed=progress.failed,
            dur_s=progress.elapsed,
            seconds_by_algorithm={
                name: round(seconds, 6)
                for name, seconds in sorted(progress.algorithm_seconds.items())
            },
        )
        if owned_session:
            obs.finish()

    def _run_serial(
        self, units, pending, points, progress, started, failures, errors
    ) -> None:
        # Consecutive units share (spec, n, seed) when they differ only by
        # algorithm; memoize the last graph so the serial path builds each
        # graph once, exactly like the historical nested loop.
        policy = self.failure_policy
        memo_key = None
        memo_graph = None
        for i in pending:
            unit = units[i]
            key = (unit.spec, unit.n, unit.seed)
            if key != memo_key:
                memo_graph = unit.spec.build(unit.n, seed=unit.seed)
                memo_key = key
            for attempt in range(1, policy.max_attempts + 1):
                try:
                    point, seconds = execute_unit(
                        unit,
                        self.algorithms[unit.algorithm],
                        self.validate,
                        graph=memo_graph,
                    )
                except Exception as exc:
                    if attempt < policy.max_attempts:
                        time.sleep(policy.backoff_seconds(unit.fingerprint, attempt))
                        continue
                    self._record_failure(
                        unit, exc, attempt, False, failures, errors, progress, started
                    )
                    break
                if (
                    policy.cell_timeout is not None
                    and seconds > policy.cell_timeout
                ):
                    # Serial cells can't be interrupted mid-run; enforce the
                    # budget post-hoc by discarding the overdue point.
                    exc = TimeoutError(
                        f"cell exceeded cell_timeout "
                        f"({policy.cell_timeout}s): took {seconds:.3f}s"
                    )
                    if attempt < policy.max_attempts:
                        time.sleep(policy.backoff_seconds(unit.fingerprint, attempt))
                        continue
                    self._record_failure(
                        unit, exc, attempt, True, failures, errors, progress, started
                    )
                    break
                self._complete(i, unit, point, seconds, points, progress, started)
                break
            if errors and policy.on_error == "fail-fast":
                return

    def _run_parallel(
        self, units, pending, points, progress, started, failures, errors
    ) -> None:
        policy = self.failure_policy
        picklable: Dict[str, bool] = {
            name: _is_picklable(fn) for name, fn in self.algorithms.items()
        }
        remote = [i for i in pending if picklable[units[i].algorithm]]
        local = [i for i in pending if not picklable[units[i].algorithm]]
        if not remote:
            self._run_serial(
                units, pending, points, progress, started, failures, errors
            )
            return

        workers = min(self.max_workers, len(remote))
        # One cell's failure must not discard any other cell's work: every
        # in-flight future is drained (and its point recorded + cached)
        # before run() re-raises the first error under fail-fast, and
        # nothing healthy is cancelled.
        queue = deque(remote)
        attempts: Dict[int, int] = {}
        not_before: Dict[int, float] = {}
        running: Dict[Future, Tuple[int, float]] = {}
        # Futures written off at their deadline.  Their workers stay wedged
        # until the underlying call returns, so each zombie subtracts one
        # worker from capacity — and gives it back if it ever resolves.
        zombies: set = set()
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # Unpicklable callables run in the parent while the pool
            # grinds through the rest.
            self._run_serial(
                units, local, points, progress, started, failures, errors
            )
            while queue or running:
                zombies -= {z for z in zombies if z.done()}
                capacity = workers - len(zombies) - len(running)
                if workers - len(zombies) <= 0:
                    # Every worker is wedged on a timed-out cell.  Grant a
                    # generous grace period for a zombie to resolve; if none
                    # does, write the remainder off rather than hang forever.
                    grace = 4.0 * (policy.cell_timeout or 1.0)
                    finished_zombies, _ = wait(
                        set(zombies), timeout=grace, return_when=FIRST_COMPLETED
                    )
                    if finished_zombies:
                        zombies -= finished_zombies
                        continue
                    while queue:
                        i = queue.popleft()
                        self._record_failure(
                            units[i],
                            TimeoutError(
                                "worker pool exhausted by timed-out cells"
                            ),
                            attempts.get(i, 0) + 1,
                            True,
                            failures,
                            errors,
                            progress,
                            started,
                        )
                    break
                now = time.perf_counter()
                deferred = []
                while queue and capacity > 0:
                    i = queue.popleft()
                    if not_before.get(i, 0.0) > now:
                        deferred.append(i)
                        continue
                    future = pool.submit(
                        execute_unit,
                        units[i],
                        self.algorithms[units[i].algorithm],
                        self.validate,
                    )
                    running[future] = (i, now)
                    capacity -= 1
                queue.extendleft(reversed(deferred))  # preserve order
                if not running:
                    if not queue:
                        break
                    # Everything is backing off; sleep until the earliest
                    # cell becomes eligible again.
                    wake = min(not_before.get(i, 0.0) for i in queue)
                    time.sleep(max(0.0, wake - time.perf_counter()))
                    continue

                timeout = None
                if policy.cell_timeout is not None:
                    now = time.perf_counter()
                    timeout = max(
                        0.0,
                        min(
                            start + policy.cell_timeout - now
                            for _, start in running.values()
                        ),
                    )
                elif any(not_before.get(i, 0.0) > time.perf_counter() for i in queue):
                    timeout = 0.05
                finished, _ = wait(
                    set(running), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    i, start = running.pop(future)
                    try:
                        point, seconds = future.result()
                    except BaseException as exc:  # worker error: isolate it
                        self._dispose(
                            i, units[i], exc, False, attempts, not_before,
                            queue, failures, errors, progress, started,
                        )
                        continue
                    if (
                        policy.cell_timeout is not None
                        and seconds > policy.cell_timeout
                    ):
                        self._dispose(
                            i,
                            units[i],
                            TimeoutError(
                                f"cell exceeded cell_timeout "
                                f"({policy.cell_timeout}s): took {seconds:.3f}s"
                            ),
                            True, attempts, not_before,
                            queue, failures, errors, progress, started,
                        )
                        continue
                    self._complete(
                        i, units[i], point, seconds, points, progress, started
                    )
                if policy.cell_timeout is not None:
                    now = time.perf_counter()
                    for future in [
                        f
                        for f, (_, start) in running.items()
                        if now - start > policy.cell_timeout
                    ]:
                        # The future can't be interrupted; abandon it and
                        # write its worker off until the call resolves.
                        i, start = running.pop(future)
                        future.cancel()
                        zombies.add(future)
                        self._dispose(
                            i,
                            units[i],
                            TimeoutError(
                                f"cell exceeded cell_timeout "
                                f"({policy.cell_timeout}s)"
                            ),
                            True, attempts, not_before,
                            queue, failures, errors, progress, started,
                        )
        finally:
            # Waiting on abandoned (timed-out, uninterruptible) workers
            # would defeat the timeout; leak them instead of blocking.
            zombies -= {z for z in zombies if z.done()}
            pool.shutdown(wait=(not zombies), cancel_futures=True)

    # -- bookkeeping ---------------------------------------------------------

    def _dispose(
        self, i, unit, exc, timed_out, attempts, not_before,
        queue, failures, errors, progress, started,
    ) -> None:
        """Route one failed parallel attempt: back off + requeue, or record."""
        attempt = attempts.get(i, 0) + 1
        attempts[i] = attempt
        if attempt < self.failure_policy.max_attempts:
            not_before[i] = time.perf_counter() + self.failure_policy.backoff_seconds(
                unit.fingerprint, attempt
            )
            queue.append(i)
            return
        self._record_failure(
            unit, exc, attempt, timed_out, failures, errors, progress, started
        )

    def _record_failure(
        self, unit, exc, attempts, timed_out, failures, errors, progress, started
    ) -> None:
        """A cell exhausted its attempts: persist and count the failure."""
        failure = CellFailure(
            key=unit.fingerprint,
            family=unit.spec.label(),
            n=unit.n,
            algorithm=unit.algorithm,
            seed=unit.seed,
            error_type=type(exc).__name__,
            error=str(exc),
            attempts=attempts,
            timed_out=timed_out,
        )
        failures.append(failure)
        errors.append(exc)
        progress.failed += 1
        if self.cache is not None:
            self.cache.put_failure(failure)
        self._tick(progress, started)

    def _complete(self, i, unit, point, seconds, points, progress, started) -> None:
        points[i] = point
        self._timings[i] = seconds
        progress.executed += 1
        progress.algorithm_seconds[unit.algorithm] = (
            progress.algorithm_seconds.get(unit.algorithm, 0.0) + seconds
        )
        if self.cache is not None:
            self.cache.put_point(unit.fingerprint, point)
        self._tick(progress, started)

    def _tick(self, progress, started) -> None:
        progress.done = progress.cached + progress.executed
        progress.elapsed = time.perf_counter() - started
        if self.progress is not None:
            self.progress(progress)
