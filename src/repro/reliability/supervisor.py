"""Supervised pooled execution: the one process-pool entry point.

:func:`supervised_map` is ``[fn(item) for item in items]`` fanned out
over worker processes.  Results come back slotted in input order
whatever order the workers finish in, and every item carries its own
seeds, so a pooled run is identical to a serial one.  The planner
(:func:`plan_pool`) falls back to the in-process serial path whenever
a pool cannot win: one effective worker, fewer than
:data:`MIN_POOL_ITEMS` items, or a process allowed on one CPU
(:func:`host_cpus`, the affinity mask, so a container's CPU limit
counts).  Worker counts resolve from the argument, then
``$REPRO_WORKERS``, then 1 (:func:`resolve_workers`).

With ``span="name"`` and an active ambient tracer, each item runs in a
``name`` span keyed by its label under the caller's active span; the
worker-side span records of successful attempts come back with the
results and are re-emitted, so a pooled trace reassembles into one
tree.

A raising task, a hung worker or a ``BrokenProcessPool`` must not kill
the whole map — and with it a multi-hour fleet run — so the map runs
under a supervisor that treats those failures as the normal operating
regime, the way the batteryless-IoT literature treats node
death-and-resume:

- **bounded retries** — a raising task is re-dispatched up to
  ``max_retries`` times with *deterministic* seeded exponential
  backoff (:func:`backoff_delay` derives the jitter from a sha256 of
  ``(seed, index, attempt)``, never from wall-clock or a shared RNG,
  so two runs back off identically);
- **per-task timeouts** — a task that exceeds ``task_timeout`` seconds
  is charged an attempt and re-dispatched.  At most one task per
  worker is in flight, so the clock starts when a worker is free for
  the task, never while it queues behind others.  The stuck worker
  cannot be cancelled cooperatively, so the pool is rebuilt and every
  *innocent* in-flight task is re-submitted without an attempt charge
  (straggler re-submission);
- **pool recovery** — a dying worker (``BrokenProcessPool``) rebuilds
  the pool and re-dispatches the in-flight tasks, each charged one
  attempt (this bounds a poison task that kills its worker every
  time);
- **structured failure** — a task that exhausts its retries becomes a
  :class:`TaskFailure` record; policy ``on_error="quarantine"`` keeps
  going and returns a *degraded* :class:`SupervisedResult`,
  ``on_error="fail"`` raises :class:`SupervisorError`.

Every supervisor action is emitted as a typed obs event with a
structured reason (``task_retry``, ``worker_lost``, ``shard_timeout``
plus the planner's ``pool_decision``), so ``repro obs summarize``
shows *why* a run degraded without reading logs.

Determinism contract: results land slotted by input index, retries
re-run pure functions, and failed slots are reported — a degraded map
over the same inputs yields bit-identical results for the surviving
subset whatever the worker count, interleaving or retry history.

When no timeout is configured and the planner picks serial mode, the
supervisor runs in-process with the same retry ladder and near-zero
overhead (one ``try`` per task) — supervision costs nothing on the
happy path.  Timeout enforcement requires process isolation, so a
configured ``task_timeout`` forces pool mode even for one worker.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs.events import (
    NULL_OBSERVER,
    PoolDecisionEvent,
    ShardTimeoutEvent,
    TaskRetryEvent,
    WorkerLostEvent,
)
from ..obs.trace import activate, collecting_tracer, current_tracer

__all__ = [
    "ENV_MAX_RETRIES",
    "ENV_TASK_TIMEOUT",
    "ENV_WORKERS",
    "MIN_POOL_ITEMS",
    "SupervisedResult",
    "SupervisorError",
    "SupervisorPolicy",
    "TaskFailure",
    "backoff_delay",
    "host_cpus",
    "plan_pool",
    "resolve_workers",
    "supervised_map",
]

ENV_MAX_RETRIES = "REPRO_MAX_RETRIES"
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"
ENV_WORKERS = "REPRO_WORKERS"

#: Below this many items a pool's startup cost cannot amortise.
MIN_POOL_ITEMS = 2

#: Floor of the poll interval in the pool loop: short enough that a
#: timeout is detected promptly, long enough not to busy-wait.
_MIN_WAIT_S = 0.02

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """Effective worker count: argument, ``$REPRO_WORKERS``, else 1."""
    if n_workers is None:
        env = os.environ.get(ENV_WORKERS)
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_WORKERS} must be an integer, got {env!r}"
                ) from None
    if n_workers is None or n_workers < 1:
        return 1
    return int(n_workers)


def host_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (a container's CPU limit shows there), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def plan_pool(
    requested: int, n_items: int, cpu_count: Optional[int] = None
) -> Tuple[int, str, str]:
    """Adaptive fan-out plan: ``(workers, mode, reason)``.

    ``mode`` is ``"pool"`` or ``"serial"``.  The pool engages only
    when it can plausibly win: more than one worker requested, at
    least :data:`MIN_POOL_ITEMS` items, and more than one usable CPU
    (``cpu_count``, default :func:`host_cpus`) — the worker count is
    capped at both the item count and the CPUs.
    """
    cpus = cpu_count if cpu_count is not None else host_cpus()
    if requested <= 1:
        return 1, "serial", "one worker requested"
    if n_items < MIN_POOL_ITEMS:
        return 1, "serial", f"only {n_items} item(s)"
    if cpus <= 1:
        return 1, "serial", f"host has {cpus} cpu(s); a pool cannot win"
    workers = min(requested, n_items, cpus)
    if workers <= 1:
        return 1, "serial", "effective worker count is 1"
    return (
        workers,
        "pool",
        f"min(requested {requested}, items {n_items}, cpus {cpus})",
    )


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """How a supervised map handles failure.

    Parameters
    ----------
    max_retries:
        Re-dispatch attempts per task beyond the first (default 2).
    task_timeout:
        Per-task wall-clock budget in seconds; ``None`` (default)
        disables timeout enforcement.  Setting it forces pool mode —
        a hung task can only be abandoned from another process.
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff ladder: retry ``a`` of task ``i`` sleeps
        ``base * factor**a``, jittered deterministically from
        ``backoff_seed`` and capped at ``backoff_max`` seconds.
    backoff_seed:
        Seed of the deterministic jitter (no wall-clock, no shared
        RNG: two identical runs back off identically).
    on_error:
        ``"fail"`` (default) raises :class:`SupervisorError` when a
        task exhausts its retries; ``"quarantine"`` records a
        :class:`TaskFailure` and keeps going.
    """

    max_retries: int = 2
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    backoff_seed: int = 0
    on_error: str = "fail"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError(
                f"bad backoff ladder (base {self.backoff_base}, "
                f"factor {self.backoff_factor})"
            )
        if self.on_error not in ("fail", "quarantine"):
            raise ValueError(
                f"on_error must be 'fail' or 'quarantine', got "
                f"{self.on_error!r}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "SupervisorPolicy":
        """Policy with ``$REPRO_MAX_RETRIES``/``$REPRO_TASK_TIMEOUT``
        defaults; explicit keyword overrides win."""
        fields: Dict[str, object] = {}
        env_retries = os.environ.get(ENV_MAX_RETRIES)
        if env_retries:
            try:
                fields["max_retries"] = int(env_retries)
            except ValueError:
                raise ValueError(
                    f"{ENV_MAX_RETRIES} must be an integer, got "
                    f"{env_retries!r}"
                ) from None
        env_timeout = os.environ.get(ENV_TASK_TIMEOUT)
        if env_timeout:
            try:
                fields["task_timeout"] = float(env_timeout)
            except ValueError:
                raise ValueError(
                    f"{ENV_TASK_TIMEOUT} must be a number, got "
                    f"{env_timeout!r}"
                ) from None
        fields.update(overrides)
        return cls(**fields)


def backoff_delay(
    policy: SupervisorPolicy, index: int, attempt: int
) -> float:
    """Deterministic backoff before re-dispatching ``index``.

    ``base * factor**attempt`` jittered into ``[0.5x, 1.5x)`` by a
    sha256 of ``(seed, index, attempt)`` and capped at
    ``backoff_max`` — a pure function, so the retry schedule of a run
    is reproducible bit-for-bit from its seed.
    """
    if policy.backoff_base <= 0:
        return 0.0
    digest = hashlib.sha256(
        repr(("backoff", policy.backoff_seed, index, attempt)).encode()
    ).hexdigest()
    jitter = 0.5 + (int(digest[:8], 16) / 0x100000000)
    raw = policy.backoff_base * (policy.backoff_factor ** attempt) * jitter
    return min(policy.backoff_max, raw)


@dataclasses.dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retries (picklable, JSON-able)."""

    index: int
    label: str
    error_type: str
    message: str
    retries: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class SupervisorError(RuntimeError):
    """A supervised task failed permanently under ``on_error="fail"``."""

    def __init__(self, failures: Sequence[TaskFailure]) -> None:
        self.failures: List[TaskFailure] = list(failures)
        first = self.failures[0]
        extra = (
            f" (+{len(self.failures) - 1} more)"
            if len(self.failures) > 1
            else ""
        )
        super().__init__(
            f"task {first.index} ({first.label}) failed after "
            f"{first.retries} retr{'y' if first.retries == 1 else 'ies'}: "
            f"{first.error_type}: {first.message}{extra}"
        )


@dataclasses.dataclass
class SupervisedResult:
    """Outcome of one supervised map.

    ``results`` is slotted by input index with ``None`` at failed
    positions; ``failures`` lists the quarantined tasks; the counters
    summarise what the supervisor had to do.  ``degraded`` is True
    when any task was lost — the partial results are still
    deterministic over the surviving subset.
    """

    results: List[Optional[object]]
    failures: List[TaskFailure]
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _prepare(prepare, item, attempt):
    return item if prepare is None else prepare(item, attempt)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, abandoning any running task.

    ``shutdown`` alone joins running workers — which is exactly what a
    hung task never allows — so the worker processes are terminated
    first.  Touches executor internals; guarded so a layout change in
    a future stdlib degrades to a plain shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class _Supervisor:
    """State of one supervised map (shared by serial and pool paths)."""

    def __init__(
        self,
        fn: Callable,
        work: List,
        policy: SupervisorPolicy,
        labels: Sequence[str],
        observer,
        on_result,
        prepare,
    ) -> None:
        self.fn = fn
        self.work = work
        self.policy = policy
        self.labels = labels
        self.observer = observer
        self.on_result = on_result
        self.prepare = prepare
        self.results: List[Optional[object]] = [None] * len(work)
        self.failures: List[TaskFailure] = []
        self.retries = 0
        self.timeouts = 0
        self.rebuilds = 0
        # Re-dispatch entries charged outside the main queue (e.g. by
        # a BrokenProcessPool result), drained into it on rebuild.
        self._pending_charges: List[Tuple[int, int, float]] = []
        # Tasks whose retry budget was consumed entirely by pool
        # breaks: blame is unproven, so they get a solo probe instead
        # of a quarantine.
        self._suspects: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def _emit_retry(
        self, index: int, attempt: int, reason: str, error_type: str,
        delay: float,
    ) -> None:
        self.retries += 1
        if self.observer.enabled:
            self.observer.emit(TaskRetryEvent(
                label=self.labels[index],
                index=index,
                attempt=attempt,
                reason=reason,
                error_type=error_type,
                backoff_s=delay,
            ))

    def _fail(self, index: int, exc: BaseException, attempts: int) -> None:
        failure = TaskFailure(
            index=index,
            label=self.labels[index],
            error_type=type(exc).__name__,
            message=str(exc),
            retries=attempts,
        )
        self.failures.append(failure)
        if self.policy.on_error == "fail":
            raise SupervisorError([failure]) from exc

    def _land(self, index: int, result) -> None:
        self.results[index] = result
        if self.on_result is not None:
            self.on_result(index, result)

    def finish(self) -> SupervisedResult:
        self.failures.sort(key=lambda f: f.index)
        return SupervisedResult(
            results=self.results,
            failures=self.failures,
            retries=self.retries,
            timeouts=self.timeouts,
            pool_rebuilds=self.rebuilds,
        )

    # ------------------------------------------------------------------
    def run_serial(self) -> SupervisedResult:
        for index, item in enumerate(self.work):
            attempt = 0
            while True:
                try:
                    result = self.fn(_prepare(self.prepare, item, attempt))
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if attempt < self.policy.max_retries:
                        delay = backoff_delay(self.policy, index, attempt)
                        self._emit_retry(
                            index, attempt, "raised",
                            type(exc).__name__, delay,
                        )
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    self._fail(index, exc, attempt)
                    break
                else:
                    self._land(index, result)
                    break
        return self.finish()

    # ------------------------------------------------------------------
    def run_pool(self, workers: int) -> SupervisedResult:
        timeout = self.policy.task_timeout
        # (index, attempt, not-before) re-dispatch queue: backoff is a
        # deterministic *delay floor*, enforced without blocking the
        # tasks that are already healthy in flight.
        to_submit: deque = deque(
            (index, 0, 0.0) for index in range(len(self.work))
        )
        inflight: Dict[object, Tuple[int, int, Optional[float]]] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while to_submit or inflight:
                now = time.monotonic()
                held: List[Tuple[int, int, float]] = []
                while to_submit and len(inflight) < workers:
                    index, attempt, not_before = to_submit.popleft()
                    if now < not_before:
                        held.append((index, attempt, not_before))
                        continue
                    payload = _prepare(
                        self.prepare, self.work[index], attempt
                    )
                    future = pool.submit(self.fn, payload)
                    deadline = (
                        time.monotonic() + timeout
                        if timeout is not None
                        else None
                    )
                    inflight[future] = (index, attempt, deadline)
                to_submit.extend(held)

                wait_for = None
                now = time.monotonic()
                deadlines = [
                    dl for (_, _, dl) in inflight.values() if dl is not None
                ]
                if held:
                    deadlines.append(min(nb for (_, _, nb) in held))
                if deadlines:
                    wait_for = max(_MIN_WAIT_S, min(deadlines) - now)
                if not inflight:
                    # Everything pending is backoff-held: just sleep it off.
                    if wait_for is not None:
                        time.sleep(wait_for)
                    continue

                done, _pending = wait(
                    set(inflight),
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    index, attempt, _deadline = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._charge(index, attempt, "worker_lost")
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        if attempt < self.policy.max_retries:
                            delay = backoff_delay(
                                self.policy, index, attempt
                            )
                            self._emit_retry(
                                index, attempt, "raised",
                                type(exc).__name__, delay,
                            )
                            to_submit.append(
                                (index, attempt + 1,
                                 time.monotonic() + delay)
                            )
                        else:
                            self._fail(index, exc, attempt)
                    else:
                        self._land(index, result)

                if broken:
                    pool = self._rebuild(
                        pool, inflight, to_submit,
                        charge_all=True, reason="a worker process died",
                    )
                    continue

                if timeout is not None:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, _, dl) in inflight.items()
                        if dl is not None and now >= dl
                    ]
                    if expired:
                        for future in expired:
                            index, attempt, _dl = inflight.pop(future)
                            self.timeouts += 1
                            if self.observer.enabled:
                                self.observer.emit(ShardTimeoutEvent(
                                    label=self.labels[index],
                                    index=index,
                                    attempt=attempt,
                                    timeout_s=timeout,
                                    reason=(
                                        "task exceeded its "
                                        f"{timeout:g}s budget; worker "
                                        "killed and task re-dispatched"
                                    ),
                                ))
                            self._charge(index, attempt, "timeout",
                                         queue=to_submit)
                        pool = self._rebuild(
                            pool, inflight, to_submit,
                            charge_all=False,
                            reason="stuck worker killed after task "
                            "timeout",
                        )
            while self._suspects:
                index, attempt = self._suspects.pop(0)
                self._probe_solo(index, attempt, timeout)
        finally:
            _kill_pool(pool)
        return self.finish()

    def _probe_solo(
        self, index: int, attempt: int, timeout: Optional[float]
    ) -> None:
        """Run a pool-break suspect alone in a fresh one-worker pool.

        A lone task that breaks its own pool is definitively the
        killer and fails permanently; one that completes was
        collateral damage of a noisy neighbour and lands normally —
        so the quarantine set never depends on which tasks happened
        to share a pool with a crasher.
        """
        while True:
            probe = ProcessPoolExecutor(max_workers=1)
            try:
                future = probe.submit(
                    self.fn, _prepare(self.prepare, self.work[index], attempt)
                )
                try:
                    result = future.result(timeout=timeout)
                except BrokenProcessPool:
                    self.rebuilds += 1
                    if self.observer.enabled:
                        self.observer.emit(WorkerLostEvent(
                            label=self.labels[index],
                            inflight=1,
                            rebuilds=self.rebuilds,
                            reason="solo probe: worker died executing "
                            "this task in isolation",
                        ))
                    self._fail(
                        index,
                        RuntimeError(
                            "worker process died executing this task "
                            "in isolation"
                        ),
                        attempt,
                    )
                    return
                except FuturesTimeout:
                    self.timeouts += 1
                    if self.observer.enabled:
                        self.observer.emit(ShardTimeoutEvent(
                            label=self.labels[index],
                            index=index,
                            attempt=attempt,
                            timeout_s=timeout or 0.0,
                            reason="solo probe: task exceeded its "
                            "budget in isolation",
                        ))
                    self._fail(
                        index,
                        RuntimeError(
                            f"exceeded the {timeout:g}s budget in "
                            "isolation"
                        ),
                        attempt,
                    )
                    return
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if attempt < self.policy.max_retries:
                        delay = backoff_delay(self.policy, index, attempt)
                        self._emit_retry(
                            index, attempt, "raised",
                            type(exc).__name__, delay,
                        )
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    self._fail(index, exc, attempt)
                    return
                else:
                    self._land(index, result)
                    return
            finally:
                _kill_pool(probe)

    def _charge(
        self, index: int, attempt: int, reason: str, queue=None
    ) -> None:
        """Charge one attempt to a task hit by a pool-level failure."""
        if attempt < self.policy.max_retries:
            delay = backoff_delay(self.policy, index, attempt)
            self._emit_retry(index, attempt, reason, "", delay)
            entry = (index, attempt + 1, time.monotonic() + delay)
            if queue is not None:
                queue.append(entry)
            else:
                self._pending_charges.append(entry)
        elif reason == "worker_lost":
            # A pool break cannot name the task that caused it, so a
            # task exhausted by breaks alone may be innocent collateral
            # of a neighbour's crashes.  Isolate blame with a solo run
            # instead of quarantining on circumstantial evidence.
            self._suspects.append((index, attempt + 1))
        else:
            self._fail(
                index,
                RuntimeError(
                    f"lost to {reason} on every allowed attempt"
                ),
                attempt,
            )

    def _rebuild(
        self, pool, inflight, to_submit, charge_all: bool, reason: str
    ):
        """Replace a broken/poisoned pool, re-queueing in-flight work.

        ``charge_all`` charges an attempt to every in-flight task (a
        broken pool cannot say which task killed it); otherwise the
        survivors are re-queued for free — they were merely sharing a
        pool with a hung task.
        """
        for future, (index, attempt, _dl) in list(inflight.items()):
            if future.done() and not future.cancelled():
                # Completed in the race window: keep the result.
                try:
                    self._land(index, future.result())
                    continue
                except Exception:
                    pass
            if charge_all:
                self._charge(index, attempt, "worker_lost")
            else:
                to_submit.append((index, attempt, 0.0))
        to_submit.extend(self._pending_charges)
        self._pending_charges = []
        inflight.clear()
        _kill_pool(pool)
        self.rebuilds += 1
        if self.observer.enabled:
            self.observer.emit(WorkerLostEvent(
                label=self.labels[0] if self.labels else "",
                inflight=len(to_submit),
                rebuilds=self.rebuilds,
                reason=f"pool rebuilt: {reason}",
            ))
        return ProcessPoolExecutor(max_workers=pool._max_workers)


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
def _run_in_span(fn, name: str, wire, payload):
    """Worker entry: rebuild the tracer, run one item in its span.

    Only a *successful* attempt returns its span records, so a retried
    task never emits duplicate spans — the deterministic span ids of
    the winning attempt are identical whichever attempt won.
    """
    label, item = payload
    tracer, records = collecting_tracer(wire)
    with activate(tracer), tracer.span(name, key=label):
        result = fn(item)
    return result, records


def supervised_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    policy: Optional[SupervisorPolicy] = None,
    n_workers: Optional[int] = None,
    observer=None,
    on_result: Optional[Callable[[int, R], None]] = None,
    prepare: Optional[Callable[[T, int], object]] = None,
    labels: Optional[Sequence[str]] = None,
    force_pool: bool = False,
    span: Optional[str] = None,
) -> SupervisedResult:
    """``[fn(item) for item in items]`` over a supervised process pool.

    Results are slotted in input order; ``fn`` and every item must be
    picklable.  ``on_result(index, result)`` fires in this process as
    each item *completes* (completion order in pool mode, input order
    in serial mode).  Failures follow the retry/timeout/pool-recovery
    ladder of ``policy`` (default :meth:`SupervisorPolicy.from_env`).
    An enabled ``observer`` records the fan-out plan as a
    ``pool_decision`` event and every supervisor action as its own
    event.

    ``prepare(item, attempt)`` (optional) maps an item to the payload
    actually dispatched, receiving the 0-based attempt number — this
    is how deterministic chaos harnesses inject first-attempt-only
    faults.  ``labels`` names tasks in events and failure records
    (defaults to the stringified index).  ``force_pool`` overrides the
    planner's serial fallback — required when the dispatched code may
    hang or kill its process (a configured ``task_timeout`` implies
    it).  ``span`` runs each item in a span of that name keyed by its
    label when the ambient tracer is enabled (see the module doc).
    """
    work = list(items)
    policy = policy if policy is not None else SupervisorPolicy.from_env()
    observer = observer if observer is not None else NULL_OBSERVER
    label_list = (
        [str(l) for l in labels]
        if labels is not None
        else [str(i) for i in range(len(work))]
    )
    if len(label_list) != len(work):
        raise ValueError(
            f"{len(label_list)} labels for {len(work)} items"
        )
    requested = resolve_workers(n_workers)
    cpus = host_cpus()
    workers, mode, reason = plan_pool(requested, len(work), cpus)
    if (
        mode == "serial"
        and work
        and (policy.task_timeout is not None or force_pool)
    ):
        # A hung task can only be abandoned — and a crashing one only
        # survived — from another process.
        workers = max(1, min(requested, len(work)))
        mode = "pool"
        reason = (
            "task timeout enforcement requires process isolation"
            if policy.task_timeout is not None
            else "caller requires process isolation"
        )
    if observer.enabled:
        observer.emit(PoolDecisionEvent(
            requested=requested,
            cpu_count=cpus,
            items=len(work),
            workers=workers,
            mode=mode,
            reason=reason,
        ))
    tracer = current_tracer()
    spanned = span is not None and tracer.enabled
    if spanned:
        fn = functools.partial(
            _run_in_span, fn, span, tracer.context().to_wire()
        )
        work = list(zip(label_list, work))
        if prepare is not None:
            item_prepare = prepare

            def prepare(pair, attempt):
                return pair[0], item_prepare(pair[1], attempt)

        item_on_result = on_result

        def on_result(index: int, out) -> None:
            result, records = out
            for record in records:
                tracer.emit(record)
            if item_on_result is not None:
                item_on_result(index, result)

    supervisor = _Supervisor(
        fn, work, policy, label_list, observer, on_result, prepare
    )
    if mode == "serial":
        sup = supervisor.run_serial()
    else:
        sup = supervisor.run_pool(workers)
    if spanned:
        sup.results = [
            (out[0] if out is not None else None) for out in sup.results
        ]
    return sup
