"""Pipes — multithreaded generator proxies (paper Section III.B).

    ``|>e → new Iterator() { next() { new Thread { run() {
        c=|<>e; while (!fail) { out.put(@c); }}}.start() }}``

A pipe owns a co-expression, runs it to exhaustion in a worker thread,
and streams each result through a blocking channel; stepping the pipe
(``@``) is a ``take``.  The surrounding expression therefore runs in
parallel with the piped expression — chains of pipes form parallel
pipelines.

Per the paper, the output queue ``out`` "is exposed as a public field to
permit further manipulation", and bounding its capacity throttles the
producer thread.

Robustness (the supervision layer, :mod:`repro.coexpr.supervision`)
builds on three hooks here:

* ``take(timeout=...)`` / a per-pipe ``take_timeout`` — deadline-correct
  blocking that raises :class:`~repro.errors.PipeTimeoutError`;
* ``cancel(join=True, timeout=...)`` — graceful-or-forced teardown that
  closes the co-expression body, unblocks the worker, and propagates to
  an ``upstream`` pipe so no producer is left blocked on a full channel;
* lifecycle events (start/cancel/timeout) on the monitor bus.

Three more execution tiers run the same body elsewhere behind this one
surface: ``backend="process"`` in a ``multiprocessing`` child
(:mod:`repro.coexpr.proc`, crash isolation), ``backend="remote"`` on a
generator server (:mod:`repro.net.client`), and ``backend="async"`` as a
task on a shared event loop (:mod:`repro.coexpr.aio`).  They share one
contract, :data:`_TIERS`: :meth:`Pipe.start` calls the tier's start
hook, which returns a running worker or the reason the body cannot run
there — and then the pipe degrades to this thread backend with one
``DEGRADED`` monitor event.  :class:`~repro.net.client.RemotePipe` is
this class over a body the server names, which never degrades (its
hook raises instead).  :meth:`Pipe.refresh` is ``^p``, the restart
supervision uses.  The process and remote pumps drive one
sans-IO :class:`~repro.coexpr.wire.Receiver`, whose heartbeat watchdog
surfaces a lost worker as an error instead of a hang.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import deque
from contextlib import suppress
from typing import Any, Iterator, List

from ..errors import (
    ChannelClosedError,
    PipeDeadlineExceeded,
    PipeError,
    PipeTimeoutError,
)
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .channel import CLOSED, Channel
from .coexpression import CoExpression, coexpr_of
from .deadline import Deadline, deadline_from
from .scheduler import PipeScheduler, WorkerHandle, default_scheduler

_UNSET = object()

#: The tier contract: backend name -> (module, start hook) for every tier
#: but "thread".  A hook takes ``(pipe, scheduler)`` and returns either a
#: running worker — with ``handle`` (joinable, leak-checked) and
#: ``terminate()`` (the cancel hook) — or a degrade reason string.
_TIERS = {
    "process": ("repro.coexpr.proc", "start_process_worker"),
    "remote": ("repro.net.client", "start_remote_worker"),
    "async": ("repro.coexpr.aio", "start_async_worker"),
}


def pipe_knobs(
    capacity: int = 0,
    scheduler: PipeScheduler | None = None,
    take_timeout: float | None = None,
    batch: int = 1,
    max_linger: float | None = None,
    backend: str = "thread",
    heartbeat_interval: float | None = None,
    heartbeat_timeout: float | None = None,
    mp_context: Any = None,
    remote_address: Any = None,
    deadline: Any = None,
) -> dict:
    """Every :class:`Pipe` knob, checked and normalized: the one place
    the knobs and their defaults are declared (see :meth:`Pipe.__init__`
    for what each one does).

    The composing constructors (:mod:`~repro.coexpr.patterns`,
    :mod:`~repro.coexpr.supervision`,
    :class:`~repro.coexpr.dataparallel.DataParallel`) call this once
    and hand the same dict to every pipe they build.  It is idempotent —
    the resolved heartbeat interval (0.1 s by default), a
    :class:`~repro.coexpr.deadline.Deadline` and a
    :class:`~repro.net.cluster.ServerPool` pass through unchanged — so
    those pipes share one budget and one routing memory.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if max_linger is not None and max_linger < 0:
        raise ValueError("max_linger must be >= 0 or None")
    if backend != "thread" and backend not in _TIERS:
        raise ValueError(
            "backend must be 'thread', 'process', 'remote', or 'async'"
        )
    if backend == "remote" and remote_address is None:
        raise ValueError("backend='remote' requires remote_address")
    if remote_address is not None:
        # One (host, port) pair stays a plain tuple; a list of them
        # becomes a ServerPool (the cluster tier); an existing pool
        # passes through so callers that spawn many pipes — restarts,
        # chunk tasks — can share routing state.  Normalized whatever
        # the backend: a DataParallel call may switch its tasks to
        # "remote", and they must still share the one pool.
        from ..net.cluster import normalize_remote_address

        remote_address = normalize_remote_address(remote_address)
    if heartbeat_interval is not None and heartbeat_interval <= 0:
        raise ValueError("heartbeat_interval must be > 0 or None")
    if heartbeat_timeout is not None and heartbeat_timeout <= 0:
        raise ValueError("heartbeat_timeout must be > 0 or None")
    return {
        "capacity": capacity,
        "scheduler": scheduler,
        "take_timeout": take_timeout,
        "batch": batch,
        "max_linger": max_linger,
        "backend": backend,
        "heartbeat_interval": 0.1 if heartbeat_interval is None else heartbeat_interval,
        "heartbeat_timeout": heartbeat_timeout,
        "mp_context": mp_context,
        "remote_address": remote_address,
        "deadline": deadline_from(deadline),
    }


class StreamOwner:
    """The producer-side epilogue every pipe flavour shares.

    A worker body — whichever tier it runs on — ends through these: an
    error goes to the consumer with :meth:`_fail`, and :meth:`_finish`
    closes ``out`` and, when the stream was cancelled or errored,
    cancels ``upstream`` so no producer above is left blocked on a full
    channel.  Owners provide ``out``, ``upstream``, ``_cancelled`` and
    ``_errored`` (and ``coexpr``, unless they override the lifecycle
    events below).  The owners are :class:`Pipe` — of every tier,
    :class:`~repro.net.client.RemotePipe` included — and
    :class:`~repro.coexpr.aio.AsyncPipe`.
    """

    __slots__ = ()

    # -- lifecycle events ------------------------------------------------------

    def _emit(self, kind: str, value: Any = None) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"pipe:{self.coexpr.name}", 0, value))

    def _deadline_error(self, where: str) -> PipeDeadlineExceeded:
        """Record the expiry and build the error to raise/deliver."""
        self._emit(EventKind.DEADLINE_EXPIRED, {"where": where, "remaining": 0.0})
        return PipeDeadlineExceeded(
            f"pipe {self.coexpr.name!r}: deadline exceeded ({where})",
            where=where,
        )

    # -- epilogue --------------------------------------------------------------

    def _fail(self, error: BaseException) -> None:
        """Deliver *error* to the consumer (unthrottled: never blocks on
        a full queue) and mark the stream errored."""
        self._errored = True
        with suppress(ChannelClosedError):  # cancelled: consumer is gone
            self.out.put_error(error)

    def _finish(self) -> None:
        self.out.close()
        # A worker that died (error) or was cancelled abandons its
        # upstream mid-stream; propagate so the producer chain above
        # is not left blocked on a full channel.
        if self._cancelled or self._errored:
            self._cancel_upstream()

    def _cancel_upstream(self) -> None:
        canceller = getattr(self.upstream, "cancel", None)
        if canceller is not None:
            canceller()


class Pipe(StreamOwner, IconIterator):
    """A generator proxy whose co-expression runs in a separate thread.

    The worker starts lazily on the first step (matching the paper's
    proxy, whose thread spawns from ``next()``), or eagerly via
    :meth:`start`.  A pipe is an :class:`IconIterator`, so it can be used
    anywhere an expression can — but unlike a plain node it is single-shot:
    once its co-expression is exhausted it stays failed (``refresh`` makes
    a fresh pipe).
    """

    __slots__ = (
        "coexpr",
        "out",
        "capacity",
        "take_timeout",
        "batch",
        "max_linger",
        "backend",
        "heartbeat_interval",
        "heartbeat_timeout",
        "mp_context",
        "remote_address",
        "deadline",
        "upstream",
        "_knobs",
        "_scheduler",
        "_started",
        "_start_lock",
        "_cancelled",
        "_worker",
        "_tier_worker",
        "_degraded",
        "_errored",
        "_pending",
        "_flushes",
        "_batched_items",
        "_flusher",
        "_buf_cond",
        "_buffer",
        "_buf_oldest",
        "_producer_done",
    )

    def __init__(self, expr: Any, *args: Any, **knobs: Any) -> None:
        """Wrap *expr* (a co-expression, iterator node, generator factory,
        or iterable) in a threaded proxy.  The knobs — by keyword, or
        positionally in order — and their defaults are those of
        :func:`pipe_knobs`, which checks and normalizes them.

        The output channel holds *capacity* items (0 = unbounded).
        ``take_timeout`` is the default deadline applied to every
        :meth:`take` (None = wait forever).

        ``batch`` > 1 turns on batched transport: the worker coalesces up
        to that many results and moves them through the channel as one
        slice (``put_many``); :meth:`take` transparently unbatches, so
        consumers see identical element-at-a-time semantics.  The channel
        still holds individual items — ``capacity`` keeps counting
        elements and ``pipe.out`` stays wire-compatible.  ``max_linger``
        bounds how long (seconds) a partial batch may sit in the worker's
        buffer: setting it spawns a flusher thread alongside the worker
        that delivers aged partial batches even while the producer is
        blocked computing its next result — a slow producer can delay its
        *own* results, never ones already produced.  A partial batch is
        always flushed on exhaustion, crash (data first, then the error),
        and close.

        ``backend`` selects the execution tier: ``"thread"`` (the paper's
        shape) or ``"process"`` — the body runs in a ``multiprocessing``
        child (crash-isolated, GIL-free) streaming the same envelopes
        over IPC, watched by a heartbeat (``heartbeat_interval`` seconds
        between beats; ``heartbeat_timeout`` until a silent child is
        declared lost, default 10 intervals).  A body that cannot cross
        the process boundary degrades to the thread backend with a
        ``DEGRADED`` monitor event (see :mod:`repro.coexpr.proc`);
        ``mp_context`` overrides the multiprocessing context (default:
        fork where available).

        ``backend="remote"`` ships the body to the generator server at
        ``remote_address`` (a ``(host, port)`` pair — or a **list** of
        pairs / a :class:`~repro.net.cluster.ServerPool`, the replicated
        cluster tier: consistent-hash placement plus failover to the
        next live replica) and streams results back over a socket
        speaking the same envelopes, watched by the same heartbeat
        parameters.  A body that cannot be pickled — or a server (every
        replica, when pooled) that cannot be reached — degrades to the
        thread backend exactly as the process tier does (see
        :mod:`repro.net`).

        ``backend="async"`` runs the producer as a coroutine on the
        shared background event loop (:mod:`repro.coexpr.aio`): the
        consumer keeps this exact blocking surface, but the producer
        costs a task instead of a thread, multiplexed with every other
        async worker on one loop.  Backpressure is cooperative and the
        body runs in-process, so — unlike process/remote — no body ever
        degrades.

        ``deadline`` bounds the pipe end to end: seconds of budget (or a
        shared :class:`~repro.coexpr.deadline.Deadline`).  The budget is
        checked before every spawn (an expired pipe never forks a child
        or dials a socket), bounds every :meth:`take`, and propagates to
        the producer — whichever tier it runs on — so expiry actively
        tears the worker down (data flushed first, then
        :class:`~repro.errors.PipeDeadlineExceeded`, then close) instead
        of leaving it computing for a consumer that gave up.
        """
        knobs = pipe_knobs(*args, **knobs)
        super().__init__()
        self.coexpr: CoExpression = coexpr_of(expr)
        #: The validated knobs, whole: :meth:`refresh` rebuilds from them.
        self._knobs = knobs
        self.capacity = knobs["capacity"]
        #: The output blocking queue — public, as in the paper.
        self.out = Channel(self.capacity)
        #: Default per-take deadline in seconds (None = block forever).
        self.take_timeout = knobs["take_timeout"]
        #: Producer-side coalescing factor (1 = unbatched, the paper's shape).
        self.batch = knobs["batch"]
        #: Seconds a partial batch may linger before being flushed.
        self.max_linger = knobs["max_linger"]
        #: Execution tier: "thread", "process", "remote" or "async" (see
        #: the class docstring).
        self.backend = knobs["backend"]
        #: Seconds between liveness beats (process and remote backends).
        self.heartbeat_interval = knobs["heartbeat_interval"]
        #: Seconds of silence before the watchdog declares the worker
        #: lost (None = 10 heartbeat intervals).
        self.heartbeat_timeout = knobs["heartbeat_timeout"]
        #: Multiprocessing context override (None = fork where available).
        self.mp_context = knobs["mp_context"]
        #: ``(host, port)`` of the generator server (remote backend) — or
        #: a :class:`~repro.net.cluster.ServerPool` over several replicas.
        self.remote_address = knobs["remote_address"]
        #: End-to-end budget (shared along pipelines and across
        #: supervised restarts — a retry does not reset the clock).
        self.deadline: Deadline | None = knobs["deadline"]
        #: The pipe feeding this one, when built by ``patterns.stage`` —
        #: cancellation propagates through it so a dead stage never
        #: leaves its producer blocked on a full channel.
        self.upstream: Any = None
        self._scheduler = knobs["scheduler"]
        self._started = False
        self._start_lock = threading.Lock()
        self._cancelled = False
        self._worker: WorkerHandle | None = None
        #: The tier's worker when a non-thread backend actually engaged.
        self._tier_worker: Any = None
        #: Degradation reason when a tier request fell back to threads.
        self._degraded: str | None = None
        self._errored = False
        #: Consumer-side buffer of unbatched results (only the taking
        #: thread touches it, matching Channel's one-consumer-per-take
        #: contract for ordering).
        self._pending: deque = deque()
        self._flushes = 0
        self._batched_items = 0
        # Linger-mode state: the coalescing buffer moves behind a
        # condition shared by the worker and the flusher thread.
        self._flusher: WorkerHandle | None = None
        self._buf_cond = (
            threading.Condition()
            if (self.batch > 1 and self.max_linger is not None)
            else None
        )
        self._buffer: List[Any] = []
        self._buf_oldest = 0.0
        self._producer_done = False

    # -- worker --------------------------------------------------------------

    def start(self) -> "Pipe":
        """Spawn the producer worker (idempotent; no-op once cancelled).

        With another backend this calls the tier's start hook (forking a
        child, dialing a server, or scheduling a loop task); if the body
        cannot run on that tier the pipe degrades to the thread backend
        in place (``DEGRADED`` monitor event, :attr:`degraded` set).

        An already-expired deadline short-circuits *before* any spawn —
        no child is forked and no socket is dialed past budget; the pipe
        cancels itself and raises :class:`PipeDeadlineExceeded`.  Any
        other error from the spawn (a shut-down scheduler, a tier hook
        that raises) un-starts the pipe, so every later step raises it
        again.
        """
        deadline = self.deadline
        if deadline is not None and not self._started and deadline.expired():
            error = self._deadline_error("start")
            self.cancel()
            raise error
        with self._start_lock:
            if self._started or self._cancelled:
                return self
            self._started = True
        try:
            scheduler = self._scheduler or default_scheduler()
            tier = _TIERS.get(self.backend)
            if tier is not None:
                module, hook = tier
                worker = getattr(importlib.import_module(module), hook)(self, scheduler)
                if not isinstance(worker, str):
                    self._tier_worker = worker
                    self._worker = worker.handle
                    self._emit(EventKind.START)
                    return self
                # Degraded: fall through to the thread backend below.
                self._degraded = worker
                self._emit(EventKind.DEGRADED, worker)
            self._worker = scheduler.submit(self._run, name=f"pipe-{self.coexpr.name}")
            if self._buf_cond is not None:
                self._flusher = scheduler.submit(
                    self._run_flusher, name=f"linger-{self.coexpr.name}"
                )
        except BaseException:
            # Un-start: with _started left set, the next step would skip
            # the start and block forever on a channel nothing will ever
            # feed or close — it must retry the start and raise again.
            self._started = False
            raise
        self._emit(EventKind.START)
        return self

    @property
    def degraded(self) -> str | None:
        """Why a process/remote/async backend request fell back to
        threads (None while the requested tier engaged, or when the
        thread backend was asked for)."""
        return self._degraded

    def _run(self) -> None:
        if self.batch > 1:
            self._run_batched()
            return
        out = self.out
        coexpr = self.coexpr
        deadline = self.deadline
        try:
            while not self._cancelled:
                if deadline is not None and deadline.expired():
                    raise self._deadline_error("producer")
                value = coexpr.activate()
                if value is FAIL:
                    break
                out.put(value)
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        except Exception as error:  # noqa: BLE001 - forwarded to consumer
            self._fail(error)
        finally:
            self._finish()

    def _flush(self, buffer: List[Any]) -> None:
        """Move the coalesced *buffer* through the channel as one slice."""
        self.out.put_many(buffer)
        self._flushes += 1
        self._batched_items += len(buffer)
        if lifecycle_enabled():
            self._emit(
                EventKind.BATCH,
                {"size": len(buffer), "queued": len(self.out)},
            )
        buffer.clear()

    def _run_batched(self) -> None:
        if self._buf_cond is not None:
            self._run_batched_linger()
            return
        # Throughput mode (no linger bound): the buffer is worker-local,
        # so coalescing costs no locking at all until the flush.
        coexpr = self.coexpr
        batch = self.batch
        deadline = self.deadline
        buffer: List[Any] = []
        try:
            while not self._cancelled:
                if deadline is not None and deadline.expired():
                    raise self._deadline_error("producer")
                value = coexpr.activate()
                if value is FAIL:
                    break
                buffer.append(value)
                if len(buffer) >= batch:
                    self._flush(buffer)
            if buffer:  # flush-on-exhaustion: no result is stranded
                self._flush(buffer)
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        except Exception as error:  # noqa: BLE001 - forwarded to consumer
            # Results produced before the crash are delivered before
            # the error — batching never reorders data past an error.
            with suppress(ChannelClosedError):
                if buffer:
                    self._flush(buffer)
            self._fail(error)
        finally:
            self._finish()

    def _flush_locked(self) -> None:
        """Flush the shared linger buffer; caller holds ``_buf_cond``."""
        if self._buffer:
            buffer, self._buffer = self._buffer, []
            self._flush(buffer)

    def _run_batched_linger(self) -> None:
        coexpr = self.coexpr
        batch = self.batch
        cond = self._buf_cond
        deadline = self.deadline
        try:
            while not self._cancelled:
                if deadline is not None and deadline.expired():
                    raise self._deadline_error("producer")
                value = coexpr.activate()
                if value is FAIL:
                    break
                with cond:
                    if not self._buffer:
                        self._buf_oldest = time.monotonic()
                        cond.notify_all()  # arm the flusher's linger clock
                    self._buffer.append(value)
                    if len(self._buffer) >= batch:
                        self._flush_locked()
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        except Exception as error:  # noqa: BLE001 - forwarded to consumer
            with cond, suppress(ChannelClosedError):
                self._flush_locked()  # data first, then the error
            self._fail(error)
        finally:
            with cond:
                self._producer_done = True
                with suppress(ChannelClosedError):
                    self._flush_locked()  # flush-on-exhaustion/close
                cond.notify_all()  # release the flusher
            self._finish()

    def _run_flusher(self) -> None:
        """Deliver partial batches older than ``max_linger`` while the
        worker is away computing — the latency half of the batching
        trade-off.  Exits when the worker finishes and the buffer drains."""
        cond = self._buf_cond
        max_linger = self.max_linger
        with cond:
            while True:
                if not self._buffer:
                    if self._producer_done:
                        return
                    cond.wait()
                    continue
                wait = self._buf_oldest + max_linger - time.monotonic()
                if wait > 0:
                    cond.wait(wait)
                    continue
                try:
                    self._flush_locked()
                except ChannelClosedError:
                    return  # consumer cancelled: nothing left to deliver

    # -- consumer ------------------------------------------------------------

    def take(self, timeout: Any = _UNSET) -> Any:
        """One blocking step: the next result or :data:`FAIL` (paper: "an
        @ operation on a pipe is out.take()").

        *timeout* overrides the pipe's ``take_timeout`` for this call;
        expiry raises :class:`PipeTimeoutError` (the pipe stays usable —
        cancel it to tear the producer down).  A pipe ``deadline`` also
        bounds the wait, and its expiry is *active*: the pipe cancels
        itself (tearing down the producer, whichever tier it runs on)
        and raises :class:`PipeDeadlineExceeded` instead.
        """
        if timeout is _UNSET:
            timeout = self.take_timeout
        if self._pending:
            # Unbatching fast path: already-taken results are served
            # without touching the channel lock at all.
            try:
                return self._pending.popleft()
            except IndexError:
                pass  # raced with another consumer (fan-out); fall through
        deadline = self.deadline
        if deadline is not None:
            if deadline.expired():
                error = self._deadline_error("take")
                self.cancel()
                raise error
            timeout = deadline.bound(timeout)
        try:
            self.start()
            if self.batch > 1:
                item = self.out.take_many(self.batch, timeout)
            else:
                item = self.out.take(timeout)
        except PipeDeadlineExceeded:
            # The producer's own expiry envelope (or a start-time
            # short-circuit): already the right error — tear down and
            # let it through unwrapped.
            self.cancel()
            raise
        except PipeTimeoutError:
            if deadline is not None and deadline.expired():
                error = self._deadline_error("take")
                self.cancel()
                raise error from None
            self._emit(EventKind.TIMEOUT, timeout)
            raise PipeTimeoutError(
                f"pipe {self.coexpr.name!r}: no result within {timeout}s"
            ) from None
        if item is CLOSED:
            return FAIL
        if self.batch > 1:
            # take_many returned a non-empty slice: serve the head now,
            # stash the rest for lock-free subsequent takes.
            if len(item) > 1:
                self._pending.extend(item[1:])
            return item[0]
        return item

    def next_value(self) -> Any:  # stateful stepping: no auto-restart
        return self.take()

    def iterate(self) -> Iterator[Any]:
        """Drain the pipe.  NOTE: single-shot — a second pass finds the
        channel closed and fails immediately (use :meth:`refresh`)."""
        self.start()
        while True:
            item = self.take()
            if item is FAIL:
                return
            yield item

    # -- lifecycle -----------------------------------------------------------

    def cancel(self, join: bool = False, timeout: float | None = None) -> bool:
        """Stop the producer (idempotent).

        Closes the output channel (unblocking a blocked ``put``), flags
        the worker loop to exit, closes the co-expression body (running
        its ``finally`` blocks), and propagates to :attr:`upstream`.

        With ``join=True`` this is the *graceful* form: it also waits up
        to *timeout* seconds for the worker thread to finish.  Returns
        True when the worker is known to be done (or never started).

        Strictly idempotent: only the first call emits the ``CANCEL``
        event, closes the body, and propagates upstream — a second
        cancel (or a cancel after natural exhaustion) merely re-joins
        the already-stopped worker.
        """
        first = False
        with self._start_lock:
            if not self._cancelled:
                self._cancelled = True
                first = True
        if first:
            self._emit(EventKind.CANCEL)
            self.out.close()
            self.coexpr.close()
            tier_worker = self._tier_worker
            if tier_worker is not None:
                # Kills the child, sends cancel and closes the socket, or
                # cancels the loop task; the worker's own epilogue cleans up.
                tier_worker.terminate()
            self._cancel_upstream()
        worker = self._worker
        if worker is None:
            return True
        if join:
            return worker.join(timeout)
        return not worker.is_alive()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def refresh(self) -> "Pipe":
        """``^p`` — a new pipe (of the same class) over a refreshed copy
        of the co-expression, with the same knobs — the same shared
        :class:`~repro.coexpr.deadline.Deadline` (a refresh is not a
        reset) and the same normalized ``remote_address`` (one routing
        memory across restarts) — and the same ``upstream``, so
        cancelling the fresh pipe still cancels the producer above it."""
        fresh = Pipe.__new__(type(self))
        Pipe.__init__(fresh, self.coexpr.refresh(), **self._knobs)
        fresh.upstream = self.upstream
        return fresh

    @property
    def batch_stats(self) -> dict:
        """Producer-side batching counters: flushes, items moved, and the
        mean realized batch size (equals 1.0-per-put semantics when
        ``batch=1``, where no coalescing happens and this stays zeroed)."""
        flushes = self._flushes
        items = self._batched_items
        return {
            "flushes": flushes,
            "items": items,
            "mean_batch": (items / flushes) if flushes else 0.0,
        }

    # -- runtime protocol hooks ------------------------------------------------

    def icon_activate(self, transmit: Any = None) -> Any:
        if transmit is not None:
            raise PipeError("cannot transmit a value into a pipe")
        return self.take()

    def icon_promote(self) -> Iterator[Any]:
        return self.iterate()

    def icon_size(self) -> int:
        return self.coexpr.icon_size()

    def icon_type(self) -> str:
        return "pipe"

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else ("running" if self._started else "unstarted")
        )
        return (
            f"{type(self).__name__}({self.coexpr.name}, {state}, "
            f"queued={len(self.out)})"
        )
