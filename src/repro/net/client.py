"""The client side of the network tier: remote workers and remote pipes.

One entry point, :func:`start_remote_worker` — the hook
:meth:`Pipe.start` calls for ``backend="remote"`` — starts every remote
body through one dial (:func:`_dial`).  The body decides the request:

* a pipe's own ``(factory, env)`` body is pickled into a ``WIRE_SPAWN``
  and, when it cannot run remotely, the hook returns the reason and the
  pipe degrades to the thread backend;
* a :class:`ServerCall` body names a factory the *server* registered; it
  goes as a ``WIRE_CALL`` and, having no local body, never degrades — a
  refused dial raises instead.  :class:`RemotePipe` is just a
  :class:`~repro.coexpr.pipe.Pipe` over such a body.

The pump thread is transport and monitor in one loop, kept thin by
the same sans-IO :class:`~repro.coexpr.wire.Receiver` the process
tier's pump uses: every received envelope refreshes the heartbeat
deadline; expiry, an EOF, or a torn frame surfaces as
:class:`~repro.errors.PipeConnectionLost` through the channel (after
draining any data received first — the data-before-error invariant).
The pump keeps what is remote-specific: chaos ticks, eager drains
(:func:`drain_address`), and the breaker and pool notes of a loss.

Flow control is credit-based: the client grants credit equal to its
channel capacity up front (None = unlimited for an unbounded channel)
and counts the items ``put_many`` has delivered since its last grant.
Once that count reaches half the window (rounded up) it grants them
back in one ``WIRE_CREDIT`` frame, in the style of HTTP/2
``WINDOW_UPDATE`` — so a window of 16 costs one credit frame per 8
items instead of one per slice, the server never has more than roughly
two windows in flight, and a slow consumer throttles the remote
producer the same way it throttles a local worker blocked on a full
channel.  A server whose ``max_credit`` quota is smaller than the
initial grant announces the quota once, with a ``WIRE_CREDIT`` frame of
its own before any data; the pump shrinks its window to match, so the
half-window threshold never waits on credit the server will not use.

Degradation mirrors :mod:`repro.coexpr.proc`: a body that cannot leave
the process (:func:`~repro.coexpr.proc.body_portability_reason`), a
body that does not pickle, or a server that cannot be reached make the
start hook return the reason, and the pipe falls back to the thread
backend with a ``DEGRADED`` monitor event.  The body is pickled once:
the bytes that prove it portable are the bytes the request ships.

A per-address :class:`CircuitBreaker` sits in front of every dial:
consecutive ``WIRE_BUSY`` sheds and connection losses trip it open, and
while open a shipped body degrades to the thread tier *without dialing*
(a :class:`ServerCall` raises :class:`~repro.errors.PipeServerBusy`) —
a saturated server stops being hammered by reconnect storms.
After the shed's ``retry_after`` lapses the breaker admits one half-open
probe; a healthy stream closes it again.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Any, NamedTuple

from ..coexpr.coexpression import CoExpression
from ..coexpr.pipe import Pipe
from ..coexpr.proc import body_portability_reason
from ..coexpr.scheduler import PipeScheduler
from ..coexpr.wire import (
    _POLL_SLICE,
    LOST,
    WIRE_BUSY,
    WIRE_CALL,
    WIRE_CANCEL,
    WIRE_CLOSE,
    WIRE_CREDIT,
    WIRE_DATA,
    WIRE_DEADLINE,
    WIRE_ERROR,
    WIRE_SPAWN,
    FrameError,
    Receiver,
    SocketFramer,
)
from ..errors import (
    ChannelClosedError,
    InjectedDisconnect,
    PipeConnectionLost,
    PipeError,
    PipeServerBusy,
)
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled

#: TCP connect timeout before degrading (or failing a RemotePipe).
_CONNECT_TIMEOUT = 5.0

#: Consecutive failures (sheds or connection losses) that trip a breaker.
_BREAKER_THRESHOLD = 3
#: Open-state hold when the failure carried no ``retry_after`` hint.
_BREAKER_COOLDOWN = 0.5


class CircuitBreaker:
    """Per-address overload memory: closed → open → half-open → closed.

    Every remote dial consults the breaker for its target address.
    While **closed** (healthy) dials pass through; *threshold*
    consecutive failures — a ``WIRE_BUSY`` shed, a refused or lost
    connection — trip it **open**, and :meth:`allow` then answers False
    until the failure's ``retry_after`` (or a default cooldown) lapses.
    The first dial after that is the **half-open probe**: exactly one
    caller is admitted while the others keep failing fast; the probe's
    outcome (a healthy stream vs. another failure) closes or re-opens
    the breaker.

    Thread-safe; shared process-wide per address via :func:`breaker_for`.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, address: Any, threshold: int = _BREAKER_THRESHOLD) -> None:
        self.address = address
        self.threshold = threshold
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._until = 0.0  # monotonic instant the open hold lapses

    def _emit(self, kind: str, value: dict) -> None:
        if lifecycle_enabled():
            try:
                host, port = self.address
                node = f"breaker:{host}:{port}"
            except (TypeError, ValueError):
                node = f"breaker:{self.address!r}"
            emit_lifecycle(Event(kind, node, 0, value))

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def remaining(self) -> float:
        """Seconds until an open breaker will admit its probe."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self._until - time.monotonic())

    def allow(self) -> bool:
        """May this dial proceed?  (Admits the one half-open probe.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN and time.monotonic() >= self._until:
                self._state = self.HALF_OPEN
                self._emit(
                    EventKind.BREAKER_PROBE,
                    {"address": self.address, "failures": self._failures},
                )
                return True
            # OPEN within the hold, or a probe already in flight.
            return False

    def record_failure(self, retry_after: float | None = None) -> None:
        """One shed/lost outcome; trips the breaker at the threshold
        (immediately when it burns the half-open probe)."""
        with self._lock:
            self._failures += 1
            probe_failed = self._state == self.HALF_OPEN
            if not probe_failed and self._failures < self.threshold:
                return
            hold = retry_after if retry_after else _BREAKER_COOLDOWN
            self._state = self.OPEN
            self._until = time.monotonic() + hold
            self._emit(
                EventKind.BREAKER_OPEN,
                {
                    "address": self.address,
                    "failures": self._failures,
                    "retry_after": hold,
                },
            )

    def record_success(self) -> None:
        """A healthy stream: close the breaker, forget the failures."""
        with self._lock:
            reopened = self._state != self.CLOSED
            self._state = self.CLOSED
            self._failures = 0
            self._until = 0.0
            if reopened:
                self._emit(EventKind.BREAKER_CLOSE, {"address": self.address})


_breakers: dict = {}
_breakers_lock = threading.Lock()


def breaker_for(address: Any) -> CircuitBreaker:
    """The process-wide breaker for *address* (created on first use)."""
    key = tuple(address) if isinstance(address, (list, tuple)) else address
    with _breakers_lock:
        breaker = _breakers.get(key)
        if breaker is None:
            breaker = _breakers[key] = CircuitBreaker(key)
        return breaker


def reset_breakers() -> None:
    """Forget every breaker (test isolation between server lifetimes).

    Also clears the membership tier's shared address-health registry:
    both are process-wide per-address failure memory, and a test that
    resets one without the other inherits the previous test's corpses.
    """
    with _breakers_lock:
        _breakers.clear()
    from .membership import reset_shared_health

    reset_shared_health()


#: In-flight workers indexed by server address, so a membership tier's
#: death verdict can wake their watchdogs *now* — see :func:`drain_address`.
_live_lock = threading.Lock()
_live_workers: dict = {}


def _register_live(worker: Any) -> None:
    with _live_lock:
        _live_workers.setdefault(worker.address, set()).add(worker)


def _unregister_live(worker: Any) -> None:
    with _live_lock:
        peers = _live_workers.get(worker.address)
        if peers is not None:
            peers.discard(worker)
            if not peers:
                _live_workers.pop(worker.address, None)


def drain_address(address: Any, reason: str) -> int:
    """Wake every in-flight worker on *address* immediately.

    The eager half of failure detection: a health prober that declares
    a replica dead (:meth:`~repro.net.cluster.ServerPool.mark_down`)
    already *knows* the streams on it are doomed — without this, each
    one still blocks out its own heartbeat watchdog (up to
    :data:`~repro.coexpr.wire._TIMEOUT_INTERVALS` silent intervals)
    before failing over.
    Closing the framer under the pump's blocked receive surfaces an
    ``OSError`` within one ``_POLL_SLICE``; the stashed *reason* makes
    the loss verdict say "probe declared the server dead" rather than
    the bare transport error the forced close produced.  Returns how
    many workers were woken.
    """
    with _live_lock:
        workers = list(_live_workers.get(tuple(address), ()))
    for worker in workers:
        worker.drained = reason
        worker.framer.close()
    return len(workers)


class RemoteWorker:
    """One server connection plus the pump/watchdog thread draining it.

    *owner* is the :class:`~repro.coexpr.pipe.Pipe` being fed — a
    :class:`RemotePipe` is one too, over a :class:`ServerCall` body: it
    supplies the output channel, the cancel flag, and the watchdog
    knobs.  The
    pump body runs on a scheduler thread; the worker itself registers
    with the scheduler's session accounting, so ``leaked()`` and
    ``shutdown()`` cover the open socket.
    """

    __slots__ = (
        "owner",
        "scheduler",
        "framer",
        "address",
        "name",
        "request",
        "receiver",
        "handle",
        "pool",
        "route_key",
        "chaos",
        "drained",
        "_healthy",
    )

    def __init__(
        self,
        owner: Any,
        scheduler: Any,
        sock: Any,
        address: Any,
        name: str,
        request: tuple,
    ) -> None:
        self.owner = owner
        self.scheduler = scheduler
        self.framer = SocketFramer(sock)
        self.address = address
        self.name = name
        self.request = request
        #: The stream's protocol state; its credit window starts at the
        #: channel capacity (None = unbounded).
        window = owner.capacity or None
        self.receiver = Receiver(
            owner.heartbeat_interval, owner.heartbeat_timeout, window, time.monotonic()
        )
        self.handle: Any = None
        #: Cluster routing, when this session was dialed through a
        #: :class:`~repro.net.cluster.ServerPool`: the pool hears about
        #: losses/health (suspicion, failover accounting) keyed by
        #: ``route_key``; ``chaos`` is the pool's armed fault context
        #: (one per (re)connection) ticked per delivered item.
        self.pool: Any = None
        self.route_key: Any = None
        self.chaos: Any = None
        #: The drain verdict when a health prober declared this worker's
        #: server dead (:func:`drain_address`): a loss reports *this*
        #: reason instead of the bare transport error (or silence) the
        #: forced close produced.
        self.drained: str | None = None
        #: True once the stream proved the server healthy (first data /
        #: error / close envelope) and the breaker heard about it.
        self._healthy = False

    # -- lifecycle events ------------------------------------------------------

    def _emit(self, kind: str, value: Any = None) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"pipe:{self.name}", 0, value))

    # -- handshake -------------------------------------------------------------

    def handshake(self) -> None:
        """Ship the request, the initial credit grant, and (when the
        owner carries one) the deadline budget — remaining seconds, the
        only form that survives a clock boundary."""
        self.framer.send(self.request)
        self.framer.send((WIRE_CREDIT, self.receiver.window))
        deadline = getattr(self.owner, "deadline", None)
        if deadline is not None:
            remaining = deadline.remaining()
            self.framer.send((WIRE_DEADLINE, remaining))
            self._emit(
                EventKind.DEADLINE_PROPAGATED,
                {"remaining": remaining, "transport": "remote"},
            )
        self.framer.sock.settimeout(_POLL_SLICE)

    # -- pump / watchdog -------------------------------------------------------

    def lose(self, reason: str) -> None:
        """End the session as lost for *reason* (once per session)."""
        self._apply(self.receiver.lose(reason))

    def _apply(self, verdict: tuple | None) -> None:
        """Act on one receiver verdict."""
        if verdict is None:
            return
        kind, value = verdict
        owner = self.owner
        if kind == WIRE_DATA:
            self._mark_healthy()
            owner.out.put_many(value)
            if self.chaos is not None:
                # Deterministic chaos: tick the armed fault plan once per
                # delivered item.  drop_connection rules raise here;
                # kill_server rules fire silently and the fault arrives
                # through the socket like a real crash.
                try:
                    for item in value:
                        self.chaos.on_item(item)
                except InjectedDisconnect:
                    self.lose("injected connection drop")
                    return
            grant = self.receiver.delivered(len(value))
            if grant is not None:
                try:
                    # Replenish only after delivery, and only at
                    # half-drain: bounds what the server may have in
                    # flight to ~2 windows, in few frames.
                    self.framer.send((WIRE_CREDIT, grant))
                except (OSError, EOFError) as error:
                    if not owner._cancelled:
                        self.lose(f"transport error: {error!r}")
        elif kind == WIRE_ERROR:
            self._mark_healthy()  # the *server* worked; the body crashed
            owner._fail(value)
        elif kind == WIRE_CLOSE:
            self._mark_healthy()
        elif kind == LOST or kind == WIRE_BUSY:
            self._report_loss(kind, value)

    def _report_loss(self, kind: str, value: Any) -> None:
        """The session's one loss: the breaker, the pool and the monitor
        hear of it, and the consumer gets the error.  A ``WIRE_BUSY``
        shed is a retryable loss that feeds the breaker its
        ``retry_after`` hint."""
        if kind == WIRE_BUSY:
            retry_after, reason = value, "server at capacity"
            error: PipeError = PipeServerBusy(
                f"pipe {self.name!r}: server at {self.address!r} shed the "
                f"connection (retry after {retry_after:.2f}s)",
                address=self.address,
                retry_after=retry_after,
            )
        else:
            retry_after, reason = None, self.drained or value
            error = PipeConnectionLost(
                f"pipe {self.name!r}: remote session lost ({reason})",
                address=self.address,
                reason=reason,
            )
        breaker_for(self.address).record_failure(retry_after)
        if self.pool is not None:
            self.pool.note_lost(self.route_key, self.address, reason)
        self._emit(EventKind.NET_LOST, {"reason": reason, "address": self.address})
        self.owner._fail(error)

    def _mark_healthy(self) -> None:
        # First substantive envelope: the server accepted and ran the
        # session, so the breaker's failure streak is over (a long
        # stream must not wait for WIRE_CLOSE to close the breaker).
        if not self._healthy:
            self._healthy = True
            breaker_for(self.address).record_success()
            if self.pool is not None:
                self.pool.note_healthy(self.address)

    def pump(self) -> None:
        """Forward wire envelopes into the owner's channel; watch liveness.

        The receiver checks the heartbeat deadline only when a receive
        times out, and every envelope refreshes it — so a pump that
        spent seconds blocked in ``put_many`` (slow consumer) finds the
        server's buffered beats waiting and never false-positives.
        """
        owner = self.owner
        rx = self.receiver
        _register_live(self)
        try:
            while not (rx.ended or owner._cancelled):
                try:
                    verdict = rx.feed(self.framer.recv(), time.monotonic())
                except (socket.timeout, TimeoutError):
                    verdict = rx.timed_out(time.monotonic())
                except (EOFError, FrameError, OSError) as error:
                    if owner._cancelled:
                        return
                    verdict = rx.lose(
                        "connection closed before end of stream"
                        if isinstance(error, (EOFError, FrameError))
                        else f"transport error: {error!r}"
                    )
                self._apply(verdict)
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        finally:
            _unregister_live(self)
            owner._finish()
            self.framer.close()
            self.scheduler.untrack_session(self)

    # -- teardown --------------------------------------------------------------

    def terminate(self) -> None:
        """Tell the server to stop, then close the socket (idempotent)."""
        try:
            self.framer.send((WIRE_CANCEL,))
        except (OSError, EOFError):
            pass  # session already gone
        self.framer.close()

    # -- worker/session protocol (scheduler accounting) ------------------------

    def kill(self) -> None:
        """Abrupt close (scheduler shutdown): unblocks the pump."""
        self.framer.close()

    def join(self, timeout: float | None = None) -> bool:
        if self.handle is not None:
            return self.handle.join(timeout)
        return True

    def is_alive(self) -> bool:
        return self.handle is not None and self.handle.is_alive()


def _connect_worker(
    owner: Any,
    scheduler: Any,
    address: Any,
    name: str,
    request: tuple,
) -> RemoteWorker:
    """Dial, register, handshake, and submit the pump for *owner*.

    Raises ``OSError`` when the server is unreachable and
    :class:`~repro.errors.SchedulerShutdownError` when the scheduler is
    down — the callers decide whether that degrades or propagates.
    """
    sock = socket.create_connection(address, timeout=_CONNECT_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    worker = RemoteWorker(owner, scheduler, sock, address, name, request)
    try:
        scheduler.track_session(worker)  # raises after shutdown
    except BaseException:
        worker.framer.close()
        raise
    try:
        worker.handshake()
        worker.handle = scheduler.submit(worker.pump, name=f"net-{name}")
    except BaseException:
        worker.framer.close()
        scheduler.untrack_session(worker)
        raise
    if lifecycle_enabled():
        emit_lifecycle(
            Event(
                EventKind.NET_CONNECT,
                f"pipe:{name}",
                0,
                {"address": address},
            )
        )
    return worker


def _dial_pooled(
    owner: Any,
    scheduler: Any,
    pool: Any,
    key: Any,
    request: tuple,
    label: Any,
) -> RemoteWorker:
    """Dial through a :class:`~repro.net.cluster.ServerPool`.

    Walks the pool's dial candidates for *key* — the ring's preference
    order with suspect replicas last — consulting the per-address
    circuit breaker before each dial (an open breaker is a ``REROUTE``,
    not a dead end; the next candidate is tried).  The first replica
    that accepts gets the session: the pool records the connect (and
    emits ``FAILOVER`` when a lost stream lands on a new replica), the
    worker carries the pool + key so losses feed suspicion, and an
    armed fault plan is entered for the session.

    *label* names the worker: it receives the chosen address (a
    :class:`ServerCall`'s ``factory@host:port`` labels).

    Raises :class:`~repro.errors.PipeConnectionLost` only when **every**
    replica refused — the caller then applies its body's last-resort
    rule (degrade to threads, or propagate for a :class:`ServerCall`).
    """
    last_error: BaseException | None = None
    for address in pool.dial_candidates(key):
        breaker = breaker_for(address)
        if not breaker.allow():
            pool.note_skip(
                key,
                address,
                f"circuit breaker open (probe in {breaker.remaining():.2f}s)",
            )
            continue
        name = label(address)
        try:
            worker = _connect_worker(owner, scheduler, address, name, request)
        except (OSError, EOFError) as error:
            breaker.record_failure()
            pool.note_dial_failure(key, address, error)
            last_error = error
            continue
        worker.pool = pool
        worker.route_key = key
        pool.note_connect(key, address)
        try:
            worker.chaos = pool.chaos_enter(key)
        except InjectedDisconnect:
            # A drop-at-connect rule: the session opened, then "died"
            # before any data.  The error is already in the channel;
            # return the worker so the owner tears it down normally.
            worker.lose("injected connection drop")
            worker.terminate()
        return worker
    suffix = f" (last error: {last_error!r})" if last_error is not None else ""
    raise PipeConnectionLost(
        f"no replica reachable for {key!r} in {pool!r}{suffix}",
        address=pool.addresses,
        reason="no replica reachable",
    )


def _dial(owner: Any, scheduler: Any, request: tuple) -> RemoteWorker:
    """Open *owner*'s session on its ``remote_address``: the replica
    walk of a :class:`~repro.net.cluster.ServerPool`, or — for a single
    address — the breaker check and one connect.

    Raises :class:`~repro.errors.PipeServerBusy` (with ``retry_after``)
    while that address's breaker is open, and
    :class:`~repro.errors.PipeConnectionLost` when the connect fails
    (recorded on the breaker) or no replica is reachable.  A
    :class:`ServerCall` session is named ``factory@host:port``; any
    other after its co-expression.
    """
    address = owner.remote_address
    name = owner.coexpr.name
    call = isinstance(owner.coexpr._factory, ServerCall)

    def label(chosen: Any) -> str:
        return f"{name}@{chosen[0]}:{chosen[1]}" if call else name

    if hasattr(address, "dial_candidates"):
        # Cluster tier: per-replica breakers are consulted inside the
        # candidate walk; only a fleet-wide refusal raises.
        return _dial_pooled(owner, scheduler, address, name, request, label)
    breaker = breaker_for(address)
    if not breaker.allow():
        raise PipeServerBusy(
            f"circuit breaker open for {address!r} "
            f"(probe in {breaker.remaining():.2f}s)",
            address=address,
            retry_after=breaker.remaining(),
        )
    try:
        return _connect_worker(owner, scheduler, address, label(address), request)
    except (OSError, EOFError) as error:
        breaker.record_failure()
        raise PipeConnectionLost(
            f"connect to {address!r} failed: {error!r}",
            address=address,
            reason="connect failed",
        ) from error


def start_remote_worker(pipe: Any, scheduler: Any) -> RemoteWorker | str:
    """Start *pipe*'s body on its generator server, or say why it cannot
    run there.

    Returns a running :class:`RemoteWorker` (connected, request sent,
    pump submitted, session tracked by *scheduler*) — or the degrade
    reason, in which case :meth:`~repro.coexpr.pipe.Pipe.start` falls
    back to the thread backend.  Scheduler shutdown is **not**
    degradation: it propagates
    :class:`~repro.errors.SchedulerShutdownError` exactly as the other
    backends do.

    A :class:`ServerCall` body is a ``WIRE_CALL`` of the factory the
    server registered by that name.  Any other body must leave the
    process (:func:`~repro.coexpr.proc.body_portability_reason`) and
    must *always* pickle — unlike a forked child, the server never
    shares memory with the client.  It is pickled once, straight into
    the ``WIRE_SPAWN`` request.

    An open :class:`CircuitBreaker` for the target address refuses
    *without dialing* — while the server is shedding (or down), remote
    requests run on the thread tier instead of feeding a reconnect
    storm; the breaker's half-open probe decides when to go back.  A
    :class:`ServerCall` has no local body to run instead, so for it a
    refused or failed dial raises (and the un-started pipe dials again
    on its next step).
    """
    coexpr = pipe.coexpr
    body = coexpr._factory
    if isinstance(body, ServerCall):
        kind, head = WIRE_CALL, {"name": body.name, "args": body.args}
    else:
        reason = body_portability_reason(pipe)
        if reason is not None:
            return reason
        try:
            pickled = pickle.dumps(
                (body, coexpr._env), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as error:  # noqa: BLE001 - any pickle failure degrades
            return f"body not picklable for remote execution: {error!r}"
        kind, head = WIRE_SPAWN, {"body": pickled, "name": coexpr.name}
    request = (
        kind,
        {
            **head,
            "batch": pipe.batch,
            "max_linger": pipe.max_linger,
            "heartbeat_interval": pipe.heartbeat_interval,
        },
    )
    try:
        return _dial(pipe, scheduler, request)
    except PipeConnectionLost as error:
        if isinstance(body, ServerCall):
            raise
        return str(error)


class ServerCall(NamedTuple):
    """The body of a :class:`RemotePipe`: the factory the server
    registered as *name*, called there with primitive *args*.  It exists
    only on the far side — it is never pickled into a ``WIRE_SPAWN`` and
    never runs on a local thread."""

    name: str
    args: tuple


class RemotePipe(Pipe):
    """A pipe over a factory the *server* registered by name.

    ``RemotePipe(address, "events", args=(...,))`` is
    ``Pipe(..., backend="remote")`` over a :class:`ServerCall` body: the
    server runs its ``events`` factory and the results stream through a
    local channel with the whole :class:`~repro.coexpr.pipe.Pipe`
    surface — take / iterate / cancel, deadlines, batching.

    There is no local body to fall back to, so the pipe never degrades:
    an open breaker raises :class:`~repro.errors.PipeServerBusy` and a
    failed dial :class:`~repro.errors.PipeConnectionLost`, and the next
    step dials again.  ``refresh()`` (``^p``) returns a sibling proxy —
    a *new* connection replaying the factory from the start — which is
    what supervision needs for reconnect-and-replay.
    """

    __slots__ = ()

    def __init__(
        self,
        address: Any,
        name: str,
        args: tuple = (),
        capacity: int = 0,
        scheduler: PipeScheduler | None = None,
        take_timeout: float | None = None,
        batch: int = 1,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        deadline: Any = None,
    ) -> None:
        super().__init__(
            CoExpression(ServerCall(name, tuple(args)), name=name),
            capacity=capacity,
            scheduler=scheduler,
            take_timeout=take_timeout,
            batch=batch,
            backend="remote",
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            remote_address=address,
            deadline=deadline,
        )

    @property
    def address(self) -> Any:
        """``remote_address``: the server's ``(host, port)``, or the
        :class:`~repro.net.cluster.ServerPool` shared across refreshes."""
        return self.remote_address
