"""The generator server — named pipeline factories behind a TCP listener.

One server hosts many concurrent clients; each accepted connection
becomes a *session* that runs one pipeline body to exhaustion and
streams its results back as wire envelopes.  The protocol rules live in
the sans-IO :class:`~repro.net.session.SessionCore`, which this server
and the event-loop server (:mod:`repro.net.aserver`) both drive.  Here
a session is two scheduler threads around it:

* the **sender** reads the request, builds the body (a pickled
  ``(factory, env)`` pair for ``spawn`` requests, a registered factory
  for ``call`` requests), and drives it — coalescing results into
  batched ``WIRE_DATA`` slices, never sending more items than the
  client has granted credit for (the flow-control mirror of a bounded
  channel: a slow client throttles the producer instead of ballooning
  the socket buffer);
* the **reader** consumes the control channel — credit grants and
  cancellation — and doubles as the *beater*: its receive timeout is
  the heartbeat interval, so exactly when the connection has been idle
  that long it sends a ``WIRE_BEAT`` (and flushes any batch older than
  the session's linger bound).  The sender starts it as soon as the
  request header is parsed, *before* unpickling a spawn body: a cold
  server importing modules while it unpickles still beats.

Stream termination follows the channel contract end to end: data
slices in production order, a crash flushed *after* the data produced
before it (``WIRE_ERROR`` carrying the cause-preserving payload of
:func:`repro.coexpr.wire.encode_error`), then ``WIRE_CLOSE``.

Sessions register with the :class:`~repro.coexpr.scheduler.PipeScheduler`
session accounting, so ``leaked()`` and ``shutdown()`` cover open
connections exactly as they cover threads and child processes.
:meth:`GeneratorServer.shutdown` is the graceful path — stop accepting,
close each session's body, flush, ``WIRE_CLOSE``, then kill stragglers —
and :meth:`GeneratorServer.install_signal_handlers` wires it to
SIGTERM/SIGINT for the ``junicon-serve`` entry point.
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time
import warnings
from typing import Any, Callable

from ..coexpr.coexpression import CoExpression
from ..coexpr.scheduler import PipeScheduler, default_scheduler
from ..coexpr.wire import (
    WIRE_BEAT,
    WIRE_BUSY,
    WIRE_CLOSE,
    WIRE_DATA,
    WIRE_ERROR,
    FrameError,
    SocketFramer,
    encode_error,
)
from ..errors import PipeError, SchedulerShutdownError
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from .session import CONTROL_KINDS, REQUEST_TIMEOUT, SessionCore

#: Accept-loop poll slice — bounds shutdown latency, not throughput.
_ACCEPT_SLICE = 0.2
#: Credit-wait slice for a sender with items but no credit.
_CREDIT_SLICE = 0.1
#: A client that leaves a frame half-sent for this many heartbeat
#: intervals is dead: the session is killed (the server-side mirror of
#: the client watchdog's ``_TIMEOUT_INTERVALS``).
_STALL_INTERVALS = 10
#: How long a shed connection's lingering half-close drains the
#: client's in-flight handshake before the socket is abandoned.
_SHED_LINGER = 0.5


class Session:
    """One client connection: a :class:`~repro.net.session.SessionCore`
    driven by a sender thread and a reader thread."""

    _ids = itertools.count(1)

    __slots__ = (
        "server",
        "framer",
        "peer",
        "name",
        "core",
        "coexpr",
        "handle",
        "reader_handle",
        "_cond",
        "_order",
        "_killed",
        "_cancelled",
        "_finished",
        "_torn",
    )

    def __init__(self, server: "GeneratorServer", sock: Any, peer: Any) -> None:
        self.server = server
        # A server that does not execute client code must not unpickle
        # arbitrary client objects either: without allow_spawn, frames
        # decode through the restricted unpickler (primitives only).
        self.framer = SocketFramer(sock, trusted=server.allow_spawn)
        self.peer = peer
        self.name = f"net-session-{next(self._ids)}"
        self.core = SessionCore(server)
        self.coexpr: CoExpression | None = None
        self.handle: Any = None         # sender (main) scheduler handle
        self.reader_handle: Any = None  # control-channel scheduler handle
        #: Guards the core's credit and buffer; the sender waits on it
        #: for credit.
        self._cond = threading.Condition()
        #: Serializes the pop-buffer/send-WIRE_DATA pair across the two
        #: flushing threads (sender and the reader's linger tick) —
        #: separate from ``_cond`` so credit grants still land while a
        #: sendall is throttled by the socket.
        self._order = threading.Lock()
        self._killed = False
        self._cancelled = False
        self._finished = False
        self._torn = False

    # -- worker/session protocol (scheduler accounting) ------------------------

    def is_alive(self) -> bool:
        for handle in (self.handle, self.reader_handle):
            if handle is not None and handle.is_alive():
                return True
        return False

    def join(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in (self.handle, self.reader_handle):
            if handle is None:
                continue
            budget = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            handle.join(budget)
        return not self.is_alive()

    def kill(self) -> None:
        """Abrupt teardown: close the socket now (idempotent).

        The chaos path — the client sees a torn connection, its
        watchdog raises :class:`~repro.errors.PipeConnectionLost`, and
        supervision (if any) reconnects.  Also what scheduler shutdown
        and the graceful path's straggler sweep use.
        """
        with self._cond:
            self._killed = True
            self._cond.notify_all()
        if self.coexpr is not None:
            self.coexpr.close()
        self.framer.close()

    def finish(self) -> None:
        """Graceful teardown: stop producing, flush, close the stream.

        Closing the co-expression makes its next activation fail, so the
        sender falls out of its loop naturally — delivering the batch it
        had coalesced and the ``WIRE_CLOSE`` terminator before the
        socket goes down.
        """
        with self._cond:
            self._cancelled = True
            self._cond.notify_all()
        if self.coexpr is not None:
            self.coexpr.close()

    def _stopping(self) -> bool:
        return self._killed or self._cancelled

    # -- sender ----------------------------------------------------------------

    def _flush(self, block: bool) -> None:
        """Send buffered items as credit allows.

        ``block=True`` (the sender) waits for credit until the buffer is
        empty; ``block=False`` (the reader's linger tick) sends whatever
        the current credit covers and returns.

        Both threads flush, so the pop-slice/send pair runs under the
        ``_order`` lock: preempted between the two, one flusher could
        otherwise ship an earlier slice *after* the other's later one —
        or let the sender emit ``WIRE_CLOSE``/``WIRE_ERROR`` while the
        reader still held an unsent slice.  ``_order`` is not ``_cond``,
        so a sendall throttled by the socket never stops the reader from
        applying credit grants; and the credit wait happens *outside*
        ``_order``, so a credit-starved sender never locks the reader's
        linger tick out of the control channel the credit must arrive on.
        """
        core = self.core
        while True:
            with self._order:
                with self._cond:
                    if not core.buffer or self._killed:
                        return
                    slice_ = core.take_slice()
                if slice_ is not None:
                    self.framer.send((WIRE_DATA, slice_))
                    continue
            # Out of credit with items still buffered (greedy credit
            # never gets here: take_slice replenishes it).
            if not block:
                return
            with self._cond:
                if core.buffer and core.credit == 0 and not self._killed:
                    self._cond.wait(_CREDIT_SLICE)

    def run(self) -> None:
        """The sender thread: request → body → stream → terminator.

        A connection whose first envelope is a control kind
        (``WIRE_PING`` / ``WIRE_PEERS``) never builds a body: it
        becomes a control session — the membership tier's probe and
        gossip channel — served inline on this thread until the peer
        hangs up.
        """
        try:
            try:
                envelope = self._read_first()
            except (OSError, EOFError, FrameError, TimeoutError):
                return  # client vanished before asking for anything
            if envelope[0] in CONTROL_KINDS:
                self.core.request_name = "control"
                self._run_control(envelope)
                return
            try:
                kind, request = self.core.parse_request(envelope)
            except Exception as error:  # noqa: BLE001 - reported to the client
                self._send_failure(error)
                return
            # Beat before building the body: unpickling a spawn body may
            # import modules for longer than the client's watchdog waits.
            self.reader_handle = self.server.scheduler.submit(
                self._run_reader, name=f"{self.name}-reader"
            )
            try:
                coexpr = self.core.build_body(kind, request)
            except Exception as error:  # noqa: BLE001 - reported to the client
                self._send_failure(error)
                return
            self.coexpr = coexpr
            self.server._note_session(self)
            self._stream(coexpr)
        finally:
            self._finish()

    def _read_first(self) -> tuple:
        # The request read is the only timed receive on this socket: the
        # reader thread polls with select over a *blocking* socket, so
        # the sender's sendall never inherits a receive timeout (a send
        # throttled past one heartbeat interval is flow control, not a
        # dead peer).
        self.framer.sock.settimeout(REQUEST_TIMEOUT)
        try:
            return self.framer.recv()
        finally:
            try:
                self.framer.sock.settimeout(None)
            except OSError:
                pass

    def _run_control(self, envelope: tuple | None) -> None:
        """Serve ping/peers envelopes until :meth:`SessionCore.control`
        ends the session.  A prober holds the connection open across
        rounds; the one-heartbeat receive timeout keeps a graceful
        shutdown (``finish`` sets ``_cancelled``) prompt."""
        try:
            self.framer.sock.settimeout(self.core.heartbeat_interval)
            while not self._stopping():
                reply = self.core.control(envelope, time.monotonic())
                if reply is None:
                    return
                if reply:
                    self.framer.send(reply)
                try:
                    envelope = self.framer.recv()
                except (socket.timeout, TimeoutError):
                    envelope = None
        except (OSError, EOFError, FrameError):
            pass  # peer gone: the control session just ends

    def _stream(self, coexpr: CoExpression) -> None:
        try:
            while not self._stopping():
                self.core.check_deadline(time.monotonic())
                value = coexpr.activate()
                if value is FAIL:
                    break
                with self._cond:
                    full = self.core.append(value, time.monotonic())
                if full:
                    self._flush(block=True)
            self._flush(block=True)
            if not self._killed:
                self.framer.send((WIRE_CLOSE,))
        except (OSError, EOFError, FrameError):
            pass  # peer gone mid-stream: nothing left to tell it
        except BaseException as error:  # noqa: BLE001 - forwarded to the client
            self._send_failure(error)

    def _send_failure(self, error: BaseException) -> None:
        """Data first, then the error, then close — the wire invariant."""
        try:
            self._flush(block=True)
            self.framer.send((WIRE_ERROR, encode_error(error)))
            self.framer.send((WIRE_CLOSE,))
        except (OSError, EOFError, FrameError):
            pass  # peer gone: the error dies with the session

    # -- reader ----------------------------------------------------------------

    def _run_reader(self) -> None:
        """Control channel + beater: credits, cancellation, liveness.

        Once the sender has finished this thread switches to *drain*
        mode — a lingering close that keeps consuming until the client
        closes its end.  Closing our socket any earlier would RST the
        connection while the client's late credit grants are still in
        flight, destroying the stream tail (data, the error, the close
        terminator) in the client's kernel buffer.

        The socket stays blocking (a receive timeout would infect the
        sender's sendall), so receives go through the framer's
        one-step :meth:`~repro.coexpr.wire.SocketFramer.try_recv` —
        never blocking past the bytes select reported.  A frame left
        partial past the core's stall bound kills the session: a wedged
        client must not pin two scheduler threads and a socket forever.
        """
        core, framer = self.core, self.framer
        while not self._killed:
            # A frame the request read already pulled in sits in the
            # framer's buffer, where select would never report it.
            ready = framer.buffered()
            if not ready:
                # Liveness bound on a half-received frame.  Asked of the
                # framer, not select: partial bytes an earlier receive
                # pulled into user space never poll readable again.
                if core.stalled(framer.partial(), time.monotonic()):
                    self.kill()  # stalled mid-frame: a dead client
                    break
                try:
                    ready, _, _ = select.select(
                        [framer.sock], [], [], core.heartbeat_interval
                    )
                except (OSError, ValueError):
                    break  # socket closed under us
            if not ready:
                if self._finished:
                    continue  # draining a half-closed socket: no beats
                # Idle exactly one heartbeat interval: prove liveness,
                # and deliver any batch that has out-lingered its bound.
                now = time.monotonic()
                try:
                    framer.send((WIRE_BEAT, now))
                    if core.linger_due(now):
                        self._flush(block=False)
                except (OSError, EOFError, FrameError):
                    self.kill()  # wedged client: wake a credit-blocked sender
                    break
                continue
            try:
                envelope = framer.try_recv()
            except EOFError:
                if not self._finished:
                    self.kill()  # client left mid-stream: stop the body
                break
            except (OSError, FrameError):
                # Torn connection: stop the body, wake the sender.
                self.kill()
                break
            if envelope is None:
                continue  # frame still partial; core.stalled bounds it
            replies = core.feed(envelope, time.monotonic())
            try:
                for reply in replies or ():
                    framer.send(reply)
            except (OSError, EOFError):
                replies = None
            if replies is None:
                self.kill()  # cancelled, protocol violation or torn socket
                break
            with self._cond:
                core.commit()
                self._cond.notify_all()
        if self._finished:
            self._teardown()

    # -- teardown --------------------------------------------------------------

    def _finish(self) -> None:
        with self._cond:
            if self._finished:
                return
            self._finished = True
            self._cond.notify_all()
        if self.coexpr is not None:
            self.coexpr.close()
        reader = self.reader_handle
        if reader is not None and not self._killed:
            # Lingering close: push our FIN but leave the reader
            # consuming until the *client* closes; it runs the final
            # teardown when the drain reaches EOF.
            try:
                self.framer.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            if reader.is_alive():
                return
        self._teardown()

    def _teardown(self) -> None:
        """Final socket close + deregistration (idempotent, any thread)."""
        with self._cond:
            if self._torn:
                return
            self._torn = True
        self.framer.close()
        self.server._forget(self)


class GeneratorServer:
    """A TCP listener hosting named pipeline factories.

    ``register(name, factory)`` publishes a factory clients can run with
    :class:`~repro.net.client.RemotePipe`; with ``allow_spawn=True``
    (default) the server also runs bodies clients ship by pickle — the
    transparent ``backend="remote"`` tier.  ``port=0`` binds an
    ephemeral port (read :attr:`address` after :meth:`start`).

    **Trust model: the wire is for trusted networks only.**  With
    ``allow_spawn=True`` every connecting client can execute arbitrary
    code by design — that is what the spawn tier *is* — so the server
    must only ever be reachable by clients trusted with the host.  With
    ``allow_spawn=False`` the protocol surface shrinks to registered
    factories and frames decode through a restricted unpickler that
    refuses global lookups (client envelopes — requests, credit,
    cancel — are then limited to primitive payloads, so ``WIRE_CALL``
    args must be primitive too); that removes the unpickling RCE, but
    the port is still unauthenticated.  Binding a non-loopback host
    emits a :class:`RuntimeWarning` for exactly this reason.

    Every session's threads come from *scheduler* (default: the process
    default), and every session registers with its session accounting —
    a shut-down scheduler closes the server's connections along with
    everything else it owns.

    **Admission control.**  ``max_sessions`` bounds concurrently open
    sessions: an over-capacity dial is answered with a single
    ``WIRE_BUSY(retry_after)`` envelope and closed — load is *shed*,
    never silently queued, so the client fails fast (and its circuit
    breaker learns the server is saturated) instead of hanging.
    ``max_credit`` caps each session's outstanding flow-control credit
    (a client whose initial grant exceeds it is told the quota once, so
    its batched replenishment never waits on credit the server will not
    use) and ``max_batch`` caps its coalescing slice, so one greedy
    client cannot make the server buffer unboundedly on its behalf.
    ``stall_intervals`` tunes how many silent heartbeat intervals a
    mid-frame client gets before its session is killed (the hostile/
    wedged-client bound).
    """

    #: The ``name`` a server gets when the constructor is not given one.
    default_name = "genserver"
    #: Lifecycle events each new session emits.
    session_events = (EventKind.NET_SESSION,)

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: PipeScheduler | None = None,
        heartbeat_interval: float = 0.1,
        allow_spawn: bool = True,
        name: str | None = None,
        max_sessions: int | None = None,
        max_credit: int | None = None,
        max_batch: int | None = None,
        retry_after: float = 0.5,
        stall_intervals: float = _STALL_INTERVALS,
        advertise: tuple | None = None,
        weight: float = 1.0,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 or None")
        if max_credit is not None and max_credit < 1:
            raise ValueError("max_credit must be >= 1 or None")
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1 or None")
        if retry_after < 0:
            raise ValueError("retry_after must be >= 0")
        if stall_intervals <= 0:
            raise ValueError("stall_intervals must be > 0")
        self.host = host
        self.port = port
        self.scheduler = scheduler or default_scheduler()
        self.heartbeat_interval = heartbeat_interval
        self.allow_spawn = allow_spawn
        self.name = self.default_name if name is None else name
        #: Admission bound (None = unlimited): dials past this many open
        #: sessions are shed with ``WIRE_BUSY``.
        self.max_sessions = max_sessions
        #: Per-session cap on outstanding credit (None = honor grants).
        self.max_credit = max_credit
        #: Per-session cap on the coalescing slice (None = honor request).
        self.max_batch = max_batch
        #: Seconds a shed client is told to wait before redialing.
        self.retry_after = retry_after
        #: Heartbeat intervals of mid-frame silence before a session is
        #: killed as stalled.
        self.stall_intervals = stall_intervals
        if weight <= 0:
            raise ValueError("weight must be > 0")
        #: The ``(host, port)`` this server *gossips* — for a replica
        #: behind NAT or a container boundary, the reachable address
        #: rather than the bind address (``junicon-serve --advertise``).
        #: None = the bound address.
        self.advertise = (
            None if advertise is None else (str(advertise[0]), int(advertise[1]))
        )
        #: This replica's gossiped capacity weight (vnode scaling on
        #: the client's weighted ring).
        self.weight = float(weight)
        self._peers: dict[tuple, float] = {}  # known fleet: address -> weight
        self._factories: dict[str, Callable[..., Any]] = {}
        self._listener: socket.socket | None = None
        #: The thread that accepts dials (the event loop's, async).
        self._accept_handle: Any = None
        self._lock = threading.Lock()
        self._sessions: list[Session] = []
        self._stopped = False
        self._started = False
        self._served = 0
        self._shed_count = 0

    # -- registry --------------------------------------------------------------

    def register(self, name: str, factory: Callable[..., Any]) -> "GeneratorServer":
        """Publish *factory* under *name* for ``call`` requests.

        ``factory(*args)`` must return what a co-expression body may be:
        an iterator, an iterable, or an
        :class:`~repro.runtime.iterator.IconIterator`.
        """
        if not callable(factory):
            raise TypeError(f"factory for {name!r} is not callable: {factory!r}")
        with self._lock:
            self._factories[name] = factory
        return self

    def _factory(self, name: Any) -> Callable[..., Any]:
        with self._lock:
            try:
                return self._factories[name]
            except KeyError:
                raise PipeError(
                    f"server {self.name!r} has no factory {name!r} "
                    f"(registered: {sorted(self._factories) or 'none'})"
                ) from None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "GeneratorServer":
        """Bind, listen, and run the accept loop on a scheduler thread."""
        if not self._claim_start():
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(_ACCEPT_SLICE)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        # The server itself registers as a session: a shut-down
        # scheduler calls kill(), which closes the listener and stops
        # the accept loop along with every open connection.
        self.scheduler.track_session(self)
        try:
            self._accept_handle = self.scheduler.submit(
                self._accept_loop, name=f"{self.name}-accept"
            )
        except BaseException:
            self.scheduler.untrack_session(self)
            listener.close()
            raise
        return self

    def _claim_start(self) -> bool:
        """Mark the server started (False if it already was), warning
        when the bind host admits non-local clients."""
        with self._lock:
            if self._stopped:
                raise PipeError(f"start on a shut-down {type(self).__name__}")
            if self._started:
                return False
            self._started = True
        loopback = self.host in ("localhost", "::1") or self.host.startswith(
            "127."
        )
        if not loopback:
            warnings.warn(
                f"{type(self).__name__} {self.name!r} is binding non-loopback "
                f"host {self.host!r}: the wire protocol is unauthenticated "
                + (
                    "and allow_spawn=True lets any client execute arbitrary "
                    "code — expose it to trusted networks only"
                    if self.allow_spawn
                    else "— expose it to trusted networks only"
                ),
                RuntimeWarning,
                stacklevel=3,
            )
        return True

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves an ephemeral ``port=0``."""
        return (self.host, self.port)

    @property
    def advertised_address(self) -> tuple:
        """What this server tells the fleet it is reachable as:
        ``advertise`` when set (NAT/containers), else the bound
        address."""
        return self.advertise if self.advertise is not None else self.address

    # -- gossip fleet ----------------------------------------------------------

    def known_peers(self) -> list:
        """This server's fleet view as primitive wire triples —
        ``[[host, port, weight], ...]`` — itself (advertised address)
        first.  The ``WIRE_PEERS`` reply payload."""
        host, port = self.advertised_address
        with self._lock:
            peers = [[host, port, self.weight]] + [
                [h, p, w] for (h, p), w in self._peers.items()
                if (h, p) != (host, port)
            ]
        return peers

    def add_peer(self, address: Any, weight: float | None = None) -> None:
        """Record a fleet member this server should gossip about.
        *address* takes any member spelling (``"host:port"``, a pair,
        a weighted triple); an explicit ``weight=`` wins."""
        from .membership import as_member

        (host, port), parsed = as_member(address)
        weight = parsed if weight is None else float(weight)
        if (host, port) == self.advertised_address:
            return
        with self._lock:
            self._peers[(host, port)] = weight

    def _merge_peers(self, entries: Any) -> None:
        """Fold a ``WIRE_PEERS`` payload into the fleet view (the pull
        half of a push-pull exchange).  Malformed entries are dropped;
        the payload is an unauthenticated claim, so this is additive
        advisory state — never an eviction."""
        from .membership import parse_wire_members

        me = self.advertised_address
        with self._lock:
            for address, weight in parse_wire_members(entries):
                if address != me:
                    self._peers[address] = weight

    def announce(self, targets: Any = None) -> int:
        """Push-pull a ``WIRE_PEERS`` exchange with each target (default:
        every known peer), merging what they reply; returns how many
        exchanges completed.  Best-effort by design — a replica joining
        a fleet announces itself to a seed so gossiping pools discover
        it, and an unreachable seed is simply skipped.
        """
        from .membership import as_member, exchange_peers

        if targets is None:
            with self._lock:
                addresses = list(self._peers)
        else:
            addresses = [as_member(value)[0] for value in targets]
        me = self.advertised_address
        count = 0
        known = [
            ((entry[0], entry[1]), entry[2]) for entry in self.known_peers()
        ]
        for address in addresses:
            if address == me:
                continue
            try:
                fleet = exchange_peers(address, known)
            except OSError:
                continue
            count += 1
            with self._lock:
                for peer, weight in fleet:
                    if peer != me:
                        self._peers[peer] = weight
        return count

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopped:
            try:
                sock, peer = listener.accept()
            except (socket.timeout, TimeoutError):
                continue
            except OSError:
                return  # listener closed under us: shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.max_sessions is not None:
                # Only this thread admits sessions, so a check under the
                # lock cannot be raced upward — a concurrent _forget can
                # only free a slot, which at worst sheds one dial early.
                with self._lock:
                    over = len(self._sessions) >= self.max_sessions
                if over:
                    self._shed(sock, peer)
                    continue
            session = Session(self, sock, peer)
            try:
                self.scheduler.track_session(session)
            except SchedulerShutdownError:
                sock.close()
                return
            with self._lock:
                if self._stopped:
                    self.scheduler.untrack_session(session)
                    sock.close()
                    return
                self._sessions.append(session)
                self._served += 1
            try:
                session.handle = self.scheduler.submit(
                    session.run, name=session.name
                )
            except SchedulerShutdownError:
                session.kill()
                self._forget(session)
                return

    def _shed(self, sock: Any, peer: Any) -> None:
        """Refuse one over-capacity dial: ``WIRE_BUSY(retry_after)``,
        then close — the client fails fast instead of hanging.

        The close is a *lingering* half-close: an abrupt ``close()``
        while the client's handshake envelopes are still in flight would
        RST the connection and destroy the busy reply in the client's
        kernel buffer — the client would see a torn dial with no retry
        hint.  Sending FIN first and draining the handshake bytes (off
        the accept thread, so a shed storm cannot serialize admission)
        lets the envelope land."""
        self._count_shed(peer)
        try:
            SocketFramer(sock).send((WIRE_BUSY, self.retry_after))
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            try:
                sock.close()
            except OSError:
                pass
            sock = None  # the impatient client already hung up
        if sock is not None:
            try:
                self.scheduler.submit(
                    lambda: self._drain_shed(sock), name=f"{self.name}-shed"
                )
            except SchedulerShutdownError:
                try:
                    sock.close()
                except OSError:
                    pass

    def _count_shed(self, peer: Any) -> None:
        """Count one shed dial and emit its ``SHED`` event.

        Call it before the busy reply goes out: the moment the reply is
        on the wire the client can raise PipeServerBusy, and a tracer
        watching for the shed may already have unsubscribed.
        """
        with self._lock:
            self._shed_count += 1
            active = len(self._sessions)
        if lifecycle_enabled():
            emit_lifecycle(
                Event(
                    EventKind.SHED,
                    f"server:{self.name}",
                    0,
                    {
                        "peer": peer,
                        "active": active,
                        "max_sessions": self.max_sessions,
                        "retry_after": self.retry_after,
                    },
                )
            )

    @staticmethod
    def _drain_shed(sock: Any) -> None:
        """Consume a shed client's in-flight handshake until it closes
        its end (bounded: a writer that never stops is abandoned)."""
        limit = time.monotonic() + _SHED_LINGER
        try:
            sock.settimeout(0.05)
            while time.monotonic() < limit:
                try:
                    if not sock.recv(4096):
                        break  # client saw the busy reply and hung up
                except (socket.timeout, TimeoutError):
                    continue
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _note_session(self, session: Any) -> None:
        if lifecycle_enabled():
            name = session.core.request_name
            detail = {"peer": session.peer, "name": name, "server": self.name}
            for kind in self.session_events:
                emit_lifecycle(Event(kind, f"pipe:{name}", 0, detail))

    def _forget(self, session: Session) -> None:
        with self._lock:
            try:
                self._sessions.remove(session)
            except ValueError:
                pass
        self.scheduler.untrack_session(session)

    def active_sessions(self) -> list:
        """Sessions currently open (snapshot)."""
        with self._lock:
            return list(self._sessions)

    def kill_sessions(self) -> int:
        """Hard-kill every live session (the chaos hook); returns the
        count.  Clients see :class:`~repro.errors.PipeConnectionLost`."""
        sessions = self.active_sessions()
        for session in sessions:
            session.kill()
        return len(sessions)

    @property
    def stats(self) -> dict:
        """``{"served": total sessions accepted, "active": open now,
        "shed": dials refused at capacity}``."""
        with self._lock:
            return {
                "served": self._served,
                "active": len(self._sessions),
                "shed": self._shed_count,
            }

    def stats_line(self) -> str:
        """One operator-readable line of :attr:`stats` — the shape
        ``junicon-serve --stats-interval`` logs to stderr."""
        snapshot = self.stats
        host, port = self.address
        return (
            f"stats {host}:{port} served={snapshot['served']} "
            f"active={snapshot['active']} shed={snapshot['shed']}"
        )

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting and close every session gracefully.

        Each open session stops producing, flushes its coalesced batch,
        and sends ``WIRE_CLOSE`` — in-flight results are delivered, not
        dropped.  Sessions that do not drain within *timeout* are
        killed.  Idempotent.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        sessions = self.active_sessions()
        for session in sessions:
            session.finish()
        if wait:
            deadline = time.monotonic() + timeout
            for session in sessions:
                session.join(max(0.0, deadline - time.monotonic()))
            for session in sessions:
                if session.is_alive():
                    session.kill()
                    session.join(1.0)
        if self._accept_handle is not None:
            self._accept_handle.join(1.0)
        self.scheduler.untrack_session(self)

    # -- session protocol (scheduler accounting) -------------------------------

    def kill(self) -> None:
        """Scheduler-shutdown hook: stop accepting, close every session."""
        self.shutdown(wait=False)

    def is_alive(self) -> bool:
        handle = self._accept_handle
        return handle is not None and handle.is_alive()

    def join(self, timeout: float | None = None) -> bool:
        handle = self._accept_handle
        if handle is None:
            return True
        handle.join(timeout)
        return not handle.is_alive()

    def install_signal_handlers(self) -> threading.Event:
        """Arrange a graceful :meth:`shutdown` on SIGTERM/SIGINT.

        The handler itself only sets the returned event — a blocking
        shutdown (lock acquisition, multi-second joins) inside a signal
        handler can deadlock on state the interrupted frame holds, or
        re-enter when a second signal lands.  The *caller* waits on the
        event and runs the shutdown on an ordinary thread::

            stop = server.install_signal_handlers()
            stop.wait()
            server.shutdown(wait=True)

        Call from the main thread (a CPython requirement for
        ``signal.signal``); ``junicon-serve`` is exactly this pattern.
        """
        import signal

        stop = threading.Event()

        def _handler(signum: int, frame: Any) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)
        return stop

    def __enter__(self) -> "GeneratorServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopped
            else ("listening" if self._started else "unstarted")
        )
        return (
            f"{type(self).__name__}({self.name}, {self.host}:{self.port}, "
            f"{state}, active={len(self._sessions)})"
        )
