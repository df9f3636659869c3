"""The event-loop generator server — thousands of sessions, one thread.

A :class:`~repro.net.server.GeneratorServer` session costs two OS
threads (sender + reader), so one threaded server tops out at a few
hundred concurrent streams.  :class:`AsyncGeneratorServer` drives the
same sans-IO :class:`~repro.net.session.SessionCore` — the request
header, credit flow control, deadline rule, stall bound and
``WIRE_PING``/``WIRE_PEERS`` control replies — and speaks the same
framing and ``WIRE_BUSY`` shedding of :mod:`repro.coexpr.wire`, but
multiplexes every session as a pair of coroutines on one event loop: a
session costs two *tasks* instead of two threads, so concurrency scales
with memory, not with OS thread limits.

Interoperability is the point: the sync
:class:`~repro.net.client.RemotePipe` client (and ``backend="remote"``
pipes, :class:`~repro.net.membership.HealthProber` probes,
:class:`~repro.net.cluster.ServerPool` routing, gossip exchanges) work
against this server *unchanged* — nothing on the wire reveals which
server answered.  The observable stream contract is pinned by the same
backend-matrix tests: data slices in production order, data before
error, close terminates, deadlines cross the wire as remaining seconds
and are re-anchored on receipt, shed dials get a busy envelope through
a lingering half-close.

The trust model matches the threaded server exactly: ``allow_spawn``
decides whether frames decode through full pickle (the server runs
client code by design — trusted networks only) or the restricted
unpickler that refuses every global lookup.

The cooperative caveat of :mod:`repro.coexpr.aio` applies: one
``activate()`` runs to completion on the loop, so the tier multiplexes
*between* results.  Streams of many small results interleave fairly:
the sender follows the :class:`~repro.coexpr.aio.Turn` rule, yielding
after each ``WIRE_DATA`` slice it sends and at least once per
``sys.getswitchinterval()`` while it fills one.  A single multi-second
activation would still stall every session, so host such bodies on the
threaded server.

**Known limitation: slow body unpickling.**  A ``spawn`` body is
unpickled inline on the loop.  A body whose unpickling is slow (a cold
server importing a module) blocks every session for that long, and its
own client hears no ``WIRE_BEAT`` meanwhile: past the client's
heartbeat timeout the session is declared lost.  The threaded server
starts its beater before unpickling and has neither problem.  Moving
the unpickle off the loop would cost a thread hop per session, so this
substrate keeps it inline.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from ..coexpr.aio import Turn
from ..coexpr.coexpression import CoExpression
from ..coexpr.wire import (
    HEADER_SIZE,
    WIRE_BEAT,
    WIRE_BUSY,
    WIRE_CLOSE,
    WIRE_DATA,
    WIRE_ERROR,
    FrameError,
    decode_frame,
    encode_error,
    encode_frame,
    frame_length,
)
from ..monitor.events import EventKind
from ..runtime.failure import FAIL
from .server import _CREDIT_SLICE, _SHED_LINGER, GeneratorServer
from .session import CONTROL_KINDS, REQUEST_TIMEOUT, SessionCore

#: How long the loop thread's graceful drain waits for sessions to
#: flush + close before cancelling their tasks outright.
_DRAIN_TIMEOUT = 5.0


def _peername(writer: asyncio.StreamWriter) -> Any:
    try:
        return writer.get_extra_info("peername")
    except Exception:  # noqa: BLE001 - transport already gone
        return None


class _AsyncSession:
    """One client connection: a :class:`~repro.net.session.SessionCore`
    driven by a sender coroutine and a reader coroutine.

    asyncio primitives stand in for the threaded session's threads,
    condition and select; the termination order (data, then the error,
    then close) and the lingering half-close drain are the same.
    """

    __slots__ = (
        "server",
        "reader",
        "writer",
        "peer",
        "name",
        "core",
        "coexpr",
        "task",
        "reader_task",
        "_wlock",
        "_credit_wakeup",
        "_need",
        "_killed",
        "_cancelled",
        "_finished",
        "_torn",
    )

    def __init__(
        self,
        server: "AsyncGeneratorServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.peer = _peername(writer)
        self.name = f"aio-session-{id(self):x}"
        self.core = SessionCore(server)
        self.coexpr: CoExpression | None = None
        self.task: asyncio.Task | None = None
        self.reader_task: asyncio.Task | None = None
        #: Serializes frame writes: asyncio's drain() allows only one
        #: waiter.  Waiters queue in FIFO order, so slices popped in
        #: production order also reach the socket in that order.
        self._wlock = asyncio.Lock()
        self._credit_wakeup = asyncio.Event()
        #: Bytes still owed on a half-received frame (resumable receive
        #: state, so a heartbeat timeout never desynchronizes the
        #: stream; also the reader's mid-frame stall signal).
        self._need: int | None = None
        self._killed = False
        self._cancelled = False
        self._finished = False
        self._torn = False

    # -- framing (coroutine-side, cancellation-safe) ---------------------------

    async def _recv(self) -> tuple:
        """The next envelope.  Resumable under ``asyncio.wait_for``
        cancellation: a consumed header is remembered in ``_need``, and
        ``readexactly`` leaves its buffer intact when cancelled mid-wait
        — so a receive timeout never loses stream position."""
        if self._need is None:
            self._need = frame_length(await self.reader.readexactly(HEADER_SIZE))
        frame = await self.reader.readexactly(self._need)
        self._need = None
        return decode_frame(frame, self.server.allow_spawn)

    async def _send(self, envelope: tuple) -> None:
        frame = encode_frame(envelope)
        async with self._wlock:
            self.writer.write(frame)
            await self.writer.drain()

    # -- worker/session protocol -----------------------------------------------

    def kill(self) -> None:
        """Abrupt teardown (chaos / scheduler shutdown): close the
        transport now.  Loop-thread only — cross-thread callers go
        through the server's ``call_soon_threadsafe``."""
        self._killed = True
        self._credit_wakeup.set()
        if self.coexpr is not None:
            self.coexpr.close()
        try:
            self.writer.transport.abort()
        except Exception:  # noqa: BLE001 - transport already gone
            pass

    def finish(self) -> None:
        """Graceful teardown: stop producing; the sender flushes and
        sends ``WIRE_CLOSE`` on its way out (loop-thread only)."""
        self._cancelled = True
        self._credit_wakeup.set()
        if self.coexpr is not None:
            self.coexpr.close()

    def _stopping(self) -> bool:
        return self._killed or self._cancelled

    # -- sender ----------------------------------------------------------------

    async def _flush(self, block: bool) -> None:
        """Send buffered items as credit allows (``block=True`` parks on
        credit until the buffer drains; ``block=False`` is the reader's
        linger tick).  A slice is popped and queued on ``_wlock`` with
        no await between, so the two flushers can never reorder
        slices."""
        core = self.core
        while core.buffer and not self._killed:
            slice_ = core.take_slice()
            if slice_ is not None:
                await self._send((WIRE_DATA, slice_))
                continue
            # Out of credit with items still buffered.
            if not block:
                return
            self._credit_wakeup.clear()
            try:
                await asyncio.wait_for(
                    self._credit_wakeup.wait(), _CREDIT_SLICE
                )
            except asyncio.TimeoutError:
                pass

    async def run(self) -> None:
        """The session's main coroutine: request → body → stream →
        terminator (control connections short-circuit to the probe/
        gossip loop, exactly like the threaded server)."""
        try:
            try:
                envelope = await asyncio.wait_for(self._recv(), REQUEST_TIMEOUT)
            except (OSError, EOFError, FrameError, asyncio.TimeoutError):
                return  # client vanished before asking for anything
            if envelope[0] in CONTROL_KINDS:
                self.core.request_name = "control"
                await self._run_control(envelope)
                return
            try:
                coexpr = self.core.build_body(*self.core.parse_request(envelope))
            except Exception as error:  # noqa: BLE001 - reported to client
                await self._send_failure(error)
                return
            self.coexpr = coexpr
            self.server._note_session(self)
            self.reader_task = asyncio.get_running_loop().create_task(
                self._run_reader(), name=f"{self.name}-reader"
            )
            await self._stream(coexpr)
        finally:
            self._finish()

    async def _run_control(self, envelope: tuple | None) -> None:
        """Serve ping/peers frames until the peer closes or goes silent
        (:meth:`SessionCore.control` decides which)."""
        try:
            while not self._stopping():
                reply = self.core.control(envelope, time.monotonic())
                if reply is None:
                    return
                if reply:
                    await self._send(reply)
                try:
                    envelope = await asyncio.wait_for(
                        self._recv(), self.core.heartbeat_interval
                    )
                except asyncio.TimeoutError:
                    envelope = None
        except (OSError, EOFError, FrameError):
            pass  # peer gone: the control session just ends

    async def _stream(self, coexpr: CoExpression) -> None:
        core = self.core
        turn = Turn()
        try:
            while not self._stopping():
                core.check_deadline(time.monotonic())
                value = coexpr.activate()
                if value is FAIL:
                    break
                handed_off = core.append(value, time.monotonic())
                if handed_off:
                    await self._flush(block=True)
                await turn.pace(handed_off)
            await self._flush(block=True)
            if not self._killed:
                await self._send((WIRE_CLOSE,))
        except (OSError, EOFError, FrameError):
            pass  # peer gone mid-stream: nothing left to tell it
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - forwarded to client
            await self._send_failure(error)

    async def _send_failure(self, error: BaseException) -> None:
        """Data first, then the error, then close — the wire invariant."""
        try:
            await self._flush(block=True)
            await self._send((WIRE_ERROR, encode_error(error)))
            await self._send((WIRE_CLOSE,))
        except (OSError, EOFError, FrameError):
            pass  # peer gone: the error dies with the session

    # -- reader ----------------------------------------------------------------

    async def _run_reader(self) -> None:
        """Control channel + beater: credits, deadlines, cancellation,
        liveness — then the lingering half-close drain once the sender
        has finished.  A receive idle for one heartbeat interval sends a
        ``WIRE_BEAT`` and delivers any batch past its linger bound; a
        frame left partial past the core's stall bound kills the
        session (the wedged-client bound)."""
        core = self.core
        while not self._killed:
            try:
                envelope = await asyncio.wait_for(
                    self._recv(), core.heartbeat_interval
                )
            except asyncio.TimeoutError:
                now = time.monotonic()
                # Mid-frame silence counts toward the stall bound; idle
                # silence proves liveness and runs the linger tick.
                if core.stalled(self._need is not None, now):
                    self.kill()  # stalled mid-frame: a dead client
                    break
                if self._finished:
                    continue  # draining a half-closed socket: no beats
                try:
                    await self._send((WIRE_BEAT, now))
                    if core.linger_due(now):
                        await self._flush(block=False)
                except (OSError, EOFError, FrameError):
                    self.kill()  # wedged client: wake the blocked sender
                    break
                continue
            except asyncio.IncompleteReadError:
                if not self._finished:
                    self.kill()  # client left mid-stream: stop the body
                break
            except (OSError, EOFError, FrameError):
                self.kill()
                break
            replies = core.feed(envelope, time.monotonic())
            try:
                for reply in replies or ():
                    await self._send(reply)
            except (OSError, EOFError):
                replies = None
            if replies is None:
                self.kill()  # cancelled, protocol violation or torn socket
                break
            core.commit()
            self._credit_wakeup.set()
        if self._finished:
            self._teardown()

    # -- teardown --------------------------------------------------------------

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.coexpr is not None:
            self.coexpr.close()
        reader = self.reader_task
        if reader is not None and not self._killed and not reader.done():
            # Lingering close: push our FIN but leave the reader
            # draining until the *client* closes; it runs the final
            # teardown when the drain reaches EOF.
            try:
                if self.writer.can_write_eof():
                    self.writer.write_eof()
            except (OSError, RuntimeError):
                pass
            return
        self._teardown()

    def _teardown(self) -> None:
        """Final transport close + deregistration (idempotent)."""
        if self._torn:
            return
        self._torn = True
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - transport already gone
            pass
        self.server._forget(self)

    # -- chaos/accounting protocol (what kill_sessions/stats expect) -----------

    def is_alive(self) -> bool:
        return self.task is not None and not self.task.done()

    def join(self, timeout: float | None = None) -> bool:
        return not self.is_alive()


class AsyncGeneratorServer(GeneratorServer):
    """A :class:`GeneratorServer` whose sessions are event-loop tasks.

    Drop-in: the constructor, registry, gossip surface
    (``known_peers``/``add_peer``/``announce``), admission knobs
    (``max_sessions``/``max_credit``/``max_batch``/``retry_after``/
    ``stall_intervals``), ``stats``, context-manager protocol, and
    signal handling are inherited; only the execution substrate
    changes.  One scheduler thread runs the event loop; every session
    is a pair of coroutines on it, so concurrent sessions cost memory —
    not OS threads — and the ``junicon-serve --async`` deployment
    multiplexes thousands of streams where the threaded server tops
    out at hundreds.

    The server registers with the scheduler's session accounting and
    the loop thread is an ordinary scheduler thread: a shut-down
    scheduler stops the loop (cancelling every session task) along with
    everything else it owns — the no-orphans contract unchanged.
    """

    default_name = "agenserver"
    session_events = (EventKind.NET_SESSION, EventKind.ASYNC_SESSION)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._bound = threading.Event()
        self._start_error: BaseException | None = None
        self._stop_async: asyncio.Event | None = None
        self._drain_timeout = _DRAIN_TIMEOUT

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "AsyncGeneratorServer":
        """Bind, listen, and run the event loop on a scheduler thread."""
        if not self._claim_start():
            return self
        self.scheduler.track_session(self)
        try:
            self._accept_handle = self.scheduler.submit(
                self._run_loop, name=f"{self.name}-loop"
            )
        except BaseException:
            self.scheduler.untrack_session(self)
            raise
        self._bound.wait()
        if self._start_error is not None:
            error = self._start_error
            self.scheduler.untrack_session(self)
            raise error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()
            if not self._bound.is_set():
                self._start_error = error  # e.g. the bind failed
        finally:
            try:
                loop.close()
            except Exception:  # noqa: BLE001
                pass
            self._bound.set()  # never strand start()

    async def _main(self) -> None:
        self._stop_async = asyncio.Event()
        server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        try:
            self.host, self.port = server.sockets[0].getsockname()[:2]
            self._bound.set()
            await self._stop_async.wait()
        finally:
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # noqa: BLE001
                pass
            await self._drain_sessions()

    async def _drain_sessions(self) -> None:
        """Graceful loop-side drain: finish every session (flush +
        ``WIRE_CLOSE``), bound the wait, cancel stragglers."""
        sessions = self.active_sessions()
        for session in sessions:
            session.finish()
        tasks = [
            t
            for s in sessions
            for t in (s.task, s.reader_task)
            if t is not None and not t.done()
        ]
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=self._drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for session in sessions:
            session._teardown()

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopped:
            writer.close()
            return
        if self.max_sessions is not None:
            with self._lock:
                over = len(self._sessions) >= self.max_sessions
            if over:
                await self._shed_async(reader, writer)
                return
        session = _AsyncSession(self, reader, writer)
        with self._lock:
            if self._stopped:
                writer.close()
                return
            self._sessions.append(session)
            self._served += 1
        session.task = asyncio.current_task()
        try:
            await session.run()
        finally:
            if not session._torn and (
                session._killed or session.reader_task is None
            ):
                session._teardown()

    async def _shed_async(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Refuse one over-capacity dial: ``WIRE_BUSY(retry_after)``
        through a lingering half-close, so the busy reply survives the
        client's in-flight handshake (same shape as the threaded
        server's shed path)."""
        self._count_shed(_peername(writer))
        try:
            writer.write(encode_frame((WIRE_BUSY, self.retry_after)))
            await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
            limit = time.monotonic() + _SHED_LINGER
            while time.monotonic() < limit:
                try:
                    chunk = await asyncio.wait_for(reader.read(4096), 0.05)
                except asyncio.TimeoutError:
                    continue
                if not chunk:
                    break  # client saw the busy reply and hung up
        except OSError:
            pass  # the impatient client already hung up
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    # -- cross-thread control ----------------------------------------------

    def _call_on_loop(self, fn: Any) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def kill_sessions(self) -> int:
        """Hard-kill every live session on the loop (the chaos hook)."""
        sessions = self.active_sessions()
        self._call_on_loop(
            lambda: [session.kill() for session in sessions]
        )
        return len(sessions)

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting and drain every session gracefully: each one
        flushes its coalesced batch and sends ``WIRE_CLOSE``; stragglers
        past *timeout* are cancelled.  Idempotent."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._drain_timeout = timeout
        started = self._started

        def _signal() -> None:
            if self._stop_async is not None:
                self._stop_async.set()

        self._call_on_loop(_signal)
        handle = self._accept_handle
        if wait and handle is not None:
            # The loop thread exits once the drain completes; give it
            # the drain budget plus slack for the cancellation sweep.
            handle.join(timeout + 2.0)
        if started:
            self.scheduler.untrack_session(self)
