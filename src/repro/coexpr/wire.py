"""The wire protocol — one envelope vocabulary for every pipe transport.

In-process, channel traffic is method calls (``put_many`` / ``put_error``
/ ``close``).  When the same traffic crosses an OS boundary each call
becomes a tagged tuple — an *envelope* — on a byte transport: an IPC
connection for process-backed pipes (:mod:`repro.coexpr.proc`) or a TCP
socket for remote pipes (:mod:`repro.net`).  This module is the single
definition of that vocabulary plus the two codecs every transport needs:

* **error encoding** — a producer exception as a transportable payload,
  preserving the ``__cause__`` chain and the traceback text (a remote
  crash should read like a local one);
* **socket framing** — length-prefixed pickle frames over a stream
  socket, timeout-safe (a read that times out mid-frame keeps its
  partial bytes and resumes cleanly).

It also holds the consumer half of the protocol, :class:`Receiver`: the
sans-IO state (heartbeat deadline, envelope verdicts, credit window,
one terminal verdict per session) that the process pump and the remote
pump both drive — the client-side counterpart of the servers'
:class:`~repro.net.session.SessionCore`.

Envelope ordering is the transport invariant every tier pins with tests:
data slices arrive in production order, an error never overtakes the
data produced before it, and a close terminates the stream.

**Trust model.**  Frames are pickles, and unpickling runs arbitrary
code — so a framer must only ever fully trust bytes from a peer the
application trusts (the client dialing a server it chose; a server
explicitly running client bodies with ``allow_spawn=True``).  A server
that does *not* execute client code constructs its framer with
``trusted=False``: frames are then decoded by a restricted unpickler
that refuses every global lookup, limiting envelopes to compositions
of primitive values (numbers, strings, bytes, bools, None, and
containers of them) and turning a hostile payload into a
:class:`FrameError` instead of code execution.
"""

from __future__ import annotations

import io
import pickle
import struct
import threading
import traceback
from typing import Any

from ..errors import PipeError

# ---------------------------------------------------------------------------
# Envelope kinds.  Server/worker -> consumer:
# ---------------------------------------------------------------------------

#: ``(WIRE_DATA, [values])`` — a batched slice; lands as ``Channel.put_many``.
WIRE_DATA = "data"
#: ``(WIRE_ERROR, payload)`` — a producer crash; lands as ``Channel.put_error``.
WIRE_ERROR = "error"
#: ``(WIRE_CLOSE,)`` — producer exhaustion; lands as ``Channel.close``.
WIRE_CLOSE = "close"
#: ``(WIRE_BEAT, monotonic_time)`` — liveness only; never enters the channel.
WIRE_BEAT = "beat"
#: ``(WIRE_BUSY, retry_after)`` — admission control: the server is at
#: capacity and is closing instead of serving; dial again after
#: *retry_after* seconds.  Sent before any session exists, so it is the
#: one server->client envelope that can be the entire conversation.
WIRE_BUSY = "busy"

# ---------------------------------------------------------------------------
# Consumer -> server kinds (the network tier's request/control channel).
# ---------------------------------------------------------------------------

#: ``(WIRE_SPAWN, {...})`` — run a pickled ``(factory, env)`` body remotely.
WIRE_SPAWN = "spawn"
#: ``(WIRE_CALL, {...})`` — run a factory the server registered by name.
WIRE_CALL = "call"
#: ``(WIRE_CREDIT, n | None)`` — grant the sender *n* more items (None =
#: unlimited; the flow-control half of a bounded channel over a socket).
#: The client grants its window up front, then grants delivered items
#: back once half the window has drained.  The one kind that also travels
#: server -> client: a server whose ``max_credit`` quota clamps the
#: initial grant answers ``(WIRE_CREDIT, quota)`` once, before any data,
#: and the client shrinks its window to the quota.
WIRE_CREDIT = "credit"
#: ``(WIRE_CANCEL,)`` — the consumer abandoned the stream; stop producing.
WIRE_CANCEL = "cancel"
#: ``(WIRE_DEADLINE, remaining_seconds)`` — the stream's budget.  Always
#: *remaining* time, never an absolute timestamp: monotonic clocks have
#: per-process epochs and wall clocks are host-local, so the receiver
#: re-anchors the budget against its own clock on receipt (see
#: :mod:`repro.coexpr.deadline`).  Primitive payload, so it survives the
#: restricted unpickler of an ``allow_spawn=False`` server.
WIRE_DEADLINE = "deadline"

# ---------------------------------------------------------------------------
# Control-channel kinds (the cluster tier's membership vocabulary).  A
# connection whose *first* envelope is one of these becomes a control
# session: no body runs, the server just answers.  Payloads are strictly
# primitive — a health probe must work against an ``allow_spawn=False``
# server, whose restricted unpickler refuses anything richer.
# ---------------------------------------------------------------------------

#: ``(WIRE_PING, nonce)`` — a health probe.  Any live server answers with
#: a :data:`WIRE_PONG` echoing the nonce; a server at capacity answers
#: the whole *connection* with :data:`WIRE_BUSY` instead, which a prober
#: treats as alive (shedding is load, not death).
WIRE_PING = "ping"
#: ``(WIRE_PONG, nonce)`` — the probe reply.
WIRE_PONG = "pong"
#: ``(WIRE_PEERS, [[host, port, weight], ...])`` — one push-pull gossip
#: exchange: the sender's known fleet as a list of primitive triples;
#: the reply is the receiver's fleet (its own advertised address first).
#: Both sides merge what they learn.
WIRE_PEERS = "peers"


# ---------------------------------------------------------------------------
# Error encoding.
# ---------------------------------------------------------------------------

#: Longest ``__cause__`` chain shipped across a boundary.
_MAX_CAUSE_DEPTH = 8


def encode_error(error: BaseException, _depth: int = 0) -> dict:
    """An exception as a wire payload: pickled when possible, repr
    otherwise — with the ``__cause__`` chain and traceback text attached.

    Pickle alone loses both: ``BaseException.__reduce__`` carries only
    ``args`` (plus ``__dict__``), so a chained cause and the traceback
    silently vanish at the boundary.  They are encoded separately here
    and re-attached by :func:`decode_error`, so a consumer sees the same
    ``raise ... from ...`` chain a local producer would have raised.
    """
    payload: dict = {"cause": None, "traceback": None}
    tb = error.__traceback__
    if tb is not None:
        payload["traceback"] = "".join(traceback.format_tb(tb))
    cause = error.__cause__
    if cause is not None and cause is not error and _depth < _MAX_CAUSE_DEPTH:
        payload["cause"] = encode_error(cause, _depth + 1)
    try:
        payload["body"] = ("pickle", pickle.dumps(error))
    except Exception:  # noqa: BLE001 - anything unpicklable falls back
        payload["body"] = ("repr", type(error).__name__, repr(error))
    return payload


def decode_error(payload: dict) -> BaseException:
    """Rebuild a transported exception (repr fallback → PipeError).

    Re-attaches the decoded ``__cause__`` chain and stores the producer's
    traceback text as ``remote_traceback`` on the rebuilt exception.
    """
    body = payload["body"]
    if body[0] == "pickle":
        try:
            error: BaseException = pickle.loads(body[1])
        except Exception:  # noqa: BLE001 - corrupted payload
            error = PipeError("worker crashed (undecodable error payload)")
    else:
        error = PipeError(f"worker raised {body[1]}: {body[2]}")
    cause = payload.get("cause")
    if cause is not None:
        error.__cause__ = decode_error(cause)
    tb_text = payload.get("traceback")
    if tb_text:
        try:
            error.remote_traceback = tb_text  # type: ignore[attr-defined]
        except Exception:  # noqa: BLE001 - slotted exception classes
            pass
    return error


# ---------------------------------------------------------------------------
# Socket framing.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">I")
#: Bytes in a frame's length prefix.
HEADER_SIZE = _HEADER.size

#: Refuse frames beyond this size — a corrupted length prefix must not
#: make the reader try to allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024


class FrameError(PipeError):
    """The byte stream does not parse as a framed envelope."""


class _RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that refuses every global lookup.

    Primitive values (numbers, strings, bytes, bools, None) and
    containers of them decode without ``find_class``; anything that
    needs a class or function — the code-execution surface of pickle —
    raises, which :func:`decode_frame` turns into a :class:`FrameError`.
    """

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(
            f"untrusted frame references global {module}.{name}; "
            "only primitive payloads are accepted"
        )


def encode_frame(envelope: tuple) -> bytes:
    """One envelope as a length-prefixed pickle frame."""
    payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """The payload size a :data:`HEADER_SIZE`-byte frame header
    announces; :class:`FrameError` past :data:`MAX_FRAME`."""
    (need,) = _HEADER.unpack(header)
    if need > MAX_FRAME:
        raise FrameError(f"oversized frame ({need} bytes)")
    return need


def decode_frame(frame: bytes, trusted: bool) -> tuple:
    """The envelope in one frame payload.

    ``trusted=False`` decodes through the restricted unpickler (see the
    trust model above).  An undecodable payload, or one that is not a
    non-empty tuple, raises :class:`FrameError`.
    """
    try:
        if trusted:
            envelope = pickle.loads(frame)
        else:
            envelope = _RestrictedUnpickler(io.BytesIO(frame)).load()
    except Exception as error:  # noqa: BLE001 - corrupt frame
        raise FrameError(f"undecodable frame: {error!r}") from error
    if not isinstance(envelope, tuple) or not envelope:
        raise FrameError(f"malformed envelope: {envelope!r}")
    return envelope


class SocketFramer:
    """Length-prefixed pickle frames over a stream socket.

    ``send`` is thread-safe (one lock per framer: a beat thread and a
    data sender may share the socket).  ``recv`` is single-reader and
    **timeout-safe**: bytes received before a ``socket.timeout`` stay
    buffered, so the next call resumes the partial frame instead of
    desynchronizing the stream.  A clean peer close surfaces as
    :class:`EOFError`; torn connections raise :class:`OSError`.

    ``trusted=False`` decodes frames with a restricted unpickler that
    refuses global lookups (see the module docstring's trust model) —
    the mode for a peer whose code the application did not choose to
    run.
    """

    __slots__ = ("sock", "trusted", "_send_lock", "_buf", "_need")

    def __init__(self, sock: Any, trusted: bool = True) -> None:
        self.sock = sock
        self.trusted = trusted
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._need: int | None = None

    def send(self, envelope: tuple) -> None:
        """Frame and ship one envelope (blocking, thread-safe)."""
        frame = encode_frame(envelope)
        with self._send_lock:
            self.sock.sendall(frame)

    def buffered(self) -> bool:
        """True when a complete frame is already in the receive buffer.

        A reader that multiplexes with ``select`` must check this before
        waiting on the socket: bytes pulled by an earlier :meth:`recv`
        (e.g. a credit grant pipelined right behind a request) live in
        this buffer, not in the kernel — the socket will never poll
        readable for them.
        """
        if self._need is not None:
            return len(self._buf) >= self._need
        if len(self._buf) < HEADER_SIZE:
            return False
        (need,) = _HEADER.unpack(self._buf[:HEADER_SIZE])
        return len(self._buf) - HEADER_SIZE >= need

    def partial(self) -> bool:
        """True when a frame has started arriving but is incomplete.

        The liveness companion of :meth:`buffered`: these bytes live in
        user space, so the socket will never poll readable for them —
        a reader bounding mid-frame stalls must ask the framer, not
        select.
        """
        if self.buffered():
            return False
        return self._need is not None or bool(self._buf)

    def _extract(self) -> tuple | None:
        """Pop one complete envelope out of the buffer (None = partial)."""
        if self._need is None and len(self._buf) >= HEADER_SIZE:
            self._need = frame_length(self._buf[:HEADER_SIZE])
            del self._buf[:HEADER_SIZE]
        if self._need is None or len(self._buf) < self._need:
            return None
        frame = bytes(self._buf[: self._need])
        del self._buf[: self._need]
        self._need = None
        return decode_frame(frame, self.trusted)

    def _pull(self) -> None:
        """One ``recv`` call into the buffer; EOF raised as usual."""
        chunk = self.sock.recv(65536)
        if not chunk:
            if self._buf or self._need is not None:
                raise FrameError("connection closed mid-frame")
            raise EOFError("connection closed")
        self._buf += chunk

    def recv(self) -> tuple:
        """The next envelope; honors the socket's timeout setting.

        Raises ``socket.timeout`` (``TimeoutError``) with the partial
        frame preserved, :class:`EOFError` on an orderly close, and
        :class:`FrameError` on an unparseable stream.
        """
        while True:
            envelope = self._extract()
            if envelope is not None:
                return envelope
            self._pull()

    def try_recv(self) -> tuple | None:
        """One receive *step*: never blocks after a readable ``select``.

        Returns a buffered envelope if one is complete, else performs
        exactly one ``recv`` call (guaranteed not to block when select
        just reported the socket readable) and returns the envelope it
        completed — or None while the frame is still partial.  A reader
        multiplexing with select uses this instead of :meth:`recv` so a
        peer that stalls mid-frame cannot pin the reading thread.
        """
        envelope = self._extract()
        if envelope is not None:
            return envelope
        self._pull()
        return self._extract()

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The receive side of a session.
# ---------------------------------------------------------------------------

#: With ``heartbeat_timeout=None`` the deadline is this many intervals.
_TIMEOUT_INTERVALS = 10.0

#: How often a pump re-checks cancellation while idle on its transport —
#: bounds cancel/watchdog latency, not throughput.
_POLL_SLICE = 0.05

#: Verdict kind of a lost session; its value is the reason string.
LOST = "lost"


class Receiver:
    """The protocol state of one stream's receiving end, clocked by its
    caller (sans-IO, like :class:`~repro.net.session.SessionCore`).

    A pump receives an envelope and asks :meth:`feed` for a verdict
    ``(kind, value)``: ``(WIRE_DATA, slice)``, ``(WIRE_ERROR, exception)``,
    ``(WIRE_CLOSE, None)``, ``(WIRE_BUSY, retry_after)``, ``(WIRE_BEAT,
    None)`` (nothing to deliver) or ``(LOST, reason)``.  Close, busy and
    lost are terminal: a session gets exactly one, and every call after
    it answers None — so two witnesses of one loss (a dialer that
    injected a drop, then the pump seeing the closed socket) report it
    once.

    Liveness: every envelope refreshes the heartbeat deadline, and the
    deadline is checked only by :meth:`timed_out`, when a receive timed
    out — a pump that sat blocked delivering to a slow consumer finds
    the peer's buffered beats waiting and never reports a false loss.

    Credit: :meth:`delivered` counts items handed to the consumer and
    answers the grant to send back once half the window (rounded up) has
    drained; a peer's ``WIRE_CREDIT`` quota announcement clamps the
    window.  ``window=None`` (an unbounded channel) never grants.
    """

    __slots__ = ("timeout", "window", "owed", "expires", "ended")

    def __init__(
        self, interval: float, timeout: float | None, window: int | None, now: float
    ) -> None:
        if timeout is None:
            timeout = max(_TIMEOUT_INTERVALS * interval, 1.0)
        #: Seconds of silence after which the peer is lost.
        self.timeout = timeout
        #: Credit window: the consumer channel's capacity (None = unbounded).
        self.window = window
        #: Items delivered but not yet granted back.
        self.owed = 0
        #: When the peer is lost unless an envelope arrives first.
        self.expires = now + timeout
        #: True once the session's terminal verdict was issued.
        self.ended = False

    def feed(self, envelope: tuple, now: float) -> tuple | None:
        """The verdict for one received *envelope* (None after the end)."""
        if self.ended:
            return None
        self.expires = now + self.timeout
        kind = envelope[0]
        if kind == WIRE_DATA and len(envelope) == 2:
            return envelope
        if kind == WIRE_BEAT:
            return (WIRE_BEAT, None)
        if kind == WIRE_ERROR and len(envelope) == 2:
            return (WIRE_ERROR, decode_error(envelope[1]))
        if kind == WIRE_CLOSE:
            self.ended = True
            return (WIRE_CLOSE, None)
        value = envelope[1] if len(envelope) > 1 else None
        if kind == WIRE_BUSY:
            self.ended = True
            return (WIRE_BUSY, float(value or 0.0))
        if kind == WIRE_CREDIT:
            # The server's one-time quota announcement: never wait on
            # more owed credit than it will let out.
            if type(value) is not int or value < 1:
                return self.lose("protocol violation: bad credit announcement")
            if self.window is not None:
                self.window = min(self.window, value)
            return (WIRE_BEAT, None)
        return self.lose(f"protocol violation: {kind!r} envelope")

    def timed_out(self, now: float) -> tuple | None:
        """A receive timed out at *now*: the loss verdict once the
        heartbeat deadline has passed, else None.  Never refreshes it."""
        if now >= self.expires:
            return self.lose(f"no heartbeat within {self.timeout:.2f}s")
        return None

    def delivered(self, count: int) -> int | None:
        """Count *count* items handed to the consumer; the credit to
        grant back now (at half-drain), else None."""
        self.owed += count
        window = self.window
        if window is not None and self.owed >= (window + 1) // 2:
            grant, self.owed = self.owed, 0
            return grant
        return None

    def lose(self, reason: str) -> tuple | None:
        """The loss verdict for *reason*, unless the session already ended."""
        if self.ended:
            return None
        self.ended = True
        return (LOST, reason)
