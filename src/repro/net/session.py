"""The sans-IO session core both generator servers drive.

A server session is one protocol state machine: request header, credit,
coalesced ``WIRE_DATA`` slices, session deadline, mid-frame stall bound
and control replies.  :class:`SessionCore` is that machine with the I/O
taken out, in the sans-IO style of h11 (https://sans-io.readthedocs.io/):
it touches no socket, thread or event loop, and callers pass ``now`` to
every time-dependent call.  The threaded :class:`~repro.net.server.Session`
and the event-loop :class:`~repro.net.aserver._AsyncSession` are thin
drivers over it, so each rule lives here once and both substrates put
the same bytes on the wire.  The core is not thread-safe: the threaded
driver calls it under its own locks.
"""

from __future__ import annotations

import math
import pickle
from typing import Any

from ..coexpr.coexpression import CoExpression
from ..coexpr.wire import (
    WIRE_CALL,
    WIRE_CANCEL,
    WIRE_CREDIT,
    WIRE_DEADLINE,
    WIRE_PEERS,
    WIRE_PING,
    WIRE_PONG,
    WIRE_SPAWN,
)
from ..errors import PipeDeadlineExceeded, PipeError
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled

#: How long a session waits for the client's request envelope, and how
#: long a control session may stay silent before its slot is reclaimed.
REQUEST_TIMEOUT = 10.0
#: First-envelope kinds that open a control session: no body runs.
CONTROL_KINDS = (WIRE_PING, WIRE_PEERS)

_NO_GRANT = object()


def _finite(value: Any) -> bool:
    """True for an int or float (not a bool) that is neither NaN nor inf."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


class SessionCore:
    """One session's protocol state, clocked by its caller.

    *server* supplies the limits (``max_credit``, ``max_batch``,
    ``stall_intervals``, ``heartbeat_interval``, ``allow_spawn``), the
    factory registry and the gossip view; the core only reads them.
    """

    def __init__(self, server: Any) -> None:
        self.server = server
        self.request_name = ""
        #: Items per ``WIRE_DATA`` slice (the request's, capped by
        #: ``max_batch``).
        self.batch = 1
        #: Seconds a partial slice may wait before an idle tick sends it.
        self.max_linger: float | None = None
        self.heartbeat_interval = server.heartbeat_interval
        #: Items the client has granted (None = unlimited, its channel is
        #: unbounded).  Starts at zero: nothing is sent before the first
        #: grant, which the client ships right behind its request.
        self.credit: int | None = 0
        #: True once a quota clamped an *unlimited* grant: the core
        #: self-replenishes credit (the client will never send more).
        self.greedy = False
        #: When the ``WIRE_DEADLINE`` budget runs out, on the caller's
        #: clock (None = no deadline).
        self.expiry: float | None = None
        #: Results produced but not yet sent, and when the oldest arrived.
        self.buffer: list = []
        self.buf_oldest = 0.0
        #: When a half-received frame counts as a stall (None = no
        #: partial frame).
        self.stall_at: float | None = None
        #: When a silent control session is dropped.
        self.idle_until = 0.0
        self._grant: Any = _NO_GRANT

    # -- request ---------------------------------------------------------------

    def parse_request(self, first: tuple) -> tuple[str, dict]:
        """Validate the request envelope and apply its header (batch,
        linger, heartbeat interval); returns ``(kind, request)``.

        A malformed header raises :class:`~repro.errors.PipeError`, which
        the driver sends as ``WIRE_ERROR`` + ``WIRE_CLOSE``.  Accepting
        it would wedge the session later instead: a string linger
        crashes the reader's tick, and a negative heartbeat interval
        breaks its receive timeout.
        """
        kind, *payload = first
        request = payload[0] if payload else None
        if kind not in (WIRE_SPAWN, WIRE_CALL) or not isinstance(request, dict):
            raise PipeError(f"expected a spawn/call request, got {kind!r}")
        batch = request.get("batch", 1)
        linger = request.get("max_linger")
        interval = request.get("heartbeat_interval")
        if type(batch) is not int or batch < 1:
            raise PipeError(f"request batch must be an int >= 1, not {batch!r}")
        if linger is not None and not (_finite(linger) and linger >= 0):
            raise PipeError(
                "request max_linger must be None or a finite number >= 0, "
                f"not {linger!r}"
            )
        if interval and not (_finite(interval) and interval > 0):
            raise PipeError(
                "request heartbeat_interval must be a finite number > 0, "
                f"not {interval!r}"
            )
        self.request_name = request.get("name") or kind
        # The coalescing buffer holds up to one batch before the sender
        # blocks on credit, so max_batch caps per-session buffered items
        # no matter what slice size the client asks for.
        limit = self.server.max_batch
        self.batch = batch if limit is None else min(batch, limit)
        self.max_linger = linger
        if interval:
            self.heartbeat_interval = float(interval)
        if kind == WIRE_SPAWN and not self.server.allow_spawn:
            raise PipeError(
                f"server {self.server.name!r} does not accept spawn "
                "requests (allow_spawn=False); use a registered factory"
            )
        return kind, request

    def build_body(self, kind: str, request: dict) -> CoExpression:
        """The body to stream: a pickled ``(factory, env)`` pair for
        ``spawn``, a registered factory for ``call``."""
        if kind == WIRE_SPAWN:
            factory, env = pickle.loads(request["body"])
            return CoExpression(factory, lambda: env, name=self.request_name)
        factory = self.server._factory(request.get("name"))
        args = tuple(request.get("args") or ())
        return CoExpression(factory, lambda: args, name=self.request_name)

    def control(self, envelope: tuple | None, now: float) -> tuple | None:
        """One step of a control session (``WIRE_PING`` / ``WIRE_PEERS``).

        *envelope* is what the last receive returned, or None when it
        timed out.  Returns the reply to send, ``()`` when there is
        nothing to send, or None when the session should end: on a
        protocol violation, or once the peer has been silent for
        :data:`REQUEST_TIMEOUT`, so an abandoned prober cannot pin a
        session slot forever.
        """
        if envelope is None:
            return None if now >= self.idle_until else ()
        self.idle_until = now + REQUEST_TIMEOUT
        kind = envelope[0]
        told = envelope[1] if len(envelope) > 1 else None
        if kind == WIRE_PING:
            return (WIRE_PONG, told)
        if kind == WIRE_PEERS:
            if told:
                self.server._merge_peers(told)
            return (WIRE_PEERS, self.server.known_peers())
        return None

    # -- control channel -------------------------------------------------------

    def feed(self, envelope: tuple, now: float) -> list | None:
        """Dispatch one envelope the reader received mid-stream.

        Returns the envelopes to send back, or None when the session
        must end: the client cancelled, or granted credit that is not a
        count.  A credit grant is *staged*: the driver sends the returned
        envelopes and then calls :meth:`commit`, so the quota
        announcement reaches the client ahead of any data the grant
        releases.  Other kinds (a stray beat) are ignored.
        """
        self.stall_at = None  # a whole frame arrived
        kind = envelope[0]
        if kind == WIRE_CREDIT:
            amount = envelope[1] if len(envelope) > 1 else None
            if amount is not None and (type(amount) is not int or amount < 0):
                return None
            self._grant = amount
            # A bounded grant larger than max_credit is answered with the
            # quota, once, before any data; the client shrinks its window
            # to match.  Otherwise it would wait for half a window to
            # drain while the server stops at the quota.  Only a
            # client's initial grant can be that large: the delivered
            # items a conforming client grants back never exceed it.
            quota = self.server.max_credit
            if quota is not None and amount is not None and amount > quota:
                return [(WIRE_CREDIT, quota)]
        elif kind == WIRE_DEADLINE:
            # Budget, never a timestamp: re-anchor against the caller's
            # monotonic clock (see repro.coexpr.deadline).
            budget = envelope[1] if len(envelope) > 1 else 0.0
            try:
                self.expiry = now + max(float(budget), 0.0)
            except (TypeError, ValueError):
                pass  # malformed budget: ignore, don't kill the stream
        elif kind == WIRE_CANCEL:
            return None
        return []

    def commit(self) -> None:
        """Apply the credit grant :meth:`feed` staged, if any."""
        amount, self._grant = self._grant, _NO_GRANT
        if amount is not _NO_GRANT:
            self.grant(amount)

    def grant(self, amount: int | None) -> None:
        """Apply one credit grant (None = unlimited).

        A server ``max_credit`` quota caps outstanding credit here, the
        one place every credit enters: bounded grants accumulate only up
        to the quota.  An *unlimited* grant (the client's channel is
        unbounded, so it will never send another credit envelope)
        becomes quota-sized **greedy** credit instead, which
        :meth:`take_slice` self-replenishes: the stream proceeds in
        quota-sized slices rather than wedging on a replenishment that
        cannot come.
        """
        quota = self.server.max_credit
        if amount is None:
            self.greedy = quota is not None
            self.credit = quota
        elif self.credit is not None:
            self.credit += amount
            if quota is not None and self.credit > quota:
                self.credit = quota

    # -- sending ---------------------------------------------------------------

    def append(self, value: Any, now: float) -> bool:
        """Buffer one result; True once a full batch is waiting."""
        if not self.buffer:
            self.buf_oldest = now
        self.buffer.append(value)
        return len(self.buffer) >= self.batch

    def take_slice(self) -> list | None:
        """Pop the next slice the credit covers (None = nothing to send
        now: the buffer is empty or the credit is spent)."""
        credit = self.credit
        if credit == 0 and self.greedy:
            credit = self.server.max_credit
        if not self.buffer or credit == 0:
            return None
        take = len(self.buffer) if credit is None else min(credit, len(self.buffer))
        slice_, self.buffer = self.buffer[:take], self.buffer[take:]
        if credit is not None:
            self.credit = credit - take
        return slice_

    def linger_due(self, now: float) -> bool:
        """True once the oldest buffered result has out-waited
        ``max_linger``: the reader's idle tick then sends the partial
        slice."""
        return (
            self.max_linger is not None
            and bool(self.buffer)
            and now - self.buf_oldest >= self.max_linger
        )

    # -- bounds ----------------------------------------------------------------

    def check_deadline(self, now: float) -> None:
        """Raise :class:`~repro.errors.PipeDeadlineExceeded` once the
        session's budget is spent.

        A reported crash, not a kill: the driver's failure path sends
        the buffered data before the error, so the client still
        receives everything produced within budget.
        """
        if self.expiry is None or now < self.expiry:
            return
        if lifecycle_enabled():
            detail = {"where": "session", "remaining": 0.0}
            node = f"pipe:{self.request_name}"
            emit_lifecycle(Event(EventKind.DEADLINE_EXPIRED, node, 0, detail))
        raise PipeDeadlineExceeded(
            f"session {self.request_name!r}: deadline exceeded (session)",
            where="session",
        )

    def stalled(self, partial: bool, now: float) -> bool:
        """The wedged-client bound.  *partial* says whether the driver
        holds part of a frame; True once one has sat incomplete for
        ``stall_intervals`` heartbeat intervals, when the driver kills
        the session."""
        if not partial:
            self.stall_at = None
        elif self.stall_at is None:
            self.stall_at = (
                now + self.server.stall_intervals * self.heartbeat_interval
            )
        else:
            return now >= self.stall_at
        return False
