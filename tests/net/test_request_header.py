"""Request-header validation on both server substrates.

The request envelope's header (``batch``, ``max_linger``,
``heartbeat_interval``) is client-supplied.  A value the session cannot
use must be refused up front as a :class:`~repro.errors.PipeError`
(``WIRE_ERROR`` then ``WIRE_CLOSE``) rather than accepted and left to
wedge the session later: a string linger would crash the reader's
linger tick, and a negative heartbeat interval breaks the threaded
reader's ``select`` and makes the event-loop reader beat in a tight
loop.  Either way the session used to stay in ``active_sessions()``
after its client left.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.coexpr.wire import (
    WIRE_BEAT,
    WIRE_CALL,
    WIRE_CLOSE,
    WIRE_CREDIT,
    WIRE_DATA,
    WIRE_ERROR,
    SocketFramer,
    decode_error,
)
from repro.errors import PipeError
from repro.net import AsyncGeneratorServer, GeneratorServer

SUBSTRATES = [GeneratorServer, AsyncGeneratorServer]
MALFORMED = {
    "string": "x",
    "negative": -1,
    "nan": float("nan"),
    "inf": float("inf"),
}


def counter(n):
    return iter(range(n))


def converse(server, **header):
    """Dial *server* with a raw framer, ask for ``counter(10)`` with
    *header* overriding the defaults, grant 2 items, and return every
    non-beat envelope up to ``WIRE_CLOSE``."""
    request = {
        "name": "counter",
        "args": (10,),
        "batch": 4,
        "max_linger": None,
        "heartbeat_interval": 0.05,
    }
    request.update(header)
    got = []
    with socket.create_connection(server.address, timeout=5.0) as sock:
        framer = SocketFramer(sock)
        framer.send((WIRE_CALL, request))
        framer.send((WIRE_CREDIT, 2))
        while not got or got[-1][0] != WIRE_CLOSE:
            envelope = framer.recv()
            if envelope[0] == WIRE_DATA:
                framer.send((WIRE_CREDIT, len(envelope[1])))
            if envelope[0] != WIRE_BEAT:
                got.append(envelope)
    return got


def wait_drained(server, timeout=2.0):
    limit = time.monotonic() + timeout
    while server.active_sessions() and time.monotonic() < limit:
        time.sleep(0.01)
    return server.active_sessions()


def serve(server_class):
    server = server_class(
        heartbeat_interval=0.05, allow_spawn=False, max_batch=None
    )
    server.register("counter", counter)
    return server


@pytest.mark.parametrize("server_class", SUBSTRATES)
@pytest.mark.parametrize("field", ["batch", "max_linger", "heartbeat_interval"])
@pytest.mark.parametrize("form", sorted(MALFORMED))
def test_malformed_header_is_refused(server_class, field, form):
    with serve(server_class) as server:
        got = converse(server, **{field: MALFORMED[form]})
        assert [envelope[0] for envelope in got] == [WIRE_ERROR, WIRE_CLOSE]
        error = decode_error(got[0][1])
        assert isinstance(error, PipeError)
        assert field in str(error)
        assert wait_drained(server) == []


@pytest.mark.parametrize("server_class", SUBSTRATES)
def test_boundary_header_values_are_accepted(server_class):
    # Zero linger is valid (flush on every tick), and a falsy heartbeat
    # interval still means "the server default".
    with serve(server_class) as server:
        got = converse(server, batch=1, max_linger=0, heartbeat_interval=0)
        assert got[-1] == (WIRE_CLOSE,)
        data = [item for envelope in got[:-1] for item in envelope[1]]
        assert data == list(range(10))
        assert wait_drained(server) == []
