"""Coalesced credit: the remote window is replenished at half-drain.

The client pump grants its whole window up front, then grants delivered
items back in one ``WIRE_CREDIT`` frame each time half the window
(rounded up) has drained — so an *n*-item stream at batch 1 costs
exactly ``1 + n // ceil(capacity / 2)`` credit frames.  A server whose
``max_credit`` quota clamps that initial grant answers it once with the
quota, and the client shrinks its window to match; without a quota the
server never sends ``WIRE_CREDIT`` at all.  Both server substrates speak
the same rule, pinned here by exact frame counts and a derandomized
property sweep; a malformed announcement is a lost session.  Two
session regressions ride along: the threaded server beats while it
builds a spawn body, and a lost session counts once toward the client's
circuit breaker.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coexpr.coexpression import CoExpression
from repro.coexpr.patterns import source_pipe
from repro.coexpr.pipe import Pipe
from repro.coexpr.supervision import FaultPlan
from repro.coexpr.wire import WIRE_CREDIT, SocketFramer
from repro.errors import PipeConnectionLost
from repro.net import AsyncGeneratorServer, GeneratorServer, ServerPool
from repro.net import breaker_for, client
from repro.runtime.failure import FAIL

SUBSTRATES = (GeneratorServer, AsyncGeneratorServer)

#: Derandomized example count; ``REPRO_HYPOTHESIS_EXAMPLES`` scales it.
EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "30"))


def half(window):
    return -(-window // 2)


@pytest.fixture
def wire_counts(monkeypatch):
    """Count the envelope kinds the *client* sends and receives."""
    counts = Counter()

    class CountingFramer(SocketFramer):
        def send(self, envelope):
            counts["sent", envelope[0]] += 1
            super().send(envelope)

        def recv(self):
            envelope = super().recv()
            counts["recv", envelope[0]] += 1
            return envelope

    monkeypatch.setattr(client, "SocketFramer", CountingFramer)
    return counts


@pytest.fixture(params=SUBSTRATES, ids=lambda cls: cls.__name__)
def substrate(request):
    return request.param


def drain(pipe, timeout=10.0):
    """Every result of *pipe*; a stalled stream raises instead of hanging."""
    results = []
    while True:
        value = pipe.take(timeout=timeout)
        if value is FAIL:
            return results
        results.append(value)


class TestCreditFrameCounts:
    @pytest.mark.parametrize("capacity", [1, 4, 16])
    def test_one_grant_per_half_window(self, substrate, wire_counts, capacity):
        n = 50
        with substrate() as server:
            pipe = source_pipe(
                range(n),
                backend="remote",
                remote_address=server.address,
                capacity=capacity,
            ).start()
            assert drain(pipe) == list(range(n))
            assert pipe.degraded is None
        assert wire_counts["sent", WIRE_CREDIT] == 1 + n // half(capacity)
        # No quota, no announcement: credit only ever flows client->server.
        assert wire_counts["recv", WIRE_CREDIT] == 0

    @pytest.mark.parametrize("capacity,quota", [(16, 3), (4, 1), (7, 2)])
    def test_quota_is_announced_once(self, substrate, wire_counts, capacity, quota):
        assert quota < half(capacity)
        n = 40
        with substrate(max_credit=quota) as server:
            pipe = source_pipe(
                range(n),
                backend="remote",
                remote_address=server.address,
                capacity=capacity,
            ).start()
            assert drain(pipe) == list(range(n))
        assert wire_counts["recv", WIRE_CREDIT] == 1
        # The announced quota becomes the window the client halves.
        assert wire_counts["sent", WIRE_CREDIT] == 1 + n // half(quota)

    def test_quota_at_or_above_the_window_is_silent(self, substrate, wire_counts):
        with substrate(max_credit=8) as server:
            pipe = source_pipe(
                range(30),
                backend="remote",
                remote_address=server.address,
                capacity=8,
            ).start()
            assert drain(pipe) == list(range(30))
        assert wire_counts["recv", WIRE_CREDIT] == 0


@pytest.fixture
def servers():
    """One started server per (substrate, max_credit), shared across the
    property test's examples and shut down at its end."""
    started = {}
    with contextlib.ExitStack() as stack:

        def get(substrate, quota):
            key = (substrate, quota)
            if key not in started:
                started[key] = stack.enter_context(substrate(max_credit=quota))
            return started[key]

        yield get


@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    deadline=None,
    # The servers fixture is shared across examples on purpose.
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    substrate=st.sampled_from(SUBSTRATES),
    capacity=st.integers(1, 8),
    batch=st.integers(1, 5),
    quota=st.none() | st.integers(1, 5),
    n=st.integers(0, 40),
)
def test_any_window_batch_and_quota_streams_exactly(
    servers, substrate, capacity, batch, quota, n
):
    server = servers(substrate, quota)
    pipe = source_pipe(
        range(n),
        backend="remote",
        remote_address=server.address,
        capacity=capacity,
        batch=batch,
    ).start()
    assert drain(pipe) == list(range(n))
    assert pipe.degraded is None


# -- slow body unpickle ---------------------------------------------------------
# Module-level so the body pickles by reference into the in-process server.

#: Longer than the client's default 1.0 s heartbeat timeout.
SLOW_UNPICKLE_S = 1.5


def _slow_range(n):
    time.sleep(SLOW_UNPICKLE_S)  # a cold server importing a module
    return SlowRange(n)


class SlowRange:
    """An iterable whose unpickling takes longer than a heartbeat timeout."""

    def __init__(self, n):
        self.n = n

    def __iter__(self):
        return iter(range(self.n))

    def __reduce__(self):
        return (_slow_range, (self.n,))


def _count_through(source):
    yield from source


def test_slow_body_unpickle_keeps_the_session_alive():
    # The threaded server beats while it unpickles the spawn body, so
    # the client's watchdog never mistakes a cold server for a dead one.
    with GeneratorServer() as server:
        pipe = Pipe(
            CoExpression(_count_through, lambda: (SlowRange(20),), name="slow"),
            backend="remote",
            remote_address=server.address,
        ).start()
        assert drain(pipe) == list(range(20))
        assert pipe.degraded is None


# -- one loss per session -------------------------------------------------------


def test_a_dropped_connect_counts_once_toward_the_breaker():
    # A drop injected at connect is reported by the dialer, and the pump
    # then sees the socket the dialer closed: the breaker must hear one
    # failure, or it opens a dial early (a steal budget then ends one
    # steal short).
    with GeneratorServer() as server:
        plan = FaultPlan().drop_connection("dropped", on_attempts=(1,))
        pool = ServerPool([server.address], fault_plan=plan)
        pipe = Pipe(
            CoExpression(_count_through, lambda: (range(5),), name="dropped"),
            backend="remote",
            remote_address=pool,
        ).start()
        assert pipe.degraded is None
        with pytest.raises(PipeConnectionLost, match="injected connection drop"):
            drain(pipe)
        worker = pipe._tier_worker
        assert worker.join(5.0)  # the pump has seen the closed socket
        assert breaker_for(server.address)._failures == 1


# -- a malformed quota announcement ---------------------------------------------


@pytest.mark.parametrize(
    "announcement",
    [(WIRE_CREDIT,), (WIRE_CREDIT, None), (WIRE_CREDIT, 0), (WIRE_CREDIT, "8")],
    ids=["missing", "none", "zero", "str"],
)
def test_bad_credit_announcement_is_a_lost_session(announcement):
    # A server may only send WIRE_CREDIT to announce a positive integer
    # quota; anything else ends the stream as a loss, never as a clean
    # (shortened) end of stream.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    accepted = []

    def announce():
        sock, _ = listener.accept()
        accepted.append(sock)
        framer = SocketFramer(sock)
        framer.recv()  # the request
        framer.recv()  # the initial grant
        framer.send(announcement)

    thread = threading.Thread(target=announce, daemon=True)
    thread.start()
    try:
        pipe = source_pipe(
            range(5), backend="remote", remote_address=listener.getsockname()
        ).start()
        assert pipe.degraded is None
        with pytest.raises(PipeConnectionLost, match="bad credit announcement"):
            drain(pipe)
    finally:
        thread.join(5.0)
        for sock in accepted:
            sock.close()
        listener.close()
