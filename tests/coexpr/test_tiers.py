"""The tier contract, one test per tier: process, remote and async.

Every non-thread tier sits behind one start hook (``Pipe.start`` looks
it up in one table).  A hook either returns a running worker, which
``cancel(join=True)`` terminates without leaking, or the reason the
body cannot run there — and then the pipe degrades to the thread
backend: exactly one ``DEGRADED`` event, ``pipe.degraded`` set, and the
thread tier's sequence.
"""

import itertools

import pytest

from repro.coexpr.coexpression import CoExpression
from repro.coexpr.patterns import source_pipe, stage
from repro.coexpr.pipe import Pipe
from repro.coexpr.proc import default_context
from repro.coexpr.scheduler import PipeScheduler
from repro.monitor import EventKind, Tracer
from repro.net import GeneratorServer
from repro.net.client import reset_breakers

TIERS = ["process", "remote", "async"]


def endless():
    return itertools.count()


def double(x):
    return 2 * x


@pytest.fixture
def server():
    # The server's threads live on a scheduler of their own, so the
    # client's leak check sees only the client side of a session.
    reset_breakers()
    scheduler = PipeScheduler()
    with GeneratorServer(scheduler=scheduler) as srv:
        yield srv
    scheduler.shutdown(timeout=5.0)


def started_counter():
    """A co-expression that already ran one step in this process."""
    coexpr = CoExpression(lambda: iter(range(5)), name="started")
    coexpr.activate()
    return coexpr


def refused(backend):
    """A pipe whose body *backend* refuses, and the thread tier's
    sequence for the same body."""
    if backend == "process":
        # Another process would replay a started body from the top.
        return Pipe(started_counter(), backend="process"), [1, 2, 3, 4]
    if backend == "remote":
        reset_breakers()
        pipe = source_pipe(
            range(5), backend="remote", remote_address=("127.0.0.1", 1)
        )
        return pipe, [0, 1, 2, 3, 4]
    # A channel-fed stage's blocking take would starve the shared loop.
    pipe = stage(double, source_pipe(range(5)), backend="async")
    return pipe, [0, 2, 4, 6, 8]


@pytest.mark.parametrize("backend", TIERS)
def test_a_refused_body_degrades_once_to_the_thread_sequence(backend):
    if backend == "process" and default_context().get_start_method() != "fork":
        pytest.skip("the process tier's rules assume a fork platform")
    tracer = Tracer()
    with tracer.lifecycle():
        pipe, expected = refused(backend)
        assert list(pipe.iterate()) == expected
    degraded = [e for e in tracer.events if e.kind == EventKind.DEGRADED]
    assert len(degraded) == 1
    assert degraded[0].value == pipe.degraded
    assert isinstance(pipe.degraded, str) and pipe.degraded
    assert pipe._tier_worker is None


@pytest.mark.parametrize("backend", TIERS)
def test_cancel_join_terminates_an_engaged_worker(backend, pipe_scheduler, request):
    kwargs = {"backend": backend, "capacity": 4, "heartbeat_interval": 0.05}
    if backend == "remote":
        kwargs["remote_address"] = request.getfixturevalue("server").address
    pipe = Pipe(CoExpression(endless, name="endless"), **kwargs).start()
    assert pipe.degraded is None
    assert [pipe.take() for _ in range(3)] == [0, 1, 2]
    worker = pipe._tier_worker
    assert worker is not None
    assert pipe.cancel(join=True, timeout=5.0)
    assert not worker.is_alive()
    if backend == "process":
        assert not worker.process.is_alive()
    assert pipe_scheduler.leaked() == []
