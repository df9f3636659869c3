"""The event-loop server: one loop, many sessions, same wire contract.

:class:`AsyncGeneratorServer` speaks the exact protocol of the threaded
:class:`GeneratorServer` — every test here drives it with the
*unmodified* sync client stack (RemotePipe, source_pipe
``backend="remote"``, ServerPool, HealthProber), so passing means
nothing on the wire reveals which substrate answered.  On top of the
parity suite this file pins the eager-drain rule: a health probe's
death verdict wakes the in-flight watchdogs *now*, so failover latency
is bounded by a poll slice, not a heartbeat timeout.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.coexpr.patterns import source_pipe
from repro.coexpr.scheduler import PipeScheduler, default_scheduler
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.coexpr.wire import _HEADER, WIRE_CALL, WIRE_CREDIT, SocketFramer
from repro.errors import (
    PipeConnectionLost,
    PipeError,
    PipeServerBusy,
)
from repro.monitor import EventKind, Tracer
from repro.net import (
    AsyncGeneratorServer,
    GeneratorServer,
    RemotePipe,
    ServerPool,
    probe_address,
)
from repro.runtime.failure import FAIL


def counter(n):
    return iter(range(n))


def ticker(delay=0.02):
    i = 0
    while True:
        yield i
        i += 1
        time.sleep(delay)


def crasher(n):
    yield from range(n)
    raise ValueError("factory crashed")


def busy(n, seconds=0.001):
    """*n* results, each after busy-waiting *seconds* inside activate()."""
    for i in range(n):
        limit = time.perf_counter() + seconds
        while time.perf_counter() < limit:
            pass
        yield i


@pytest.fixture
def server():
    srv = AsyncGeneratorServer()
    srv.register("counter", counter)
    srv.register("ticker", ticker)
    srv.register("crasher", crasher)
    with srv:
        yield srv


def wait_active(server, count, timeout=5.0):
    limit = time.monotonic() + timeout
    while server.stats["active"] != count and time.monotonic() < limit:
        time.sleep(0.01)
    return server.stats["active"]


class TestLifecycle:
    def test_ephemeral_port_resolved_on_start(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port != 0

    def test_start_is_idempotent(self, server):
        assert server.start() is server

    def test_start_after_shutdown_rejected(self):
        srv = AsyncGeneratorServer().start()
        srv.shutdown()
        with pytest.raises(PipeError, match="shut-down"):
            srv.start()

    def test_shutdown_is_idempotent(self, server):
        server.shutdown()
        server.shutdown()

    def test_repr_names_the_substrate(self, server):
        assert "AsyncGeneratorServer" in repr(server)


class TestSyncClientInterop:
    """The unmodified sync client, end to end over loopback TCP."""

    def test_remote_pipe_drains_factory(self, server):
        pipe = RemotePipe(server.address, "counter", args=(10,))
        assert list(pipe.iterate()) == list(range(10))

    def test_batched_stream_preserves_order(self, server):
        pipe = RemotePipe(server.address, "counter", args=(100,), batch=8)
        assert list(pipe.iterate()) == list(range(100))

    def test_bounded_channel_stream(self, server):
        # capacity=4 keeps the client replenishing small credit windows:
        # the loop-side sender must park on credit, not drop or reorder.
        pipe = RemotePipe(server.address, "counter", args=(50,), capacity=4)
        assert list(pipe.iterate()) == list(range(50))

    def test_take_surface(self, server):
        pipe = RemotePipe(server.address, "counter", args=(2,))
        assert pipe.take() == 0
        assert pipe.take() == 1
        assert pipe.take() is FAIL

    def test_spawned_body_streams(self, server):
        piped = source_pipe(
            range(12), backend="remote", remote_address=server.address
        ).start()
        assert piped.degraded is None
        assert list(piped.iterate()) == list(range(12))

    def test_factory_error_propagates_after_data(self, server):
        pipe = RemotePipe(server.address, "crasher", args=(5,))
        seen = []
        with pytest.raises(ValueError, match="factory crashed"):
            while True:
                item = pipe.take()
                if item is FAIL:
                    break
                seen.append(item)
        assert seen == list(range(5))

    def test_unknown_factory_is_a_pipe_error(self, server):
        pipe = RemotePipe(server.address, "no-such-factory")
        with pytest.raises(PipeError, match="no factory"):
            pipe.take()

    def test_many_concurrent_sessions_on_one_loop(self, server):
        # The tentpole claim in miniature: one loop thread multiplexes
        # every session; no per-session threads appear server-side.
        pipes = [
            RemotePipe(server.address, "counter", args=(40,)).start()
            for _ in range(20)
        ]
        results = [list(p.iterate()) for p in pipes]
        assert results == [list(range(40))] * 20
        assert server.stats["served"] == 20

    def test_spawn_rejected_when_disabled(self):
        with AsyncGeneratorServer(allow_spawn=False) as srv:
            piped = source_pipe(
                range(5), backend="remote", remote_address=srv.address
            ).start()
            assert piped.degraded is None
            with pytest.raises(PipeError, match="allow_spawn"):
                list(piped.iterate())

    def test_named_factories_still_served_when_spawn_disabled(self):
        with AsyncGeneratorServer(allow_spawn=False) as srv:
            srv.register("counter", counter)
            pipe = RemotePipe(srv.address, "counter", args=(7,))
            assert list(pipe.iterate()) == list(range(7))


class TestControlSessions:
    """PING/PONG and PEERS answered by the loop: membership tooling
    works against either substrate without knowing which it probed."""

    def test_probe_address_succeeds(self, server):
        assert probe_address(server.address)

    def test_probe_does_not_disturb_a_serving_session(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        assert probe_address(server.address)
        assert pipe.take() == 1
        pipe.cancel(join=True, timeout=5.0)

    def test_gossip_exchange_is_push_pull(self, server):
        with AsyncGeneratorServer(name="peer") as other:
            other.add_peer(("10.0.0.9", 4000), weight=3.0)
            merged = other.announce([server.address])
            assert merged >= 1
            peers = [tuple(entry[:2]) for entry in server.known_peers()]
            assert ("10.0.0.9", 4000) in peers
            assert other.address[:2] in peers

    def test_mixed_fleet_gossip(self, server):
        # Threaded and event-loop replicas in one fleet: gossip crosses
        # the substrate boundary both ways.
        with GeneratorServer(name="legacy") as legacy:
            legacy.announce([server.address])
            peers = [tuple(entry[:2]) for entry in server.known_peers()]
            assert legacy.address[:2] in peers


class TestOverload:
    def test_over_capacity_dial_is_shed_with_retry_hint(self):
        with AsyncGeneratorServer(max_sessions=1, retry_after=0.25) as server:
            blocker = source_pipe(
                range(100_000),
                backend="remote",
                remote_address=server.address,
                capacity=1,
            ).start()
            assert blocker.take() == 0  # session established loop-side
            tracer = Tracer()
            with tracer.lifecycle():
                shed = source_pipe(
                    range(10), backend="remote", remote_address=server.address
                ).start()
                with pytest.raises(PipeServerBusy) as excinfo:
                    shed.take()
            assert excinfo.value.retry_after == 0.25
            assert excinfo.value.address == server.address
            assert server.stats["shed"] == 1
            assert server.stats["active"] == 1  # the blocker kept its slot
            health = tracer.health_stats()[f"server:{server.name}"]
            assert health["shed"] == 1
            blocker.cancel(join=True, timeout=5.0)

    def test_greedy_quota_serves_unbounded_clients(self):
        with AsyncGeneratorServer(max_credit=4) as server:
            piped = source_pipe(
                range(100), backend="remote", remote_address=server.address
            ).start()
            assert list(piped.iterate()) == list(range(100))

    def test_batch_clamped_to_server_cap(self):
        with AsyncGeneratorServer(max_batch=3) as server:
            piped = source_pipe(
                range(40),
                backend="remote",
                remote_address=server.address,
                batch=32,
            ).start()
            assert list(piped.iterate()) == list(range(40))


class TestShutdownAndChaos:
    def test_graceful_shutdown_closes_open_streams(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        assert pipe.take() == 1
        server.shutdown(wait=False)
        # The stream ends cleanly: in-flight values delivered, then close.
        while True:
            item = pipe.take(timeout=5.0)
            if item is FAIL:
                break
        assert wait_active(server, 0) == 0

    def test_kill_sessions_surfaces_connection_lost(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        deadline = time.monotonic() + 5.0
        while not server.active_sessions():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert server.kill_sessions() == 1
        with pytest.raises(PipeConnectionLost):
            while pipe.take(timeout=5.0) is not FAIL:
                pass

    def test_server_tracked_by_scheduler(self, server):
        # The loop thread is ONE scheduler session however many streams
        # it serves — plus one pump per client.
        pipes = [
            RemotePipe(server.address, "ticker", capacity=2).start()
            for _ in range(3)
        ]
        for pipe in pipes:
            assert pipe.take() == 0
        assert default_scheduler().tracked_sessions >= 4
        for pipe in pipes:
            pipe.cancel(join=True, timeout=5.0)

    def test_scheduler_shutdown_reaps_loop_and_sessions(self):
        scheduler = PipeScheduler()
        srv = AsyncGeneratorServer(scheduler=scheduler)
        srv.register("ticker", ticker)
        srv.start()
        pipe = RemotePipe(
            srv.address, "ticker", capacity=2, scheduler=scheduler
        )
        assert pipe.take() == 0
        scheduler.shutdown(timeout=5.0)
        assert scheduler.leaked() == []
        srv.shutdown(wait=False)

    def test_mid_frame_stall_kills_session(self):
        srv = AsyncGeneratorServer(heartbeat_interval=0.05)
        srv.register("counter", counter)
        with srv:
            sock = socket.create_connection(srv.address)
            try:
                framer = SocketFramer(sock)
                framer.send((WIRE_CALL, {"name": "counter", "args": (3,)}))
                framer.send((WIRE_CREDIT, None))
                deadline = time.monotonic() + 5.0
                while not srv.stats["served"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Half a frame, then silence: the resumable reader must
                # notice the stalled mid-frame read and kill the session.
                sock.sendall(_HEADER.pack(100) + b"stalled")
                deadline = time.monotonic() + 5.0
                while srv.stats["active"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            finally:
                sock.close()

    def test_exactly_once_replay_after_kill(self, server):
        # Abrupt session death mid-stream: supervision reconnects to the
        # same loop and the replay skips the delivered prefix.
        piped = supervise(
            source_pipe(range(60)).coexpr,
            backend="remote",
            remote_address=server.address,
            capacity=2,
            backoff=NO_BACKOFF,
            max_retries=5,
        )
        it = piped.iterate()
        head = [next(it) for _ in range(5)]
        server.kill_sessions()
        assert head + list(it) == list(range(60))
        assert piped.failures >= 1


class TestMonitorEvents:
    def test_session_events_carry_both_kinds(self, server):
        tracer = Tracer()
        with tracer.lifecycle():
            pipe = RemotePipe(server.address, "counter", args=(5,))
            assert list(pipe.iterate()) == list(range(5))
        kinds = [e.kind for e in tracer.events]
        assert EventKind.NET_CONNECT in kinds
        assert EventKind.NET_SESSION in kinds  # substrate-blind accounting
        assert EventKind.ASYNC_SESSION in kinds  # substrate-aware detail
        stats = tracer.net_stats()
        assert stats["pipe:counter"]["sessions"] == 1


class TestEagerDrain:
    """Satellite: a probe's MEMBER_DOWN verdict wakes in-flight
    watchdogs immediately — failover starts well inside one heartbeat."""

    def test_probe_verdict_wakes_the_watchdog(self, server):
        with AsyncGeneratorServer() as backup:
            pool = ServerPool([server.address, backup.address])
            # A huge heartbeat budget: without the eager drain, the pump
            # would sit on this stream for ~30s before noticing anything.
            pipe = RemotePipe(
                server.address, "ticker", capacity=1, heartbeat_interval=3.0
            )
            assert pipe.take() == 0
            started = time.monotonic()
            assert pool.mark_down(server.address, "probe missed 3 pings")
            with pytest.raises(PipeConnectionLost, match="marked down"):
                while pipe.take(timeout=5.0) is not FAIL:
                    pass
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"drain took {elapsed:.2f}s"

    def test_failover_latency_under_one_heartbeat(self):
        # The replica stays ALIVE but the prober declares it down: only
        # the eager drain makes the stream leave it at all.  The whole
        # failover — loss, redial, exactly-once replay — must complete
        # in a fraction of the 20s heartbeat budget.
        with AsyncGeneratorServer() as victim, AsyncGeneratorServer() as backup:
            pool = ServerPool([victim.address, backup.address])
            piped = supervise(
                source_pipe(range(5000)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
                max_retries=3,
                heartbeat_interval=2.0,
            )
            it = piped.iterate()
            head = [next(it) for _ in range(5)]
            primary = pool.last_address("source")
            verdict = time.monotonic()
            assert pool.mark_down(primary, "probe missed 3 pings")
            # Failover latency apart from drain throughput: the first
            # item served after the restart (not one already buffered
            # from the old replica) must follow the verdict quickly.
            tail, first_after = [], None
            for value in it:
                if first_after is None and piped.failures:
                    first_after = time.monotonic() - verdict
                tail.append(value)
            elapsed = time.monotonic() - verdict
            assert head + tail == list(range(5000))  # exactly-once
            assert piped.failures == 1
            assert pool.stats()["failovers"] == 1
            assert pool.last_address("source") != primary
            assert first_after is not None
            assert first_after < 1.0, f"first tail item took {first_after:.2f}s"
            assert elapsed < 2.0, f"failover took {elapsed:.2f}s"


class TestCooperativeTurn:
    """A sender filling one huge slice from slow activations must still
    yield once per switch interval: its own heartbeats and every other
    session on the loop keep flowing while the slice fills."""

    def test_slow_bulk_slice_starves_neither_beats_nor_sessions(self):
        n = 2000  # ~2s of stepping: twice the client's 1s silence bound
        with AsyncGeneratorServer() as srv:
            srv.register("busy", busy)
            srv.register("counter", counter)
            ticker = RemotePipe(
                srv.address, "counter", args=(10**9,), capacity=1
            )
            assert ticker.take() == 0
            arrivals = []
            stop = threading.Event()

            def tick():
                while not stop.is_set():
                    ticker.take(timeout=10.0)
                    arrivals.append(time.monotonic())

            thread = threading.Thread(target=tick)
            thread.start()
            try:
                bulk = RemotePipe(
                    srv.address,
                    "busy",
                    args=(n,),
                    batch=4096,
                    heartbeat_interval=0.05,
                )
                started = time.monotonic()
                # One slice at exhaustion; PipeConnectionLost would mean
                # the loop sent no WIRE_BEAT for a whole silence bound.
                assert list(bulk.iterate()) == list(range(n))
                ended = time.monotonic()
            finally:
                stop.set()
                thread.join()
                ticker.cancel()
        quarter = (ended - started) / 4
        for k in range(4):
            low, high = started + k * quarter, started + (k + 1) * quarter
            assert any(low <= t < high for t in arrivals), (
                f"ticker starved in quarter {k} of the bulk stream"
            )


class TestCli:
    def test_async_serve_round_trip_and_sigterm(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.cli", "--async", "--serve",
             "range=builtins:range", "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on ")
            host, port = line.removeprefix("listening on ").rsplit(":", 1)
            address = (host, int(port))
            assert probe_address(address)
            pipe = RemotePipe(address, "range", args=(8,))
            assert list(pipe.iterate()) == list(range(8))
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
            assert proc.returncode == 0
            assert "shutdown complete" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
