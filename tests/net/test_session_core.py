"""Stateful property testing of the sans-IO session core.

A hypothesis rule-based machine drives :class:`SessionCore` the way a
server driver does — credit grants (bounded, unlimited, over the
quota), produced results, slice takes, cancellation, deadlines, idle
linger ticks, half-received frames and a graceful finish — against a
fake clock and a plain model.  No socket, no thread, no sleep: the core
never reads the clock, so time is whatever the machine says it is.

Invariants:

* items sent never exceed the credit granted, and a greedy session
  (an unlimited grant clamped by the quota) sends quota-sized slices;
* slices concatenate to production order, nothing dropped or repeated;
* outstanding credit never exceeds ``max_credit``;
* the quota is announced exactly for a grant above it;
* an expired deadline's error follows all buffered data;
* the stall bound fires exactly at ``stall_intervals`` heartbeat
  intervals after a frame starts arriving, not a tick before.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 40).
"""

import math
import os
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.coexpr.wire import (
    WIRE_BEAT,
    WIRE_CALL,
    WIRE_CANCEL,
    WIRE_CREDIT,
    WIRE_DEADLINE,
    WIRE_PING,
    WIRE_PONG,
)
from repro.errors import PipeDeadlineExceeded
from repro.net.session import SessionCore

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "40"))
HEARTBEAT = 0.05
STALL_INTERVALS = 4

#: How a stream ended (the driver's terminal envelope).
ERROR = "error"
CLOSE = "close"


def fake_server(quota):
    return SimpleNamespace(
        name="fake",
        allow_spawn=False,
        max_credit=quota,
        max_batch=None,
        heartbeat_interval=HEARTBEAT,
        stall_intervals=STALL_INTERVALS,
        known_peers=lambda: [],
        _merge_peers=lambda told: None,
    )


class SessionCoreMachine(RuleBasedStateMachine):
    @initialize(
        quota=st.sampled_from([None, 1, 3, 8]),
        batch=st.integers(1, 5),
        linger=st.sampled_from([None, 0.0, 0.02, 0.5]),
    )
    def start(self, quota, batch, linger):
        self.quota = quota
        self.now = 1000.0
        self.core = SessionCore(fake_server(quota))
        request = {"name": "gen", "batch": batch, "max_linger": linger}
        kind, _ = self.core.parse_request((WIRE_CALL, request))
        assert kind == WIRE_CALL
        self.produced = []
        self.sent = []
        self.granted = 0         # sum of bounded grants
        self.unlimited = False   # an unlimited grant was made
        self.expiry = None       # model deadline, on the fake clock
        self.oldest = None       # when the oldest buffered item arrived
        self.ending = None       # ERROR / CLOSE once the stream ended
        self.killed = False

    def live(self):
        return self.ending is None and not self.killed

    # -- control channel ------------------------------------------------------

    def _grant(self, amount):
        replies = self.core.feed((WIRE_CREDIT, amount), self.now)
        above = (
            self.quota is not None and amount is not None and amount > self.quota
        )
        assert replies == ([(WIRE_CREDIT, self.quota)] if above else [])
        self.core.commit()
        if amount is None:
            self.unlimited = True
        else:
            self.granted += amount

    @precondition(live)
    @rule(amount=st.integers(1, 4))
    def grant_bounded(self, amount):
        self._grant(amount)

    @precondition(lambda self: self.live() and self.quota is not None)
    @rule(excess=st.integers(1, 10))
    def grant_over_quota(self, excess):
        self._grant(self.quota + excess)

    @precondition(live)
    @rule()
    def grant_unlimited(self):
        self._grant(None)

    @precondition(live)
    @rule(amount=st.sampled_from([-1, 1.5, "2", True]))
    def grant_malformed(self, amount):
        assert self.core.feed((WIRE_CREDIT, amount), self.now) is None
        self.killed = True

    @precondition(live)
    @rule()
    def cancel(self):
        assert self.core.feed((WIRE_CANCEL,), self.now) is None
        self.killed = True

    @precondition(live)
    @rule()
    def stray_beat(self):
        assert self.core.feed((WIRE_BEAT, self.now), self.now) == []

    @precondition(live)
    @rule(budget=st.floats(-1.0, 1.0))
    def set_deadline(self, budget):
        assert self.core.feed((WIRE_DEADLINE, budget), self.now) == []
        self.expiry = self.now + max(budget, 0.0)

    @rule(nonce=st.integers())
    def ping(self, nonce):
        # A control reply never touches the stream state.
        assert self.core.control((WIRE_PING, nonce), self.now) == (
            WIRE_PONG,
            nonce,
        )

    # -- producer and sender --------------------------------------------------

    @precondition(live)
    @rule(value=st.integers())
    def append(self, value):
        if not self.core.buffer:
            self.oldest = self.now
        full = self.core.append(value, self.now)
        self.produced.append(value)
        assert full == (len(self.core.buffer) >= self.core.batch)

    def _take(self):
        """One take, checked against the credit it may spend."""
        before = self.core.credit
        buffered = len(self.core.buffer)
        slice_ = self.core.take_slice()
        if slice_ is None:
            assert buffered == 0 or (before == 0 and not self.core.greedy)
            return None
        if before is None:
            allowed = buffered
        elif before == 0:
            assert self.core.greedy
            allowed = min(self.quota, buffered)
        else:
            allowed = min(before, buffered)
        assert len(slice_) == allowed
        if self.core.greedy:
            assert len(slice_) <= self.quota
        self.sent.extend(slice_)
        return slice_

    @precondition(live)
    @rule()
    def take_slice(self):
        self._take()

    def _drain(self):
        """The driver's terminal flush: send everything buffered,
        granting back what was delivered whenever credit runs out."""
        while self.core.buffer:
            if self._take() is None:
                self._grant(len(self.core.buffer))

    @precondition(live)
    @rule()
    def check_deadline(self):
        expired = self.expiry is not None and self.now >= self.expiry
        try:
            self.core.check_deadline(self.now)
        except PipeDeadlineExceeded:
            assert expired
            # The failure path: data first, then the error.
            self._drain()
            self.ending = ERROR
        else:
            assert not expired

    @precondition(live)
    @rule()
    def finish(self):
        self._drain()
        self.ending = CLOSE

    # -- clock ------------------------------------------------------------------

    @rule(dt=st.floats(0.0, 0.3))
    def advance(self, dt):
        self.now += dt

    @precondition(live)
    @rule()
    def linger_tick(self):
        linger = self.core.max_linger
        due = (
            linger is not None
            and bool(self.core.buffer)
            and self.now - self.oldest >= linger
        )
        assert self.core.linger_due(self.now) == due
        if due:
            self._take()  # a non-blocking flush: what the credit covers

    @precondition(live)
    @rule(intervals=st.integers(1, 6))
    def stalled_frame(self, intervals):
        core = self.core
        start = self.now
        bound = start + STALL_INTERVALS * core.heartbeat_interval
        assert not core.stalled(True, start)  # a frame starts arriving
        for _ in range(intervals):
            self.now += core.heartbeat_interval / 2
            assert core.stalled(True, self.now) == (self.now >= bound)
        assert not core.stalled(True, math.nextafter(bound, -math.inf))
        assert core.stalled(True, bound)
        self.now = max(self.now, bound)
        # The frame completes: the next partial one starts a new clock.
        assert core.feed((WIRE_BEAT, self.now), self.now) == []
        assert not core.stalled(True, self.now + core.heartbeat_interval)
        assert not core.stalled(False, self.now)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def slices_concatenate_in_production_order(self):
        assert self.sent == self.produced[: len(self.sent)]
        assert self.sent + self.core.buffer == self.produced

    @invariant()
    def sent_within_credit(self):
        if self.unlimited:
            return
        assert len(self.sent) <= self.granted

    @invariant()
    def credit_within_quota(self):
        if self.quota is None:
            return
        assert self.core.credit is not None
        assert 0 <= self.core.credit <= self.quota

    @invariant()
    def ending_follows_all_data(self):
        if self.ending is None:
            return
        assert self.core.buffer == []
        assert self.sent == self.produced


SessionCoreMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestSessionCoreStateful = SessionCoreMachine.TestCase


@pytest.mark.parametrize("quota", [None, 3])
def test_greedy_credit_streams_in_quota_slices(quota):
    # An unlimited grant under a quota becomes self-replenishing
    # quota-sized credit; without a quota it stays unlimited.
    core = SessionCore(fake_server(quota))
    core.parse_request((WIRE_CALL, {"name": "gen", "batch": 10}))
    core.feed((WIRE_CREDIT, None), 0.0)
    core.commit()
    for value in range(10):
        core.append(value, 0.0)
    slices = []
    while core.buffer:
        slices.append(core.take_slice())
    expected = [list(range(10))] if quota is None else [
        [0, 1, 2], [3, 4, 5], [6, 7, 8], [9]
    ]
    assert slices == expected
