"""Stateful property testing of the sans-IO stream receiver.

A hypothesis rule-based machine drives :class:`~repro.coexpr.wire.Receiver`
the way the process and remote pumps do — data slices of random size,
beats, quota announcements (valid, over the window, missing, zero,
non-int), error, close, busy and unknown envelopes, clock advances and
receive timeouts — against a fake clock and a plain model.  No socket,
no thread, no sleep: the receiver never reads the clock.

Invariants:

* a credit grant fires exactly when the owed count reaches
  ⌈window/2⌉, and the grants never exceed what was delivered;
* the window never exceeds an announced quota;
* the heartbeat deadline is the last envelope's arrival plus the
  timeout, and a timeout check reports a loss iff ``now`` has reached
  it;
* a session gets exactly one terminal verdict (close, busy or lost),
  and every call after it answers None.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 40).
"""

import math
import os

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
    LOST,
    WIRE_BEAT,
    WIRE_BUSY,
    WIRE_CLOSE,
    WIRE_CREDIT,
    WIRE_DATA,
    WIRE_ERROR,
    WIRE_SPAWN,
    Receiver,
    encode_error,
)

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "40"))
TERMINAL = (WIRE_CLOSE, WIRE_BUSY, LOST)
#: Clock steps, as fractions of the heartbeat timeout.
FRACTIONS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5])
BAD_QUOTA = (LOST, "protocol violation: bad credit announcement")
#: Envelopes that end a session, with the verdict each must get: close,
#: busy, unknown kinds, data or error without a payload, and missing,
#: zero and non-int quotas.
ENDINGS = [
    ((WIRE_CLOSE,), (WIRE_CLOSE, None)),
    ((WIRE_BUSY, 0.25), (WIRE_BUSY, 0.25)),
    ((WIRE_BUSY,), (WIRE_BUSY, 0.0)),
    (("bogus", 1), (LOST, "protocol violation: 'bogus' envelope")),
    ((WIRE_SPAWN, {}), (LOST, "protocol violation: 'spawn' envelope")),
    ((7,), (LOST, "protocol violation: 7 envelope")),
    ((WIRE_DATA,), (LOST, "protocol violation: 'data' envelope")),
    ((WIRE_ERROR,), (LOST, "protocol violation: 'error' envelope")),
] + [
    ((WIRE_CREDIT, *quota), BAD_QUOTA)
    for quota in [(), (0,), (-3,), (None,), ("8",), (2.0,), (True,)]
]


class ReceiverMachine(RuleBasedStateMachine):
    @initialize(
        window=st.sampled_from([8, 5, 2, 1, 16, None]),
        timeout=st.sampled_from([None, 0.3, 1.0]),
    )
    def start(self, window, timeout):
        self.now = 1000.0
        self.rx = Receiver(0.1, timeout, window, self.now)
        # None means the default: ten intervals, at least one second.
        self.timeout = 1.0 if timeout is None else timeout
        self.window = window
        self.quota = None        # smallest valid quota announced
        self.last = self.now     # when the last envelope arrived
        self.owed = 0
        self.delivered = 0
        self.granted = 0
        self.terminals = []

    def live(self):
        return not self.terminals

    def _feed(self, envelope):
        verdict = self.rx.feed(envelope, self.now)
        self.last = self.now
        if verdict is not None and verdict[0] in TERMINAL:
            self.terminals.append(verdict)
        return verdict

    # -- stream envelopes -----------------------------------------------------

    @precondition(live)
    @rule(size=st.integers(1, 4))
    def data(self, size):
        slice_ = list(range(self.delivered, self.delivered + size))
        assert self._feed((WIRE_DATA, slice_)) == (WIRE_DATA, slice_)
        # The pump delivers, then asks what to grant back.
        grant = self.rx.delivered(size)
        self.delivered += size
        self.owed += size
        if self.window is not None and self.owed >= math.ceil(self.window / 2):
            assert grant == self.owed
            self.granted += grant
            self.owed = 0
        else:
            assert grant is None

    @precondition(live)
    @rule()
    def beat(self):
        assert self._feed((WIRE_BEAT, self.now)) == (WIRE_BEAT, None)

    @precondition(live)
    @rule()
    def error(self):
        kind, value = self._feed((WIRE_ERROR, encode_error(ValueError("boom"))))
        assert kind == WIRE_ERROR
        assert isinstance(value, ValueError) and value.args == ("boom",)

    @precondition(live)
    @rule(ending=st.sampled_from(ENDINGS))
    def end(self, ending):
        envelope, verdict = ending
        assert self._feed(envelope) == verdict

    # -- quota announcements --------------------------------------------------

    def _announce(self, quota):
        assert self._feed((WIRE_CREDIT, quota)) == (WIRE_BEAT, None)
        self.quota = quota if self.quota is None else min(self.quota, quota)
        if self.window is not None:
            self.window = min(self.window, quota)

    @precondition(live)
    @rule(quota=st.integers(1, 8))
    def announce_quota(self, quota):
        self._announce(quota)

    @precondition(lambda self: self.live() and self.window is not None)
    @rule(excess=st.integers(0, 8))
    def announce_over_window(self, excess):
        before = self.window
        self._announce(before + excess)
        assert self.rx.window == before

    # -- time -----------------------------------------------------------------

    @rule(frac=FRACTIONS)
    def advance(self, frac):
        self.now += frac * self.timeout

    @precondition(live)
    @rule(frac=FRACTIONS)
    def receive_timeout(self, frac):
        # A receive waited this long and came back empty.
        self.now += frac * self.timeout
        verdict = self.rx.timed_out(self.now)
        if self.now >= self.last + self.timeout:
            assert verdict == (LOST, f"no heartbeat within {self.timeout:.2f}s")
            self.terminals.append(verdict)
        else:
            assert verdict is None

    @precondition(live)
    @rule()
    def injected_loss(self):
        verdict = self.rx.lose("injected connection drop")
        assert verdict == (LOST, "injected connection drop")
        self.terminals.append(verdict)

    # -- after the end --------------------------------------------------------

    @precondition(lambda self: not self.live())
    @rule()
    def nothing_follows_the_end(self):
        assert self.rx.feed((WIRE_DATA, [0]), self.now) is None
        assert self.rx.feed((WIRE_CLOSE,), self.now) is None
        assert self.rx.feed(("bogus",), self.now) is None
        assert self.rx.timed_out(self.now + 10 * self.timeout) is None
        assert self.rx.lose("again") is None

    # -- invariants -----------------------------------------------------------

    @invariant()
    def grants_never_exceed_deliveries(self):
        assert self.granted + self.owed == self.delivered
        assert self.rx.owed == self.owed

    @invariant()
    def window_within_quota(self):
        assert self.rx.window == self.window
        if self.window is not None and self.quota is not None:
            assert self.window <= self.quota

    @invariant()
    def deadline_tracks_the_last_envelope(self):
        if self.live():
            assert self.rx.expires == self.last + self.timeout

    @invariant()
    def one_terminal_verdict(self):
        assert len(self.terminals) <= 1
        assert self.rx.ended == bool(self.terminals)


ReceiverMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestReceiverMachine = ReceiverMachine.TestCase


def test_default_timeout_is_ten_intervals_at_least_one_second():
    assert Receiver(0.5, None, None, 0.0).timeout == 5.0
    assert Receiver(0.05, None, None, 0.0).timeout == 1.0


def test_a_late_check_after_a_blocked_delivery_is_not_a_loss():
    # The pump sat blocked in put_many past the deadline; the peer's
    # beats were waiting in the transport.  Receiving them first means
    # the next timeout check judges from the latest envelope.
    rx = Receiver(0.1, 1.0, None, 0.0)
    assert rx.feed((WIRE_BEAT, 0.0), 5.0) == (WIRE_BEAT, None)
    assert rx.timed_out(5.5) is None
    assert rx.timed_out(6.0) == (LOST, "no heartbeat within 1.00s")


def test_unbounded_window_never_grants():
    rx = Receiver(0.1, 1.0, None, 0.0)
    assert rx.feed((WIRE_CREDIT, 4), 0.0) == (WIRE_BEAT, None)
    assert rx.window is None
    assert rx.delivered(1000) is None


@pytest.mark.parametrize("window", [1, 2, 5, 16])
def test_a_grant_fires_exactly_at_half_the_window(window):
    rx = Receiver(0.1, 1.0, window, 0.0)
    half = math.ceil(window / 2)
    for _ in range(half - 1):
        assert rx.delivered(1) is None
    assert rx.delivered(1) == half
    assert rx.owed == 0


def test_a_quota_below_the_window_clamps_it():
    rx = Receiver(0.1, 1.0, 16, 0.0)
    assert rx.feed((WIRE_CREDIT, 4), 0.0) == (WIRE_BEAT, None)
    assert rx.window == 4
    assert rx.delivered(1) is None
    assert rx.delivered(1) == 2
