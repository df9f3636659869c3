"""The cooperative-turn rule every loop-resident producer follows.

:class:`Turn` decides from an injected clock, and whether
:meth:`Turn.pace` yielded is seen by stepping its coroutine by hand, so
the rule is checked with no socket, no ``time.sleep`` and no event loop.
The last class watches a real :class:`AsyncPipe` producer interleave
with a sibling task on one loop.
"""

from __future__ import annotations

import asyncio
import functools
import sys

import pytest

from repro.coexpr import aio
from repro.coexpr.aio import AsyncPipe, Turn


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def yields(turn: Turn, handed_off: bool) -> bool:
    """Step one ``turn.pace(handed_off)`` by hand: did it yield?"""
    coro = turn.pace(handed_off)
    try:
        coro.send(None)
    except StopIteration:
        return False
    with pytest.raises(StopIteration):
        coro.send(None)
    return True


class TestTurnRule:
    def test_quantum_is_the_switch_interval(self):
        assert Turn().quantum == sys.getswitchinterval()

    def test_a_handoff_always_yields(self):
        clock = FakeClock()
        turn = Turn(clock)
        assert [yields(turn, True) for _ in range(5)] == [True] * 5

    def test_stepping_yields_exactly_when_the_quantum_has_elapsed(self):
        clock = FakeClock()
        turn = Turn(clock)
        q = turn.quantum
        # (time of the step, whether it yields); every yield restarts
        # the quantum from the clock's reading when the producer resumed.
        steps = [
            (0.0, False),
            (0.5 * q, False),
            (0.999 * q, False),
            (q, True),
            (1.5 * q, False),
            (2 * q, True),
            (2 * q, False),
        ]
        seen = []
        for now, _ in steps:
            clock.now = now
            seen.append(yields(turn, False))
        assert seen == [expected for _, expected in steps]

    def test_a_handoff_restarts_the_quantum(self):
        clock = FakeClock()
        turn = Turn(clock)
        q = turn.quantum
        clock.now = 0.5 * q
        assert yields(turn, True)
        clock.now = q  # a quantum since start, half of one since the yield
        assert not yields(turn, False)
        clock.now = 1.51 * q
        assert yields(turn, False)

    def test_a_batch1_producer_yields_once_per_item(self):
        clock = FakeClock()  # frozen: only handoffs can yield
        turn = Turn(clock)
        # batch=1: every item is a slice, so every step is a handoff.
        assert sum(yields(turn, True) for _ in range(10)) == 10


def interleaving(batch: int, items: int = 8) -> list:
    """Run an AsyncPipe beside a sibling task; for each gap between two
    activations, whether the sibling ran (the producer yielded)."""
    log: list = []

    def body():
        for i in range(items):
            log.append("item")
            yield i

    async def sibling():
        while True:
            log.append("tick")
            await asyncio.sleep(0)

    async def main():
        tick = asyncio.get_running_loop().create_task(sibling())
        await asyncio.sleep(0)
        got = [value async for value in AsyncPipe(body(), batch=batch)]
        tick.cancel()
        return got

    assert asyncio.run(main()) == list(range(items))
    firsts = [i for i, entry in enumerate(log) if entry == "item"]
    return [
        "tick" in log[start:end] for start, end in zip(firsts, firsts[1:])
    ]


class TestAsyncPipeProducer:
    def test_batch1_yields_after_every_item(self):
        assert interleaving(batch=1) == [True] * 7

    def test_batched_producer_yields_per_slice(self, monkeypatch):
        # A frozen clock never makes stepping due: only the two
        # four-item slices yield, after items 4 and 8.
        monkeypatch.setattr(aio, "Turn", functools.partial(Turn, lambda: 0.0))
        assert interleaving(batch=4) == [False, False, False, True] + [False] * 3
