"""Pipe owns its knobs.

:func:`~repro.coexpr.pipe.pipe_knobs` is the one place the pipe knobs
are declared, checked and normalized.  Every composing constructor
(patterns, supervision, DataParallel) checks them once and hands the
same set to every pipe it builds — so all of those pipes see every knob,
share one deadline budget, and share one ServerPool.
"""

from __future__ import annotations

import multiprocessing
import operator

import pytest

from repro.coexpr import (
    DataParallel,
    pipeline,
    source_pipe,
    stage,
    supervise,
    supervised_pipeline,
    supervised_stage,
)
from repro.coexpr.deadline import Deadline
from repro.coexpr.pipe import Pipe, pipe_knobs
from repro.net.client import reset_breakers
from repro.net.cluster import ServerPool

# Nothing listens on these ports: a remote task dials, is refused at
# once, and degrades to the thread tier.
REFUSED = [("127.0.0.1", 1), ("127.0.0.1", 2)]
SPAWN = multiprocessing.get_context("spawn")


def double(value: int) -> int:
    return 2 * value


@pytest.fixture
def built(monkeypatch):
    """Every Pipe constructed during the test, in construction order."""
    pipes = []
    init = Pipe.__init__

    def record(self, *args, **knobs):
        init(self, *args, **knobs)
        pipes.append(self)

    monkeypatch.setattr(Pipe, "__init__", record)
    return pipes


def _fold(kw):
    dp = DataParallel(chunk_size=2, **kw)
    assert list(dp.map_reduce(double, range(4), operator.add, 0)) == [2, 10]
    return dp


def _fold_remote(kw):
    reset_breakers()
    dp = DataParallel(chunk_size=2, **kw)
    folds = dp.map_reduce(double, range(4), operator.add, 0, backend="remote")
    assert list(folds) == [2, 10]
    assert dp.backend == "thread"
    return dp


# name -> (build, knob overrides, pipes built, take_timeout seen by each)
CASES = {
    "source_pipe": (lambda kw: source_pipe(range(4), **kw), {}, 1, None),
    "stage": (lambda kw: stage(double, range(4), **kw), {}, 1, None),
    "pipeline": (
        lambda kw: pipeline(range(4), double, double, **kw), {}, 3, None
    ),
    "pipeline-whole-chain": (
        lambda kw: pipeline(range(4), double, double, **kw),
        {"backend": "remote"},
        1,
        None,
    ),
    "supervise": (lambda kw: supervise(range(4), **kw), {}, 1, None),
    "supervised_stage": (
        lambda kw: supervised_stage(double, range(4), **kw), {}, 1, None
    ),
    # The unsupervised source keeps take_timeout=None.
    "supervised_pipeline": (
        lambda kw: supervised_pipeline(range(4), double, double, **kw),
        {},
        3,
        {"source": None},
    ),
    # DataParallel takes every knob but take_timeout; async tasks run
    # in-process, so the chunk tasks really run.
    "dataparallel": (
        _fold, {"backend": "async", "take_timeout": None}, 2, None
    ),
    # A thread-backend DataParallel switched to "remote" per call: the
    # chunk tasks still share the one pool its list address became.
    "dataparallel-remote-call": (
        _fold_remote, {"backend": "thread", "take_timeout": None}, 2, None
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_knob_reaches_every_pipe(case, built, pipe_scheduler):
    build, overrides, count, take_timeouts = CASES[case]
    kw = {
        "capacity": 3,
        "scheduler": pipe_scheduler,
        "take_timeout": 30.0,
        "batch": 2,
        "max_linger": 0.5,
        "backend": "process",
        "heartbeat_interval": 0.25,
        "heartbeat_timeout": 5.0,
        "mp_context": SPAWN,
        "remote_address": REFUSED,
        "deadline": 60.0,
        **overrides,
    }
    if kw["take_timeout"] is None:
        del kw["take_timeout"]
    built_by = build(kw)
    assert len(built) == count
    backend = "remote" if case == "dataparallel-remote-call" else kw["backend"]
    deadline, pool = built[0].deadline, built[0].remote_address
    assert isinstance(deadline, Deadline)
    assert isinstance(pool, ServerPool)
    assert pool.addresses == tuple(REFUSED)
    for pipe in built:
        expected = (take_timeouts or {}).get(
            pipe.coexpr.name, kw.get("take_timeout")
        )
        assert pipe.take_timeout == expected, pipe
        assert pipe.capacity == 3
        assert pipe._scheduler is pipe_scheduler
        assert pipe.batch == 2
        assert pipe.max_linger == 0.5
        assert pipe.backend == backend
        assert pipe.heartbeat_interval == 0.25
        assert pipe.heartbeat_timeout == 5.0
        assert pipe.mp_context is SPAWN
        assert pipe.remote_address is pool  # one routing memory
        assert pipe.deadline is deadline  # one end-to-end budget
    if isinstance(built_by, DataParallel):
        assert built_by.remote_address is pool
    elif hasattr(built_by, "cancel"):
        built_by.cancel()


@pytest.mark.parametrize(
    "kw",
    [
        {"backend": "remote"},
        {"heartbeat_interval": 0},
        {"heartbeat_timeout": -1},
        {"max_linger": -1},
        {"batch": 0},
        {"deadline": -1},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_dataparallel_checks_knobs_at_construction(kw):
    with pytest.raises(ValueError):
        DataParallel(**kw)


def test_dataparallel_still_takes_no_take_timeout():
    with pytest.raises(TypeError):
        DataParallel(take_timeout=1.0)


def test_pipe_knobs_is_idempotent():
    knobs = pipe_knobs(remote_address=REFUSED, deadline=5.0)
    again = pipe_knobs(**knobs)
    assert again == knobs
    assert again["remote_address"] is knobs["remote_address"]
    assert again["deadline"] is knobs["deadline"]
    assert again["heartbeat_interval"] == 0.1


def test_pipe_takes_its_knobs_positionally_in_order(pipe_scheduler):
    piped = Pipe(range(3), 4, pipe_scheduler, 9.0, 2)
    assert (piped.capacity, piped._scheduler, piped.take_timeout) == (
        4, pipe_scheduler, 9.0
    )
    assert piped.batch == 2
    assert list(piped.iterate()) == [0, 1, 2]


def test_refresh_keeps_upstream_cancellation():
    src = source_pipe(range(10**6), capacity=2)
    st = stage(double, src, capacity=2)
    fresh = st.refresh()
    assert fresh.upstream is src
    assert fresh.take() == 0
    assert fresh.cancel(join=True, timeout=5.0)
    # Cancelling the refreshed stage reached the producer above it.
    assert src.cancelled
    assert src.cancel(join=True, timeout=5.0)
