"""Pipeline and data-parallel composition patterns (paper Figure 2).

Figure 2 contrasts the two decompositions expressible with the calculus:

* **Pipeline** — ``f(! |> s)``: fixed-code; each stage owns a thread and
  an entire stream, data flows between stages through blocking queues.
* **Data parallel** — ``every (c = chunk(s)) do |> f(!c)``: fixed-data;
  each thread applies the whole function chain to its chunk
  (:mod:`repro.coexpr.dataparallel`).

:func:`stage` builds one pipeline stage (a pipe mapping a function over an
upstream); :func:`pipeline` chains stages.  The helpers use Icon
invocation semantics, so generator functions fan out naturally (one input
producing several outputs) and plain functions map one-to-one.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import threading

from ..errors import ChannelClosedError
from ..runtime.failure import FAIL
from .coexpression import CoExpression
from .dataparallel import apply_mapped, iter_source
from .pipe import Pipe, pipe_knobs
from .scheduler import PipeScheduler, default_scheduler


# Module-level bodies (not closures) so a process or remote backend can
# ship them by reference: pickling a module-level function costs only its
# qualified name, and the snapshot env carries the parameters.

def _source_body(src: Any) -> Iterator[Any]:
    yield from iter_source(src)


def _stage_body(up: Any, fn: Callable[[Any], Any]) -> Iterator[Any]:
    for value in iter_source(up):
        yield from apply_mapped(fn, value)


def _remote_pipeline_body(source: Any, stages: tuple) -> Iterator[Any]:
    """The whole chain as one portable body: on the server (or in a
    replayed supervised run) it re-expands into a local thread pipeline,
    so the stages still run concurrently — just on the far side of the
    socket instead of one socket per stage."""
    piped = pipeline(source, *stages)
    try:
        yield from piped.iterate()
    finally:
        piped.cancel()


def _whole_chain(source: Any, stages: tuple, knobs: dict) -> CoExpression | None:
    """The one co-expression a remote :func:`pipeline` (supervised or
    not) ships for the whole chain, over :func:`_remote_pipeline_body` —
    or None when the chain is built stage by stage instead (any backend
    but ``"remote"``, or no stages: a lone source is just a pipe)."""
    if knobs["backend"] != "remote" or not stages:
        return None
    return CoExpression(
        _remote_pipeline_body,
        lambda: (source, tuple(stages)),
        name=f"pipeline[{len(stages)}]",
    )


def source_pipe(source: Any, **knobs: Any) -> Pipe:
    """``|> s`` — stream a source from its own thread (or, with
    ``backend="process"``, from a crash-isolated child process; with
    ``backend="remote"``, from a generator server at *remote_address*).
    Keyword options as for :class:`~repro.coexpr.pipe.Pipe`."""

    return Pipe(CoExpression(_source_body, lambda: (source,), name="source"), **knobs)


def stage(fn: Callable[[Any], Any], upstream: Any, **knobs: Any) -> Pipe:
    """``|> fn(!upstream)`` — one pipeline stage in its own thread.
    Keyword options as for :class:`~repro.coexpr.pipe.Pipe`.

    Maps *fn* (generator or plain function) over the upstream's elements
    and streams the results.  ``capacity`` bounds the stage's output
    queue, throttling it relative to its consumer.

    When *upstream* is a pipe, the new stage records it as its
    ``upstream``: if this stage dies or is cancelled, cancellation
    propagates up the chain so no producer is left blocked on a full
    channel.

    ``backend="process"`` applies the degradation rules of
    :mod:`repro.coexpr.proc`: a stage fed by an in-parent pipe cannot
    cross the process boundary and falls back to a thread (``DEGRADED``
    monitor event); a stage over a self-contained source isolates.
    ``backend="remote"`` follows the same rule over the network: only a
    stage whose upstream can travel (and whose *fn* pickles) is shipped
    to the server at *remote_address*.
    """

    name = getattr(fn, "__name__", "stage")
    piped = Pipe(CoExpression(_stage_body, lambda: (upstream, fn), name=name), **knobs)
    if hasattr(upstream, "cancel"):
        piped.upstream = upstream
    return piped


def pipeline(source: Any, *stages: Callable[[Any], Any], **knobs: Any) -> Pipe:
    """Chain *stages* over *source*, one thread per stage.  Keyword
    options as for :class:`~repro.coexpr.pipe.Pipe`, checked once and
    given to every stage.

    ``pipeline(s, f, g)`` is ``|> g(! |> f(! |> s))``: consuming the
    returned pipe drives every stage concurrently.  With no stages the
    result is just the source pipe.

    The stages are linked for cancellation: when any stage crashes or
    the returned pipe is cancelled, every upstream producer is cancelled
    too (never orphaned blocked on a full channel).  ``take_timeout``
    becomes the per-take deadline of every stage, so a stall anywhere in
    the chain surfaces as :class:`~repro.errors.PipeTimeoutError`.
    ``batch``/``max_linger`` apply to every stage: each handoff moves up
    to *batch* elements per lock acquisition (see :class:`Pipe`).
    ``backend="process"`` crash-isolates the source pipe; the channel-fed
    stages above it degrade to threads (see :mod:`repro.coexpr.proc`).

    ``backend="remote"`` ships the **whole chain** to the generator
    server at *remote_address* as one pipe: the server re-expands it into
    a local thread pipeline and streams the final stage's results back
    over a single connection (one socket hop for the chain, not one per
    stage — and a shape supervision can replay on reconnect).  If the
    source or any stage cannot be pickled, the pipe degrades to the
    all-thread form.

    ``deadline`` is normalized once and **shared** by the source and
    every stage — one end-to-end budget for the chain, not a fresh
    clock per hop.  A remote pipeline is always exactly one pipe, so a
    list of ``(host, port)`` pairs becomes **one**
    :class:`~repro.net.cluster.ServerPool` (normalized by
    :func:`~repro.coexpr.pipe.pipe_knobs`) and routing memory
    (suspicion, failover history) is chain-wide.
    """
    knobs = pipe_knobs(**knobs)
    chain = _whole_chain(source, stages, knobs)
    if chain is not None:
        return Pipe(chain, **knobs)
    current: Pipe = source_pipe(source, **knobs)
    for fn in stages:
        current = stage(fn, current, **knobs)
    return current


def fan_out(
    upstream: Any,
    count: int,
    capacity: int = 0,
    scheduler: PipeScheduler | None = None,
) -> list[Pipe]:
    """Split one stream across *count* competing consumers.

    All returned pipes share the upstream pipe's output channel: each
    element goes to exactly one of them (work sharing, not broadcast).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    shared = upstream if isinstance(upstream, Pipe) else source_pipe(
        upstream, capacity=capacity, scheduler=scheduler
    )
    shared.start()

    def body(src: Pipe) -> Iterator[Any]:
        while True:
            value = src.take()
            if value is FAIL:
                return
            yield value

    return [
        Pipe(
            CoExpression(body, lambda: (shared,), name=f"fanout-{index}"),
            capacity=capacity,
            scheduler=scheduler,
        )
        for index in range(count)
    ]


def merge(
    *upstreams: Any,
    capacity: int = 0,
    scheduler: PipeScheduler | None = None,
) -> Pipe:
    """Interleave several streams into one (completion order).

    Each upstream is drained by its own forwarder thread into a shared
    channel; the returned pipe yields items as they arrive.
    """
    out = Pipe(
        CoExpression(lambda: iter(()), name="merge"),
        capacity=capacity,
        scheduler=scheduler,
    )
    out._started = True  # forwarder threads below replace the usual worker

    sources = [
        up if isinstance(up, Pipe) else source_pipe(up, scheduler=scheduler)
        for up in upstreams
    ]
    remaining = len(sources)
    lock = threading.Lock()

    def forward(src: Pipe) -> None:
        nonlocal remaining
        try:
            while True:
                value = src.take()
                if value is FAIL:
                    return
                out.out.put(value)
        except ChannelClosedError:
            src.cancel()  # consumer abandoned the merge: stop this source
        finally:
            with lock:
                remaining -= 1
                if remaining == 0:
                    out.out.close()

    sched = scheduler or default_scheduler()
    for src in sources:
        sched.submit(lambda s=src: forward(s), name="merge")
    if not sources:
        out.out.close()
    return out
