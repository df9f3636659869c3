"""Spans and counts recorded around the public entry points of each layer.

:func:`install` wraps the public entry points of each layer in place,
from outside the program: module functions are replaced wherever a
``repro`` module holds a reference to them, methods on their class.  It must run before a workload builds anything, because
``JuniconInterpreter`` copies the prelude names into its namespace when
it is created.

Each span records ``(id, name, start, end, parent, job, thread)``.  Spans
stay in memory until the run ends.  Counts are kept per thread and per
job, so that they can be attributed to timed jobs without locking.  A
wrapper that re-enters itself on the same thread (a recursive
``normalize_expr``) records one span, not one per level.

The job id is thread-local: a client thread sets it with :func:`set_job`,
and scheduler worker threads inherit the id of the thread that submitted
them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

Span = Tuple[int, str, float, float, Any, Any, int]

_local = threading.local()
_ids = itertools.count(1)
spans: List[Span] = []
_thread_counts: List[Dict[Tuple[str, Any], float]] = []
_installed: List[Tuple[Any, str, Any]] = []


def _state():
    try:
        return _local.stack, _local.counts
    except AttributeError:
        _local.stack = []
        _local.counts = defaultdict(float)
        _thread_counts.append(_local.counts)
        return _local.stack, _local.counts


def current_job() -> Any:
    return getattr(_local, "job", None)


def set_job(job_id: Any) -> None:
    _local.job = job_id


def count(name: str, amount: float = 1) -> None:
    _stack, counts = _state()
    counts[(name, getattr(_local, "job", None))] += amount


def reset() -> None:
    """Forget every span and count recorded so far."""
    spans.clear()
    for counts in list(_thread_counts):
        counts.clear()


def counts_by_job() -> Dict[Tuple[str, Any], float]:
    merged: Dict[Tuple[str, Any], float] = defaultdict(float)
    for counts in list(_thread_counts):
        for key, value in list(counts.items()):
            merged[key] += value
    return merged


def _spanned(name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack, _counts = _state()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = next(_ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans.append(
                (sid, name, start, end, parent, getattr(_local, "job", None),
                 threading.get_ident())
            )
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _counted(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        count(name)
        return fn(*args, **kwargs)

    return wrapper


def _frame_bytes(envelope: tuple) -> int:
    return 4 + len(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))


def _on_send(args: tuple, _result: Any) -> None:
    envelope = args[1]
    count(f"wire.sent.{envelope[0]}")
    count_threads()


def _on_recv(_args: tuple, envelope: Any) -> None:
    if envelope is None:
        return  # try_recv: frame still partial
    count(f"wire.recv.{envelope[0]}")
    if envelope[0] == "data":
        count("wire.data_items", len(envelope[1]))
        count("wire.data_bytes", _frame_bytes(envelope))


_threads_peak = [0]
_threads_lock = threading.Lock()


def count_threads() -> None:
    active = threading.active_count()
    with _threads_lock:
        _threads_peak[0] = max(_threads_peak[0], active)


def threads_peak() -> int:
    return _threads_peak[0]


def _on_emit(_args: tuple, lowered: Any) -> None:
    count("lang.lowered" if lowered else "lang.interpreted")


def _on_transform(_args: tuple, code: Any) -> None:
    count("lang.generated_bytes", len(code))


def _first_start(start: Callable) -> Callable:
    """``Pipe.start`` is idempotent and called by every ``take``; only the
    call that actually starts the pipe is a span."""
    spanned = _spanned("coexpr.pipe_start", start)

    @functools.wraps(start)
    def wrapper(self: Any) -> Any:
        if self._started or self._cancelled:
            return start(self)
        return spanned(self)

    return wrapper


def _async_send(send: Callable) -> Callable:
    """A span around a coroutine's whole await, outside the span stack
    (coroutines on one loop thread interleave)."""

    @functools.wraps(send)
    async def wrapper(self: Any, envelope: tuple) -> None:
        start = time.perf_counter()
        try:
            await send(self, envelope)
        finally:
            spans.append((next(_ids), "wire.send", start, time.perf_counter(),
                          None, None, threading.get_ident()))
        _on_send((self, envelope), None)

    return wrapper


def _patch_function(module_name: str, attr: str, make: Callable[[Callable], Callable],
                    everywhere: bool = True) -> None:
    module = sys.modules[module_name]
    original = getattr(module, attr)
    wrapper = make(original)
    targets: Iterable[Any] = (
        [m for n, m in list(sys.modules.items())
         if m is not None and (n == "repro" or n.startswith("repro."))]
        if everywhere else [module]
    )
    for target in targets:
        if getattr(target, attr, None) is original:
            _installed.append((target, attr, original))
            setattr(target, attr, wrapper)


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = cls.__dict__[attr]
    _installed.append((cls, attr, original))
    setattr(cls, attr, make(original))


def install() -> None:
    """Wrap every layer entry point (idempotent)."""
    if _installed:
        return
    # ``import repro.coexpr.x as x`` would bind the re-exported function
    # ``repro.coexpr.coexpr``, so modules are looked up by name.
    for name in ("repro.net", "repro.lang.optimize", "repro.lang.prelude"):
        importlib.import_module(name)  # loads every module holding a reference
    channel, pipe, scheduler, wire, aserver, interp, parser = (
        importlib.import_module(f"repro.{name}")
        for name in ("coexpr.channel", "coexpr.pipe", "coexpr.scheduler",
                     "coexpr.wire", "net.aserver", "lang.interp", "lang.parser")
    )

    # lang: the front end, phase by phase.
    _patch_function("repro.lang.lexer", "tokenize",
                    lambda f: _spanned("lang.tokenize", f))
    _patch_method(parser.Parser, "parse_program",
                  lambda f: _spanned("lang.parse", f))
    _patch_function("repro.lang.parser", "parse_expression",
                    lambda f: _spanned("lang.parse", f))
    for name in ("normalize_expr", "normalize_method"):
        _patch_function("repro.lang.normalize", name,
                        lambda f: _spanned("lang.normalize", f))
    _patch_function("repro.lang.transform", "transform_program",
                    lambda f: _spanned("lang.transform", f, _on_transform))
    _patch_function("repro.lang.optimize", "emit_method_optimized",
                    lambda f: _spanned("lang.lower", f, _on_emit))
    _patch_function("repro.lang.transform", "emit_method",
                    lambda f: _counted("lang.interpreted", f))
    _patch_method(interp.JuniconInterpreter, "load",
                  lambda f: _spanned("lang.exec", f))

    # runtime: the call protocol generated code reaches through the prelude.
    _patch_function("repro.lang.prelude", "invoke_value",
                    lambda f: _spanned("runtime.invoke", f), everywhere=False)
    _patch_function("repro.lang.prelude", "call_results",
                    lambda f: _counted("runtime.call_results", f), everywhere=False)
    # deref is counted wherever the runtime calls it, not only from
    # generated code: the interpreted iterator trees dereference inside
    # runtime nodes.
    _patch_function("repro.runtime.refs", "deref",
                    lambda f: _counted("runtime.deref", f))

    # coexpr: channel handoffs and pipe start-up.
    for name in ("put", "put_many"):
        _patch_method(channel.Channel, name,
                      lambda f: _spanned("coexpr.put", f))
    for name in ("take", "take_many"):
        _patch_method(channel.Channel, name,
                      lambda f: _spanned("coexpr.take", f))
    _patch_method(pipe.Pipe, "start", _first_start)

    # wire: framing, with envelope kinds and sizes counted.  The event-loop
    # server writes frames itself instead of through a SocketFramer.
    _patch_method(wire.SocketFramer, "send",
                  lambda f: _spanned("wire.send", f, _on_send))
    _patch_method(aserver._AsyncSession, "_send", _async_send)
    for name in ("recv", "try_recv"):
        _patch_method(wire.SocketFramer, name,
                      lambda f: _spanned("wire.recv", f, _on_recv))

    # Worker threads inherit the submitting thread's job id.
    def inherit_job(submit: Callable) -> Callable:
        @functools.wraps(submit)
        def wrapper(self: Any, body: Callable[[], None], *args: Any, **kwargs: Any):
            job_id = current_job()

            def run() -> None:
                set_job(job_id)
                body()

            return submit(self, run, *args, **kwargs)

        return wrapper

    _patch_method(scheduler.PipeScheduler, "submit", inherit_job)


def uninstall() -> None:
    while _installed:
        target, attr, original = _installed.pop()
        setattr(target, attr, original)


# ---------------------------------------------------------------------------
# Folding spans.
# ---------------------------------------------------------------------------


def self_times(recorded: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child_time: Dict[Any, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _job, _thread in recorded:
        if parent is not None:
            child_time[parent] += end - start
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _name, start, end, _parent, _job, _thread in recorded
    }
