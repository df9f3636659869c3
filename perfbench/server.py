"""A generator server in its own process, driven over stdin/stdout.

Run from the root of a checkout::

    python3 perfbench/server.py --kind thread|async [--trace]

It prints ``READY <host> <port>`` once the server listens, then answers
one JSON line per command read from stdin:

* ``stats`` -- CPU seconds and peak RSS of this process;
* ``trace`` -- the folded layer figures (``--trace`` only): ``wire.send``
  busy time and frame count, lifecycle session and shed events, peak
  thread count;
* ``quit`` -- waits for open sessions to end, shuts the server down, and
  reports what was left over: sessions still open and workers the
  scheduler could not join.  Exits 0 when nothing was left over.

With ``--trace`` the layer wrappers of :mod:`perfbench.trace` are
installed before the server is built.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def process_stats() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_peak_kb": usage.ru_maxrss,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("thread", "async"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    events = {"sessions": 0, "shed": 0}
    events_lock = threading.Lock()
    if args.trace:
        from perfbench import trace

        trace.install()
        from repro.monitor import EventKind, add_lifecycle_sink

        # The event-loop server reports NET_SESSION and ASYNC_SESSION for
        # one session; NET_SESSION alone counts every session once.
        def sink(event) -> None:
            key = (
                "sessions" if event.kind == EventKind.NET_SESSION
                else "shed" if event.kind == EventKind.SHED
                else None
            )
            if key is not None:
                trace.count_threads()
                with events_lock:
                    events[key] += 1

        add_lifecycle_sink(sink)

    from repro.coexpr import default_scheduler
    from repro.net import AsyncGeneratorServer, GeneratorServer

    server_class = GeneratorServer if args.kind == "thread" else AsyncGeneratorServer
    server = server_class(port=0, name=f"perfbench-{args.kind}").start()
    host, port = server.address
    print(f"READY {host} {port}", flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "stats":
            reply = process_stats()
        elif command == "trace":
            from perfbench import trace

            sends = [s for s in trace.spans if s[1] == "wire.send"]
            reply = {
                "send_s": sum(end - start for _, _, start, end, *_ in sends),
                "send_frames": len(sends),
                "sessions": events["sessions"],
                "shed": events["shed"],
                "threads_peak": trace.threads_peak(),
            }
            trace.reset()
            events.update(sessions=0, shed=0)
        elif command == "quit":
            deadline = time.monotonic() + 5.0
            while server.active_sessions() and time.monotonic() < deadline:
                time.sleep(0.01)
            open_sessions = len(server.active_sessions())
            server.shutdown(wait=True)
            leaked = default_scheduler().leaked(join_timeout=5.0)
            reply = {
                "open_sessions": open_sessions,
                "leaked": [getattr(w, "name", repr(w)) for w in leaked],
            }
            print(json.dumps(reply), flush=True)
            return 0 if not open_sessions and not leaked else 1
        else:
            reply = {"error": f"unknown command {command!r}"}
        print(json.dumps(reply), flush=True)
    server.shutdown(wait=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
