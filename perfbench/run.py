"""The repository benchmark: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 10 --trace 0

Workloads: ``wordcount``, ``compile``, ``remote_item``, ``remote_bulk``
(see :mod:`perfbench.workloads`).  A run sets the workload up several
times (``setup_s`` is the median), runs warmup jobs, then measures a
closed loop for ``--seconds``.  Every job's output is checked against a
reference that does not come from the code under test.  After the run
it checks for leaks: workers the default scheduler cannot join, threads
above the count before set-up, and server sessions left open.

``--workload all`` runs every workload in turn (untraced) and prints
each end-to-end metric by workload, name and unit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
the same untraced loop (for ``trace.overhead_frac``), then sets the
workload up again with the layer wrappers of :mod:`perfbench.trace`
installed, runs a fixed list of jobs and prints the per-layer metrics.
Count metrics of a traced run depend only on the seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric
carries its unit.  A result file with the host fingerprint is written to
``.perfbench/`` (and, for traced runs, the spans).  The exit code is
non-zero when any output was wrong, a job failed, or something leaked.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


# ---------------------------------------------------------------------------
# Host fingerprint.
# ---------------------------------------------------------------------------


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg() if hasattr(os, "getloadavg") else None,
    }


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------


class Phase:
    """Jobs run by ``workload.clients`` closed-loop client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.jobs: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self.wall = 0.0

    def run(self, workload: Any, indices: Any, until: float | None = None) -> "Phase":
        from perfbench import trace

        source = iter(indices)

        def client() -> None:
            while until is None or time.perf_counter() < until:
                with self.lock:
                    index = next(source, None)
                if index is None:
                    return
                trace.set_job(index)
                start = time.perf_counter()
                try:
                    first, ok, items = workload.job(index)
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    first, ok, items = 0.0, False, 0
                    with self.lock:
                        self.errors.append(f"job {index}: {error!r}")
                end = time.perf_counter()
                with self.lock:
                    self.jobs.append({
                        "index": index, "start": start, "end": end,
                        "first": (first or end) - start, "ok": ok,
                        "items": items, "thread": threading.get_ident(),
                    })
            trace.set_job(None)

        began = time.perf_counter()
        if workload.clients == 1:
            client()
        else:
            threads = [threading.Thread(target=client, name=f"client-{n}")
                       for n in range(workload.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.wall = time.perf_counter() - began
        return self

    @property
    def correct_jobs(self) -> int:
        return sum(1 for job in self.jobs if job["ok"])

    @property
    def failed(self) -> int:
        return len(self.jobs) - self.correct_jobs


def leak_check(baseline_threads: int) -> List[str]:
    """Workers the default scheduler cannot join, threads above baseline."""
    from repro.coexpr import default_scheduler

    leftovers = [
        f"leaked worker {getattr(worker, 'name', repr(worker))}"
        for worker in default_scheduler().leaked(join_timeout=5.0)
    ]
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline_threads and time.monotonic() < deadline:
        time.sleep(0.01)
    extra = threading.active_count() - baseline_threads
    if extra > 0:
        names = sorted(t.name for t in threading.enumerate())
        leftovers.append(f"{extra} threads above baseline: {names}")
    return leftovers


def set_up(workload: Any, reps: int) -> tuple[List[float], List[str]]:
    """Set the workload up *reps* times, keeping the last; seconds of each
    set-up, leftovers of the ones closed."""
    times, leftovers = [], []
    for rep in range(reps):
        if rep:
            leftovers += workload.close()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times, leftovers


def percentile(values: List[float], share: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def rss_peak_mb(server: Dict[str, Any] | None) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if server is not None:
        kb += server["rss_peak_kb"]
    return kb / 1024.0


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics.
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from perfbench.workloads import build

    baseline = threading.active_count()
    workload = build(name, seed)
    leftovers: List[str] = []
    # Half the set-ups run after the timed phase: set-up takes milliseconds,
    # and sampling the host at two moments keeps a slow or fast spell of
    # the machine from deciding the whole figure.
    before = workload.setup_reps // 2 + 1
    try:
        setups, leftovers = set_up(workload, before)
        warm = Phase().run(workload, range(-workload.warmup_jobs, 0))
        server0 = workload.server_stats()
        cpu0 = time.process_time()
        timed = Phase().run(workload, itertools.count(),
                            until=time.perf_counter() + seconds)
        cpu = time.process_time() - cpu0
        server1 = workload.server_stats()
        leftovers += workload.close()
        after, closed = set_up(workload, workload.setup_reps - before)
        setups += after
        leftovers += closed
    finally:
        leftovers += workload.close()
    leftovers += leak_check(baseline)
    # The first set-up in a process also pays for importing the program.
    setup_s = statistics.median(setups[1:] if len(setups) > 2 else setups)
    if server1 is not None:
        cpu += server1["cpu_s"] - server0["cpu_s"]
    jobs = timed.jobs
    job_ms = [1000 * (job["end"] - job["start"]) for job in jobs]
    first_ms = [1000 * job["first"] for job in jobs]
    attempted = max(len(jobs), 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (timed.correct_jobs / timed.wall, "1/s"),
        "job_ms_p50": (statistics.median(job_ms), "ms"),
        "job_ms_p90": (percentile(job_ms, 0.90), "ms"),
        "first_item_ms_p50": (statistics.median(first_ms), "ms"),
        "cpu_ms_per_job": (1000 * cpu / attempted, "ms"),
        "rss_peak_mb": (rss_peak_mb(server1), "MB"),
    }
    return {
        "attempted": attempted,
        "failed": timed.failed + warm.failed + len(leftovers),
        "warmup_failed": warm.failed,
        "setup_times_s": setups,
        "job_log": [[job["start"], job["end"], job["first"], job["ok"]] for job in jobs],
        "errors": warm.errors + timed.errors,
        "leftovers": leftovers,
        "jobs": len(jobs),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics.
# ---------------------------------------------------------------------------


def traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from perfbench import trace
    from perfbench.workloads import Remote, build

    untraced = measure(name, seed, seconds)
    baseline = threading.active_count()
    trace.install()
    workload = build(name, seed, traced=True)
    leftovers: List[str] = []
    server_figures: Dict[str, Any] = {}
    try:
        set_up(workload, 1)
        warm = Phase().run(workload, range(-workload.warmup_jobs, 0))
        remote = isinstance(workload, Remote)
        if remote:
            workload.server_trace()  # drop the server's set-up and warmup
        server0 = workload.server_stats()
        timed = Phase().run(workload, range(workload.traced_jobs))
        server1 = workload.server_stats()
        if remote:
            server_figures = workload.server_trace()
            server_figures["cpu_s"] = server1["cpu_s"] - server0["cpu_s"]
    finally:
        leftovers += workload.close()
        trace.uninstall()
    leftovers += leak_check(baseline)
    metrics = fold(trace.spans, trace.counts_by_job(), timed, server_figures)
    traced_rate = timed.correct_jobs / timed.wall
    untraced_rate = untraced["metrics"]["jobs_per_s"][0]
    metrics["trace.overhead_frac"] = (
        (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0,
        "ratio",
    )
    return {
        "attempted": untraced["attempted"] + len(timed.jobs),
        "failed": untraced["failed"] + timed.failed + warm.failed + len(leftovers),
        "errors": untraced["errors"] + warm.errors + timed.errors,
        "leftovers": untraced["leftovers"] + leftovers,
        "jobs": len(timed.jobs),
        "untraced": {k: v[0] for k, v in untraced["metrics"].items()},
        "metrics": metrics,
    }


def fold(spans: List[tuple], counts: Dict[tuple, float], timed: Phase,
         server: Dict[str, Any]) -> Dict[str, tuple]:
    """Per-layer metrics from the spans and counts of a traced run."""
    from perfbench.trace import self_times

    jobs = max(len(timed.jobs), 1)
    items = max(sum(job["items"] for job in timed.jobs), 1)
    timed_ids = {job["index"] for job in timed.jobs}
    selfs = self_times(spans)

    def timed_spans(name: str) -> List[tuple]:
        return [s for s in spans if s[1] == name and s[5] in timed_ids]

    def busy_s(name: str, own: bool = False) -> float:
        return sum(selfs[s[0]] if own else s[3] - s[2] for s in timed_spans(name))

    def total(name: str) -> float:
        return sum(v for (n, job), v in counts.items() if n == name and job in timed_ids)

    # lang: every program compiled in the traced run, set-up included.
    programs = max(sum(1 for s in spans if s[1] == "lang.exec"), 1)

    def per_program_ms(name: str) -> float:
        return 1000 * sum(selfs[s[0]] for s in spans if s[1] == name) / programs

    def all_counts(name: str) -> float:
        return sum(v for (n, _job), v in counts.items() if n == name)

    lowered = all_counts("lang.lowered")
    emitted = lowered + all_counts("lang.interpreted")
    metrics = {
        f"lang.{phase}_ms": (per_program_ms(f"lang.{phase}"), "ms")
        for phase in ("tokenize", "parse", "normalize", "transform", "lower", "exec")
    }
    metrics["lang.lowered_frac"] = (lowered / emitted if emitted else 0.0, "ratio")
    metrics["lang.generated_kb"] = (
        all_counts("lang.generated_bytes") / 1024 / programs, "count"
    )

    invokes = len(timed_spans("runtime.invoke")) + total("runtime.call_results")
    metrics["runtime.invoke_per_item"] = (invokes / items, "count")
    metrics["runtime.deref_per_item"] = (total("runtime.deref") / items, "count")
    metrics["runtime.invoke_ms"] = (1000 * busy_s("runtime.invoke", own=True) / jobs, "ms")

    starts = timed_spans("coexpr.pipe_start")
    start_ms = [1000 * (s[3] - s[2]) for s in starts]
    metrics["coexpr.pipes_per_job"] = (len(starts) / jobs, "count")
    metrics["coexpr.handoffs_per_item"] = (len(timed_spans("coexpr.put")) / items, "count")
    metrics["coexpr.take_wait_ms"] = (1000 * busy_s("coexpr.take") / jobs, "ms")
    metrics["coexpr.put_wait_ms"] = (1000 * busy_s("coexpr.put") / jobs, "ms")
    metrics["coexpr.pipe_start_ms_p50"] = (
        statistics.median(start_ms) if start_ms else 0.0, "ms"
    )

    wire_items = max(total("wire.data_items"), 1)
    sends = timed_spans("wire.send")
    send_frames = len(sends) + server.get("send_frames", 0)
    send_s = sum(s[3] - s[2] for s in sends) + server.get("send_s", 0.0)
    metrics["wire.data_frames_per_item"] = (total("wire.recv.data") / wire_items, "count")
    metrics["wire.credit_frames_per_item"] = (total("wire.sent.credit") / wire_items, "count")
    metrics["wire.bytes_per_item"] = (total("wire.data_bytes") / wire_items, "count")
    metrics["wire.send_us"] = (1e6 * send_s / send_frames if send_frames else 0.0, "us")
    metrics["wire.recv_wait_ms"] = (1000 * busy_s("wire.recv") / jobs, "ms")

    # net: remote Pipe.start -> first item, per job, on remote workloads.
    first_start: Dict[Any, float] = {}
    for s in starts:
        first_start[s[5]] = min(first_start.get(s[5], s[2]), s[2])
    dial_ms = [
        1000 * (job["start"] + job["first"] - first_start[job["index"]])
        for job in timed.jobs
        if server and job["index"] in first_start
    ]
    sessions = server.get("sessions", 0)
    shed = server.get("shed", 0)
    metrics["net.dial_ms_p50"] = (statistics.median(dial_ms) if dial_ms else 0.0, "ms")
    metrics["net.sessions_per_job"] = (sessions / jobs, "count")
    metrics["net.shed_frac"] = (shed / (sessions + shed) if sessions + shed else 0.0, "ratio")
    metrics["net.server_cpu_ms_per_job"] = (1000 * server.get("cpu_s", 0.0) / jobs, "ms")
    metrics["net.server_threads_peak"] = (server.get("threads_peak", 0), "count")

    # Share of consumer-thread job time spent inside a measured layer call.
    by_job = {job["index"]: job for job in timed.jobs}
    covered = sum(
        s[3] - s[2] for s in spans
        if s[4] is None and s[5] in by_job and s[6] == by_job[s[5]]["thread"]
    )
    job_time = sum(job["end"] - job["start"] for job in timed.jobs)
    metrics["trace.covered_frac"] = (covered / job_time if job_time else 0.0, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def write_result(record: Dict[str, Any], spans: List[tuple] | None) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + "-spans.jsonl"), "w") as out:
            out.write('["id","name","start","end","parent","job","thread"]\n')
            for span in spans:
                out.write(json.dumps(span) + "\n")


WORKLOAD_NAMES = ("wordcount", "compile", "remote_item", "remote_bulk")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a table of end-to-end metrics."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                      "failed": 1, "metrics": {}}
        summary["correct"] &= bool(result["correct"]) and done.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
            print(f"{name:12s} {metric:20s} {value['value']:14.4f} {value['unit']}")
        print(f"{name:12s} {'failed/attempted':20s} {result['failed']:9d}/{result['attempted']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ.pop("REPRO_OPTIMIZE", None)

    record = fingerprint(args)
    run = (traced if args.trace else measure)(args.workload, args.seed, args.seconds)
    record.update(run)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()}
    from perfbench import trace

    write_result(record, trace.spans if args.trace else None)
    for line in run["errors"][:20] + run["leftovers"]:
        print(f"perfbench: {line}", file=sys.stderr)
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
