"""The four workloads: seeded inputs, one job, and a reference answer.

Every workload is a closed loop: a client sends its next job only after
the previous one finished.  A workload object is built from the seed
alone, then set up (possibly several times, to time set-up), then asked
for jobs by index.  ``job`` returns the time its first result reached
the consumer, whether the whole output matched the reference, and how
many items it carried.  Inputs are drawn from the seed and handed to the
program; the program never sees the seed.

The program is reached only through public entry points with their
default knobs (no ``optimize=True``, no ``REPRO_OPTIMIZE``), so a change
of default shows in the figures.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from typing import Any, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (time the first result reached the consumer, output correct, items)
JobResult = Tuple[float, bool, int]


class WordCount:
    """The paper's Figure 6 program, light weight, one client thread
    rotating Sequential, Pipeline, DataParallel, MapReduce."""

    name = "wordcount"
    clients = 1
    setup_reps = 9
    warmup_jobs = 8
    traced_jobs = 32
    GENERATORS = ("seqGen", "pipeGen", "dataParallelGen", "mapReduceGen")
    LINES, WORDS_PER_LINE, CHUNK = 120, 8, 100

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.bench.embedded import EmbeddedSuite
        from repro.bench.workloads import LIGHT, expected_total, generate_lines

        lines = generate_lines(self.LINES, self.WORDS_PER_LINE, seed=self.seed)
        self.expected = expected_total(lines, LIGHT)
        self.suite = EmbeddedSuite(lines, LIGHT, chunk_size=self.CHUNK)
        self.generators = [self.suite.namespace[g] for g in self.GENERATORS]

    def items(self, index: int) -> int:
        return self.LINES * self.WORDS_PER_LINE

    def job(self, index: int) -> JobResult:
        generator = self.generators[index % len(self.generators)]
        first, total = 0.0, 0.0
        for value in generator():
            if not first:
                first = time.perf_counter()
            total += value
        return first, math.isclose(total, self.expected, rel_tol=1e-9), self.items(index)

    def server_stats(self) -> dict | None:
        return None

    def close(self) -> List[str]:
        return []


class Compile:
    """Seeded small Junicon programs: a fresh interpreter per job, then
    ``load`` and the full result sequence of the entry expression."""

    name = "compile"
    clients = 1
    setup_reps = 9
    warmup_jobs = 64
    traced_jobs = 129  # one pass over the pool

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.lang import JuniconInterpreter

        from .programs import generate_pool

        self.pool = generate_pool(self.seed, per_size=16)
        self.interpreter = JuniconInterpreter

    def items(self, index: int) -> int:
        return len(self.pool[index % len(self.pool)].expected)

    def job(self, index: int) -> JobResult:
        from .programs import same_results

        program = self.pool[index % len(self.pool)]
        interp = self.interpreter(dict(program.namespace))
        interp.load(program.source)
        first, got = 0.0, []
        for value in interp.iter(program.entry):
            if not first:
                first = time.perf_counter()
            got.append(value)
        return first, same_results(got, program.expected), len(got)

    def server_stats(self) -> dict | None:
        return None

    def close(self) -> List[str]:
        return []


class ServerProcess:
    """``perfbench/server.py`` in a child process, spoken to line by line."""

    def __init__(self, kind: str, traced: bool) -> None:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "server.py"),
                   "--kind", kind]
        if traced:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        ready = self.process.stdout.readline().split()
        if len(ready) != 3 or ready[0] != "READY":
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"server did not start: {ready!r}")
        self.address = (ready[1], int(ready[2]))

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before answering {command!r}")
        return json.loads(line)

    def stop(self) -> List[str]:
        """Quit, wait, and list what the server left behind."""
        leftovers: List[str] = []
        try:
            reply = self.ask("quit")
            if reply["open_sessions"]:
                leftovers.append(f"server: {reply['open_sessions']} open sessions")
            leftovers += [f"server: leaked {name}" for name in reply["leaked"]]
            code = self.process.wait(timeout=20)
        except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
            self.process.kill()
            self.process.wait()
            return leftovers + [f"server: did not quit cleanly ({error!r})"]
        finally:
            for stream in (self.process.stdin, self.process.stdout):
                stream.close()
        if code != 0:
            leftovers.append(f"server: exit code {code}")
        return leftovers


class Remote:
    """Remote pipes against a generator server in its own process; each
    client thread streams one pipe per job."""

    clients = 2
    setup_reps = 5

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.seed = seed
        self.traced = traced
        self.server: ServerProcess | None = None

    def setup(self) -> None:
        from repro.bench.workloads import LIGHT, expected_total, generate_lines

        self.server = ServerProcess(self.kind, self.traced)
        rng = random.Random(self.seed)
        self.inputs = []
        for _ in range(self.pool_size):
            (line,) = generate_lines(1, self.words, seed=rng.randrange(2**31))
            self.inputs.append((line.split(), expected_total([line], LIGHT)))

    def items(self, index: int) -> int:
        return self.words

    def job(self, index: int) -> JobResult:
        from repro.bench.workloads import LIGHT
        from repro.coexpr import Pipe

        words, expected = self.inputs[index % len(self.inputs)]
        # int(word, 36) is LIGHT.word_to_number; built from builtins only,
        # the body unpickles on the server without importing anything.
        pipe = Pipe(
            functools.partial(map, functools.partial(int, base=36), words),
            backend="remote",
            remote_address=self.server.address,
            batch=self.batch,
            capacity=self.capacity,
        )
        pipe.start()
        if pipe.degraded is not None:
            pipe.cancel(join=True)
            raise RuntimeError(f"remote pipe degraded: {pipe.degraded}")
        first, total, count = 0.0, 0.0, 0
        for number in pipe:
            if not first:
                first = time.perf_counter()
            total += LIGHT.hash_number(number)
            count += 1
        ok = count == len(words) and math.isclose(total, expected, rel_tol=1e-9)
        return first, ok, count

    def server_stats(self) -> dict | None:
        return self.server.ask("stats")

    def server_trace(self) -> dict:
        return self.server.ask("trace")

    def close(self) -> List[str]:
        server, self.server = self.server, None
        return server.stop() if server is not None else []


class RemoteItem(Remote):
    """Threaded ``GeneratorServer``; batch 1 puts the credit-bound wire
    hop on the critical path of every item."""

    name = "remote_item"
    kind = "thread"
    batch, capacity, words, pool_size = 1, 16, 320, 32
    warmup_jobs = 6
    traced_jobs = 24


class RemoteBulk(Remote):
    """``AsyncGeneratorServer``; at batch 256 per-item credit traffic is
    negligible, and dial, spawn and the server's per-item stepping dominate.

    One client thread: two closed-loop clients settle, for a whole run,
    into one of two phase patterns (about 22 or 30 ms per job), which
    made run-to-run spread several times larger than with one client.
    """

    name = "remote_bulk"
    kind = "async"
    clients = 1
    batch, capacity, words, pool_size = 256, 1024, 2000, 16
    warmup_jobs = 20
    traced_jobs = 80


WORKLOADS = {w.name: w for w in (WordCount, Compile, RemoteItem, RemoteBulk)}


def build(name: str, seed: int, traced: bool = False) -> Any:
    workload = WORKLOADS[name]
    return workload(seed, traced) if issubclass(workload, Remote) else workload(seed)
