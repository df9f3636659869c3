"""Checks of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.programs import MAX_PROCEDURES, TEMPLATES, generate_pool, same_results  # noqa: E402

with open(os.path.join(ROOT, "perfbench", "layers.json")) as _layers:
    COUNT_METRICS = json.load(_layers)["count_metrics"]


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class TestPrograms:
    def test_pool_depends_only_on_seed(self):
        first = [(p.source, p.entry) for p in generate_pool(7)]
        assert first == [(p.source, p.entry) for p in generate_pool(7)]
        assert first != [(p.source, p.entry) for p in generate_pool(8)]

    def test_pool_is_stratified(self):
        for seed in (1, 2):
            pool = generate_pool(seed, per_size=6)
            generated = [p for p in pool if not p.namespace]
            sizes = sorted(p.procedures for p in generated)
            assert sizes == sorted(list(range(1, MAX_PROCEDURES + 1)) * 6)
            assert len(pool) == len(generated) + 1  # plus the Figure 3/4 program

    def test_templates_cover_the_constructs(self):
        sources = "\n".join(t(__import__("random").Random(0), "p")[0] for t in TEMPLATES)
        for construct in ("every", "suspend", " by ", " | ", " * ", "\\", "<>",
                          "|<>", "@", "!", "|>", "::", "record", "class", "?"):
            assert construct in sources, construct

    def test_references_match_the_interpreter(self):
        from repro.lang import JuniconInterpreter

        for program in generate_pool(3):
            interp = JuniconInterpreter(dict(program.namespace))
            interp.load(program.source)
            assert same_results(interp.results(program.entry), program.expected), (
                program.source
            )

    def test_same_results_is_strict(self):
        assert same_results([1, "a", 0.5], [1, "a", 0.5 + 1e-12])
        assert not same_results([1], [1.0])
        assert not same_results([1, 2], [1])
        assert not same_results(["a"], ["b"])


@pytest.mark.parametrize("workload", ["wordcount", "compile", "remote_item", "remote_bulk"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        done = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                         "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        per_layer = {m["name"]: m["unit"] for m in json.load(spec)["per_layer"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    first, second = (
        {name: r["metrics"][name]["value"] for name in COUNT_METRICS} for r in results
    )
    assert first == second


def test_end_to_end_metrics_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        benchmark = json.load(spec)
    done = run_bench("--workload", "compile", "--seed", "1", "--seconds", "0.5",
                     "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = run_bench("--workload", "wordcount", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
