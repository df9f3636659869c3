"""Seeded Junicon programs with reference results computed in plain Python.

Each template writes one procedure and, from the same drawn parameters,
the exact result sequence that procedure must produce.  The reference is
computed by ordinary Python here, never by the code under test, so a
front-end or runtime change that alters a result sequence fails the
``compile`` workload.

A program is 1 to 8 procedures ``p0 .. pN``; its entry expression is the
alternation ``p0() | p1() | ...``, whose full result sequence is the
concatenation of the procedures' sequences.  Sizes and templates are
drawn stratified (every size and every template equally often in a
pool), and every template has a fixed shape, so two seeds give pools of
the same cost; only the values and the order change.

The Figure 3/4 word-count program (``repro.bench.embedded``) is added to
every pool, bound to a small seeded corpus.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

#: One template: (rng, procedure name) -> (Junicon source, expected results).
Template = Callable[[random.Random, str], Tuple[str, List[Any]]]


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(4))


# Every template yields a fixed number of results from a fixed shape; the
# seed draws only the values.  So two seeds cost the same to compile and
# run, and the run-to-run spread of the workload is not a property of the
# seed.


def every_to_by(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    start, step, k = rng.randint(-5, 5), rng.randint(1, 4), rng.randint(2, 9)
    stop = start + step * 7
    source = (
        f"def {name}() {{ local i; every i := {start} to {stop} by {step} "
        f"do suspend i * {k}; }}"
    )
    return source, [i * k for i in range(start, stop + 1, step)]


def alternation(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    values: List[Any] = [
        rng.randint(0, 99) if rng.random() < 0.5 else _word(rng) for _ in range(5)
    ]
    terms = " | ".join(str(v) if isinstance(v, int) else f'"{v}"' for v in values)
    return f"def {name}() {{ suspend {terms}; }}", values


def product(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    b, k = rng.randint(1, 6), rng.randint(0, 9)
    source = (
        f"def {name}() {{ local x; suspend (1 to 3) * ({b} to {b + 2}) | "
        f"((x := {3 * k} to {3 * k + 11}) & x % 3 == 0 & x); }}"
    )
    expected = [x * y for x in range(1, 4) for y in range(b, b + 3)]
    expected += [x for x in range(3 * k, 3 * k + 12) if x % 3 == 0]
    return source, expected


def limitation(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    low, other = rng.randint(0, 20), rng.randint(30, 40)
    high = low + rng.randint(2, 10)
    source = (
        f"def {name}() {{ suspend (({low} to {high}) | "
        f"({other} to {other + 20})) \\ 5; }}"
    )
    stream = list(range(low, high + 1)) + list(range(other, other + 21))
    return source, stream[:5]


def first_class(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    start, step = rng.randint(1, 9), rng.randint(1, 5)
    stop = start + step * 5
    source = (
        f"def {name}() {{ local c; c = <> ({start} to {stop} by {step}); "
        f"suspend @c | @c | @c; }}"
    )
    return source, list(range(start, stop + 1, step))[:3]


def refreshable(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    start = rng.randint(0, 9)
    source = (
        f"def {name}() {{ local c, d; c = |<> ({start} to {start + 4}); "
        f"@c; d = ^c; suspend @c | @d; }}"
    )
    return source, [start + 1, start]


def promote(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    items: List[Any] = [rng.randint(0, 50) for _ in range(4)]
    word = _word(rng)
    listing = ", ".join(str(v) for v in items)
    source = f'def {name}() {{ suspend ! [{listing}] | ! "{word}"; }}'
    return source, items + list(word)


def pipe(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    start, k = rng.randint(0, 9), rng.randint(2, 5)
    source = f"def {name}() {{ suspend {k} * ! |> ({start} to {start + 9}); }}"
    return source, [k * i for i in range(start, start + 10)]


def native_invoke(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    words = [_word(rng) for _ in range(4)]
    text = " ".join(words)
    source = (
        f'def {name}() {{ suspend ! "{text}"::split() | '
        f'"{words[0]}"::upper(); }}'
    )
    return source, words + [words[0].upper()]


def record_fields(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    a, b = rng.randint(1, 30), rng.randint(1, 30)
    source = (
        f"record {name}r(a, b)\n"
        f"def {name}() {{ local r; r = {name}r({a}, {b}); "
        f"suspend r.a + r.b | r.a * r.b; }}"
    )
    return source, [a + b, a * b]


def class_methods(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    base = rng.randint(0, 20)
    source = (
        f"class {name}c(total) {{\n"
        f"    def add(x) {{ total := total + x; return total; }}\n"
        f"}}\n"
        f"def {name}() {{ local a, k; a = {name}c({base}); "
        f"every k := 1 to 4 do suspend a.add(k); }}"
    )
    expected, total = [], base
    for k in range(1, 5):
        total += k
        expected.append(total)
    return source, expected


def scanning(rng: random.Random, name: str) -> Tuple[str, List[Any]]:
    parts = []
    for _ in range(4):
        parts.append(_word(rng))
        parts.append(rng.choice([" ", ", ", "; ", " - "]))
    text = "".join(parts).strip()
    source = (
        f'def {name}() {{ local s; s = "{text}"; '
        f"s ? while tab(upto(&letters)) do "
        f"suspend tab(many(&letters)) \\ 1; }}"
    )
    return source, re.findall("[A-Za-z]+", text)


TEMPLATES: Tuple[Template, ...] = (
    every_to_by,
    alternation,
    product,
    limitation,
    first_class,
    refreshable,
    promote,
    pipe,
    native_invoke,
    record_fields,
    class_methods,
    scanning,
)

MAX_PROCEDURES = 8


@dataclass
class Program:
    """One compile job: source, entry expression, reference results."""

    source: str
    entry: str
    expected: List[Any]
    procedures: int
    namespace: Dict[str, Any] = field(default_factory=dict)


def figure_program(rng: random.Random) -> Program:
    """The paper's Figure 3/4 program over a small seeded corpus."""
    from repro.bench.embedded import JUNICON_PROGRAM
    from repro.bench.workloads import LIGHT, generate_lines

    lines = generate_lines(4, 5, seed=rng.randrange(2**31))
    hashes = [
        LIGHT.hash_number(LIGHT.word_to_number(word))
        for line in lines
        for word in line.split()
    ]
    namespace = {
        "LINES": lines,
        "WORD_TO_NUMBER": LIGHT.word_to_number,
        "HASH_NUMBER": LIGHT.hash_number,
        "CHUNK_SIZE": 8,
    }
    procedures = JUNICON_PROGRAM.count("\ndef ")
    return Program(
        JUNICON_PROGRAM, "seqGen() | pipeGen()", hashes * 2, procedures, namespace
    )


def generate_pool(seed: int, per_size: int = 6) -> List[Program]:
    """``per_size`` programs of every size 1..8, plus the Figure 3/4 program,
    in a seeded order."""
    rng = random.Random(seed)
    sizes = [size for size in range(1, MAX_PROCEDURES + 1) for _ in range(per_size)]
    deck: List[Template] = []
    pool = []
    for size in sizes:
        sources, expected = [], []
        for index in range(size):
            if not deck:
                deck = list(TEMPLATES)
                rng.shuffle(deck)
            source, values = deck.pop()(rng, f"p{index}")
            sources.append(source)
            expected.extend(values)
        entry = " | ".join(f"p{index}()" for index in range(size))
        pool.append(Program("\n".join(sources) + "\n", entry, expected, size))
    pool.append(figure_program(rng))
    rng.shuffle(pool)
    return pool


def same_results(got: List[Any], expected: List[Any]) -> bool:
    """Exact comparison, with floats compared to 1e-9 relative."""
    if len(got) != len(expected):
        return False
    for value, want in zip(got, expected):
        if isinstance(want, float):
            if not isinstance(value, float) or not math.isclose(
                value, want, rel_tol=1e-9
            ):
                return False
        elif type(value) is not type(want) or value != want:
            return False
    return True
