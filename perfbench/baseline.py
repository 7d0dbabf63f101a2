#!/usr/bin/env python3
"""Reference figures for the ROADMAP's baseline table, timed with the same
clock as the benchmark (``time.perf_counter`` around each call, median of
the repeats).  Run from the root of a checkout:

    python3 perfbench/baseline.py

Automata come from the benchmark's generator, seeded with SEED: every state
has two distinct successors on each of the letters a and b.  Prints one
line per cell; the whole table takes about 35 s.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from autcob import (  # noqa: E402
    NAT,
    Nfa,
    circle_diagram,
    cyclic_cover,
    eval_nfa,
    fiber_projection,
    interval_diagram,
    is_covering,
    parse_diagram,
)

WORD = "ab" * 10
SEED = 1


def timed_ms(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000


def nfa(rng, n) -> Nfa:
    return Nfa.from_json_dict(workloads.random_nfa(rng, n, "q"))


def graph(rng, n) -> Nfa:
    live = n * 8 // 10
    return Nfa.from_json_dict(workloads.graph_nfa(rng, live, (n - live) // 2,
                                                  n - live - (n - live) // 2))


def width_diagram(w):
    """Three slices on w '+' wires: a dot on the first wire, ids elsewhere."""
    return parse_diagram(" ; ".join(["dot(a)+ " + " ".join(["id+"] * (w - 1))] * 3))


def covering_check(rng, n):
    base = graph(rng, n)
    cover = cyclic_cover(base, list(base.states), 2)
    return partial(is_covering, fiber_projection(cover, base), cover, base)


# (label, n, make(rng, n) -> call, repeats).
CELLS = [
    *[("Nfa.trace_eval('ab'*10)", n,
       lambda r, n: partial(nfa(r, n).trace_eval, WORD), 3)
      for n in (8, 32, 128, 256)],
    *[("eval_nfa(circle_diagram('ab'*10))", n,
       lambda r, n: partial(eval_nfa, nfa(r, n), circle_diagram(WORD)), 1)
      for n in (8, 32)],
    *[("eval_nfa(interval_diagram('ab'*10))", n,
       lambda r, n: partial(eval_nfa, nfa(r, n), interval_diagram(WORD)), 3)
      for n in (8, 32, 128, 256)],
    *[("Nfa.word_matrix('ab'*10, NAT)", n,
       lambda r, n: partial(nfa(r, n).word_matrix, WORD, NAT), 1)
      for n in (8, 32, 128)],
    *[(f"3-slice diagram, width {w}", 8,
       lambda r, n, w=w: partial(eval_nfa, nfa(r, n), width_diagram(w)), 1)
      for w in (2, 3, 4)],
    *[("Nfa.trim()", n, lambda r, n: partial(graph(r, n).trim), 1)
      for n in (64, 256, 512)],
    ("is_covering, 2-fold cyclic cover", 512, covering_check, 1),
]


def main() -> int:
    for label, n, make, repeats in CELLS:
        call = make(random.Random(SEED), n)
        print(f"{label:40s} n={n:<4d} {timed_ms(call, repeats):10.1f} ms"
              f"  (median of {repeats})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
