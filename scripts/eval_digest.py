#!/usr/bin/env python3
"""One digest over a fixed corpus of evaluations, so that a change to the
evaluator can be checked to give every matrix it gave before.

For each seed, draws a random automaton and a random T-automaton with the
generators of tests/util.py, then a random open diagram for each (its
endpoints labelled by that machine's states or points), a random closed
diagram with and one without foam vertices, and a circle and an interval
of a random word.  Every diagram is evaluated on the automaton over BOOL
and NAT and on the T-automaton over BOOL.  Prints the number of matrices,
the refusals counted by error type, and one sha256 over every matrix's
ring, shape and entries in corpus order.  Nothing depends on set order, so
the output is the same under every PYTHONHASHSEED.
Usage: eval_digest.py [seeds]   (seeds 0..seeds-1, 500 by default)
"""

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from autcob import eval_nfa, eval_tautomaton  # noqa: E402
from autcob.diagrams import circle_diagram, interval_diagram  # noqa: E402
from autcob.errors import CapacityError  # noqa: E402
from autcob.semiring import BOOL, NAT  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from util import (  # noqa: E402
    random_closed_diagram,
    random_diagram,
    random_nfa,
    random_tautomaton,
)

LETTERS = ("a", "b")


def corpus(seed):
    """The automaton, the T-automaton and the diagrams of one seed."""
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=4, alphabet=LETTERS)
    taut = random_tautomaton(rng, max_points=4, alphabet=LETTERS)
    w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 8)))
    diagrams = [
        random_diagram(rng, letters=LETTERS, max_width=3, labels=nfa.states),
        random_diagram(rng, letters=LETTERS, max_width=3, foam=True,
                       labels=taut.space.points),
        random_closed_diagram(rng, letters=LETTERS, foam=False, endpoints=True),
        random_closed_diagram(rng, letters=LETTERS, foam=True),
        circle_diagram(w),
        interval_diagram(w),
    ]
    return nfa, taut, diagrams


def main(seeds=500):
    digest, matrices, refused = hashlib.sha256(), 0, Counter()
    for seed in range(seeds):
        nfa, taut, diagrams = corpus(seed)
        runs = ((BOOL, lambda d: eval_nfa(nfa, d, BOOL)),
                (NAT, lambda d: eval_nfa(nfa, d, NAT)),
                (BOOL, lambda d: eval_tautomaton(taut, d)))
        for d in diagrams:
            for ring, run in runs:
                try:
                    m = run(d).matrix
                except (CapacityError, KeyError, ValueError) as e:
                    refused[type(e).__name__] += 1
                    continue
                matrices += 1
                entries = ",".join(map(str, m.entries))
                digest.update(f"{ring.name} {m.rows}x{m.cols} {entries}\n".encode())
    print(f"seeds {seeds}")
    print(f"matrices {matrices}")
    for kind, count in sorted(refused.items()):
        print(f"refused {kind} {count}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:2]))
