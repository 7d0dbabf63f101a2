#!/usr/bin/env python3
"""Exhaustive foam-law check over small open-set lattices.

Enumerates every minimal finite space up to a given point count (one per
homeomorphism class), evaluates both sides of every law in the foam-law
table of tests/util.py (algebra, coalgebra, split-merge and duality) on
each, and samples random closed foams, which must all evaluate to 1.  Usage: foam_check.py [max_points] [foams_per_space]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from autcob import TAutomaton, eval_tautomaton, minimal_spaces  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from util import FOAM_DUALITY, FOAM_LAWS, random_closed_diagram  # noqa: E402


def ev(space, diagram):
    return eval_tautomaton(TAutomaton.bare(space), diagram).matrix


def main(max_points=4, foams_per_space=10):
    rng = random.Random(0)
    spaces = [s for n in range(1, max_points + 1) for s in minimal_spaces(n)]
    print(f"{len(spaces)} spaces with at most {max_points} points")
    for name, pairs in FOAM_LAWS.items():
        bad = [s for s in spaces if any(ev(s, l) != ev(s, r) for l, r in pairs)]
        print(f"  {name:16s} {'ok' if not bad else f'FAILS on {len(bad)} spaces'}")
    bad = [
        s for s in spaces if any(ev(s, l) != ev(s.dual(), r) for l, r in FOAM_DUALITY)
    ]
    print(f"  {'duality':16s} {'ok' if not bad else f'FAILS on {len(bad)} spaces'}")
    closed_ok = 0
    total = 0
    for space in spaces:
        for _ in range(foams_per_space):
            foam = random_closed_diagram(rng, foam=True, endpoints=False)
            total += 1
            closed_ok += eval_tautomaton(TAutomaton.bare(space), foam).scalar()
    print(f"  closed foams     {closed_ok}/{total} evaluate to 1")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
