"""Cross-checks of the benchmark's references against autcob.oracle and
brute force, on automata of at most 8 states and words of length at most 8.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from autcob import NAT, Nfa  # noqa: E402
from autcob.oracle import chain_map_sum, circle_map_sum  # noqa: E402

SEEDS = range(40)


def small_nfa(rng, n=None, letters="ab"):
    n = n or rng.randint(1, 8)
    states = [f"q{i}" for i in range(n)]
    return {
        "states": states,
        "alphabet": list(letters),
        "transitions": [
            {"from": q, "letter": a, "to": r}
            for q in states for a in letters for r in states if rng.random() < 0.3
        ],
        "initial": [q for q in states if rng.random() < 0.4],
        "accepting": [q for q in states if rng.random() < 0.4],
    }


def to_nfa(aut, initial=None, accepting=None) -> Nfa:
    return Nfa.make(
        aut["states"], aut["alphabet"],
        [(t["from"], t["letter"], t["to"]) for t in aut["transitions"]],
        aut["initial"] if initial is None else initial,
        aut["accepting"] if accepting is None else accepting,
    )


def cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        aut = small_nfa(rng)
        yield rng, aut, workloads.word(rng, rng.randint(0, 8))


def test_subset_simulation_matches_chain_maps():
    for _, aut, w in cases():
        assert refs.accepts(aut, w) == bool(chain_map_sum(to_nfa(aut), w))


def test_closed_walks_match_circle_maps():
    for _, aut, w in cases():
        if not w:
            continue  # the bare circle is the rank, not a walk
        nfa = to_nfa(aut)
        assert refs.closed_walk_exists(aut, w) == bool(circle_map_sum(nfa, w))
        assert refs.closed_walk_count(aut, w) == circle_map_sum(nfa, w, NAT)


def test_path_counts_match_chain_maps():
    for _, aut, w in cases():
        counts = refs.path_counts(aut, w)
        n = len(aut["states"])
        for i, q in enumerate(aut["states"]):
            for j, r in enumerate(aut["states"]):
                nfa = to_nfa(aut, [q], [r])
                assert counts[i * n + j] == chain_map_sum(nfa, w, NAT)


def test_through_subset_matches_circle_maps_without_the_marked_states():
    for rng, aut, w in cases():
        if not w:
            continue
        marked = [q for q in aut["states"] if rng.random() < 0.3]
        rest = [q for q in aut["states"] if q not in marked]
        avoiding = {
            **aut,
            "states": rest,
            "transitions": [t for t in aut["transitions"]
                            if t["from"] in rest and t["to"] in rest],
            "initial": [], "accepting": [],
        }
        total = circle_map_sum(to_nfa(aut), w, NAT)
        without = circle_map_sum(to_nfa(avoiding), w, NAT) if rest else 0
        assert refs.through_subset(aut, marked, w) == (total > without)


def test_open_diagram_matches_chain_maps_per_strand():
    # the workload's shape: wire 0 reads x1 x2 and ends on wire 1, wire 1
    # crosses to wire 0, wire 2 (a '-' wire) reads y1 y2 downwards
    for seed in SEEDS:
        rng = random.Random(seed)
        aut = small_nfa(rng, rng.randint(1, 4))
        x1, y1, x2, y2 = (rng.choice("ab") for _ in range(4))
        slices = [
            [("dot", x1, "+"), ("id", "+"), ("dot", y1, "-")],
            [("swap",), ("id", "-")],
            [("id", "+"), ("dot", x2, "+"), ("dot", y2, "-")],
        ]
        got = refs.open_diagram_matrix(aut, slices, 3)
        states = aut["states"]
        n = len(states)

        def path(p, q, w):
            return bool(chain_map_sum(to_nfa(aut, [p], [q]), w))

        for (i, ii) in enumerate(itertools.product(states, repeat=3)):
            for (o, oo) in enumerate(itertools.product(states, repeat=3)):
                want = (oo[0] == ii[1] and path(ii[0], oo[1], x1 + x2)
                        and path(oo[2], ii[2], y2 + y1))
                assert got[o * n ** 3 + i] == int(want)


def test_trim_core_matches_the_definition():
    for rng, aut, _ in cases():
        edges = {(t["from"], t["to"]) for t in aut["transitions"]}

        def closure(seeds, step):
            seen = set(seeds)
            while True:
                grow = {b for a, b in step if a in seen} - seen
                if not grow:
                    return seen
                seen |= grow

        flipped = {(b, a) for a, b in edges}
        want = closure(aut["initial"], edges) & closure(aut["accepting"], flipped)
        want |= {q for q in aut["states"]
                 if q in closure({b for a, b in edges if a == q}, edges)}
        if not want:
            want = {aut["states"][0]}
        assert refs.trim_core(aut) == want


def _brute_foam(taut, a, b, c, d):
    """unit ; dot(a)+ ; split ; dot(b)+ dot(c)+ ; merge ; dot(d)+ ; counit,
    one generator at a time on sets of basis points and pairs."""
    u = {x: set(v) for x, v in taut["min_open"].items()}
    t = {k: {x: set(v) for x, v in img.items()} for k, img in taut["letters"].items()}

    def dot(k, members):
        return {y for x in members for y in t[k][x]}

    s = dot(a, set(taut["points"]))
    pairs = {(p, q) for x in s for z in u[x] for p in u[z] for q in u[z]}
    pairs = {(p2, q2) for p, q in pairs for p2 in t[b][p] for q2 in t[c][q]}
    merged = {z for p, q in pairs for z in u[p] & u[q]}
    return int(bool(dot(d, merged)))


def test_foam_reduced_form_matches_brute_force():
    for seed in SEEDS:
        rng = random.Random(seed)
        taut = workloads.random_tautomaton(rng, rng.randint(1, 5))
        letters = [rng.choice("abcd") for _ in range(4)]
        assert refs.foam_value(taut, *letters) == _brute_foam(taut, *letters)


def test_split_then_merge_is_the_idempotent():
    for seed in SEEDS:
        taut = workloads.random_tautomaton(random.Random(seed), 5)
        u = taut["min_open"]
        pts = taut["points"]
        # split(e_x) = sum over z in U_x of U_z (x) U_z; merge intersects
        col = {x: {w for z in u[x] for w in u[z]} for x in pts}
        assert refs.idempotent(taut) == tuple(int(y in col[x]) for y in pts for x in pts)


def test_pools_repeat_for_a_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.make_pool(random.Random(7)) == wl.make_pool(random.Random(7))


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    def counts():
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"]
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith((".calls", "entries"))}

    assert counts() == counts()
