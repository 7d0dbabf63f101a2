import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.automaton import Nfa, disjoint_union
from autcob.covers import (
    GraphMap,
    cyclic_cover,
    fiber_projection,
    is_covering,
    is_weak_covering,
    voltage_cover,
)
from util import (
    A2,
    TWO_CYCLE,
    all_words,
    random_nfa,
    reference_graph_map_ok,
    reference_is_covering,
    reference_is_weak_covering,
)

seeds = st.integers(0, 10**6)


def random_voltages(rng, nfa, n):
    return {
        e: tuple(rng.sample(range(n), n)) for e in nfa.delta
    }


# -- cyclic covers ---------------------------------------------------------------


def test_cyclic_cover_order_one_is_a_renaming():
    c = cyclic_cover(A2, ["q1", "q2"], 1)
    assert c == A2.renamed(lambda q: f"{q}@0")


def test_cyclic_cover_of_two_cycle():
    c3 = cyclic_cover(TWO_CYCLE, ["s0", "s1"], 3)
    assert len(c3.states) == 6
    # interval language survives, trace thins to every sixth power
    for k in range(13):
        assert c3.interval_eval("a" * k) == TWO_CYCLE.interval_eval("a" * k)
        assert c3.trace_eval("a" * k) == (k % 6 == 0)


def test_cyclic_cover_a2_windings():
    c2 = cyclic_cover(A2, ["q1", "q2"], 2)
    assert A2.trace_eval("aa") is True
    assert c2.trace_eval("aa") is False  # one full rotation, odd fiber shift
    assert c2.trace_eval("aba") is True  # two rotations close up
    assert c2.trace_eval("") is True


def test_cyclic_cover_validation():
    with pytest.raises(ValueError):
        cyclic_cover(A2, ["q1"], 2)
    with pytest.raises(ValueError):
        cyclic_cover(A2, ["q1", "q1"], 2)
    with pytest.raises(ValueError):
        cyclic_cover(A2, ["q1", "q2"], 0)


def _cyclic_cover_by_edges(nfa, order, n):
    """The cyclic cover written out edge by edge: q@k -> r@(k + wind) mod n."""
    pos = {q: i for i, q in enumerate(order)}
    return Nfa.make(
        [f"{q}@{k}" for q in nfa.states for k in range(n)],
        nfa.alphabet,
        [(f"{q}@{k}", a, f"{r}@{(k + (pos[r] <= pos[q])) % n}")
         for q, a, r in nfa.delta for k in range(n)],
        [f"{q}@{k}" for q in nfa.initial for k in range(n)],
        [f"{q}@{k}" for q in nfa.accepting for k in range(n)],
    )


def test_cyclic_cover_matches_the_edge_by_edge_construction():
    rng = random.Random(300)
    for _ in range(300):
        nfa = random_nfa(rng, max_states=4)
        order = list(nfa.states)
        rng.shuffle(order)
        n = rng.randint(1, 4)
        assert cyclic_cover(nfa, order, n) == _cyclic_cover_by_edges(nfa, order, n)


def test_cyclic_cover_projection_is_a_covering():
    for n in (1, 2, 3):
        cover = cyclic_cover(A2, ["q2", "q1"], n)
        p = fiber_projection(cover, A2)
        assert is_covering(p, cover, A2) is True
        assert is_weak_covering(p, cover, A2) is True


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(1, 3))
def test_cyclic_cover_short_trace_words_vanish(seed, n):
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=4)
    order = list(nfa.states)
    rng.shuffle(order)
    cover = cyclic_cover(nfa, order, n)
    for w in all_words(nfa.alphabet, n - 1):
        if w:
            assert cover.trace_eval(w) is False
    assert {w for w in cover.trace_language(6)} <= nfa.trace_language(6)
    assert cover.interval_language(6) == nfa.interval_language(6)


# -- voltage covers -----------------------------------------------------------------


def test_identity_voltages_give_disjoint_copies():
    n = 2
    voltages = {e: tuple(range(n)) for e in A2.delta}
    cover = voltage_cover(A2, n, voltages)
    doubled = disjoint_union(A2, A2)
    assert len(cover.states) == len(doubled.states)
    for w in all_words(("a", "b"), 5):
        assert cover.interval_eval(w) == A2.interval_eval(w)
        assert cover.trace_eval(w) == A2.trace_eval(w)


def test_cyclic_voltages_reproduce_cyclic_cover():
    order = ["q1", "q2"]
    pos = {q: i for i, q in enumerate(order)}
    n = 3
    voltages = {}
    for q, a, r in A2.delta:
        w = 1 if pos[r] <= pos[q] else 0
        voltages[(q, a, r)] = tuple((k + w) % n for k in range(n))
    assert voltage_cover(A2, n, voltages) == cyclic_cover(A2, order, n)


def test_voltage_validation():
    with pytest.raises(ValueError, match="permutation"):
        voltage_cover(A2, 2, {e: (0, 0) for e in A2.delta})
    with pytest.raises(ValueError, match="no voltage"):
        voltage_cover(A2, 2, {})


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 3))
def test_random_voltage_cover_is_a_covering(seed, n):
    rng = random.Random(seed)
    nfa = random_nfa(rng)
    cover = voltage_cover(nfa, n, random_voltages(rng, nfa, n))
    p = fiber_projection(cover, nfa)
    assert is_covering(p, cover, nfa) is True


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 3))
def test_voltage_cover_language_invariants(seed, n):
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=4)
    cover = voltage_cover(nfa, n, random_voltages(rng, nfa, n))
    assert cover.interval_language(6) == nfa.interval_language(6)
    assert cover.trace_language(6) <= nfa.trace_language(6)


# -- covering checks ------------------------------------------------------------------


def test_identity_map_is_a_covering():
    p = GraphMap.from_vertex_map(A2, A2, {q: q for q in A2.states})
    assert is_covering(p, A2, A2) is True
    assert is_weak_covering(p, A2, A2) is True


def test_collapse_of_disjoint_double_copy_is_a_covering():
    doubled = disjoint_union(A2, A2)
    p = GraphMap.from_vertex_map(doubled, A2, {q: q[:-2] for q in doubled.states})
    assert is_covering(p, doubled, A2) is True


def weak_cover_with_uneven_fibers():
    """Three states over q1, two over q2; out-edges lift, in-edges pile up."""
    cover = Nfa.make(
        [f"q1@{i}" for i in range(3)] + [f"q2@{i}" for i in range(2)],
        ["a", "b"],
        [
            ("q1@0", "a", "q2@0"),
            ("q1@1", "a", "q2@0"),
            ("q1@2", "a", "q2@1"),
            ("q2@0", "a", "q1@0"),
            ("q2@1", "a", "q1@2"),
            ("q2@0", "b", "q2@1"),
            ("q2@1", "b", "q2@0"),
        ],
        ["q1@0", "q1@1", "q1@2"],
        ["q2@0", "q2@1"],
    )
    base = Nfa.make(
        ["q1", "q2"],
        ["a", "b"],
        [("q1", "a", "q2"), ("q2", "a", "q1"), ("q2", "b", "q2")],
        ["q1"],
        ["q2"],
    )
    return cover, base


def test_weak_covering_with_uneven_fibers():
    cover, base = weak_cover_with_uneven_fibers()
    p = fiber_projection(cover, base)
    assert is_weak_covering(p, cover, base) is True
    assert is_covering(p, cover, base) is False  # two a-edges land on q2@0
    for w in all_words(("a", "b"), 8):
        assert cover.interval_eval(w) == base.interval_eval(w)
        if cover.trace_eval(w):
            assert base.trace_eval(w)


def random_weak_cover(rng, base, max_fiber=2):
    """Inflate every state into a nonempty fiber and give every fiber copy
    one lift of each base out-edge; the projection is weak by construction."""
    fibers = {q: rng.randint(1, max_fiber) for q in base.states}
    states = [f"{q}@{i}" for q in base.states for i in range(fibers[q])]
    delta = []
    for q, a, r in base.delta:
        for i in range(fibers[q]):
            delta.append((f"{q}@{i}", a, f"{r}@{rng.randrange(fibers[r])}"))
    return Nfa.make(
        states,
        base.alphabet,
        delta,
        [f"{q}@{i}" for q in base.initial for i in range(fibers[q])],
        [f"{q}@{i}" for q in base.accepting for i in range(fibers[q])],
    )


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_random_weak_covers_keep_interval_and_shrink_trace(seed):
    rng = random.Random(seed)
    base = random_nfa(rng, max_states=3)
    cover = random_weak_cover(rng, base)
    p = fiber_projection(cover, base)
    assert is_weak_covering(p, cover, base) is True
    assert cover.interval_language(8) == base.interval_language(8)
    assert cover.trace_language(8) <= base.trace_language(8)


def test_weak_covering_requires_decoration_preimages():
    cover, base = weak_cover_with_uneven_fibers()
    broken = Nfa.make(
        cover.states, cover.alphabet, cover.delta, set(cover.initial) - {"q1@2"},
        cover.accepting,
    )
    p = fiber_projection(broken, base)
    assert is_weak_covering(p, broken, base) is False


def test_weak_covering_requires_surjectivity():
    sub = Nfa.make(["q1"], ["a", "b"], [], ["q1"], [])
    p = GraphMap.from_vertex_map(sub, A2, {"q1": "q1"})
    assert is_weak_covering(p, sub, A2) is False


def test_non_total_map_raises():
    p = GraphMap({"q1@0": "q1"}, {})
    cover = cyclic_cover(A2, ["q1", "q2"], 1)
    with pytest.raises(ValueError, match="total"):
        is_covering(p, cover, A2)


STRAY_BASE = Nfa.make(["a", "b"], ["x"], [("a", "x", "a")], ["b"], ["b"])
STRAY_COVER = Nfa.make(["a0"], ["x"], [("a0", "x", "a0")], [], [])


def test_a_vertex_map_key_that_names_no_cover_state_raises():
    # "junk" would make the map look onto the base, yet the base accepts
    # the empty word and the cover does not
    assert STRAY_BASE.interval_eval(()) and not STRAY_COVER.interval_eval(())
    p = GraphMap.from_vertex_map(STRAY_COVER, STRAY_BASE, {"a0": "a", "junk": "b"})
    for check in (is_covering, is_weak_covering):
        with pytest.raises(ValueError, match=r"no cover state: \['junk'\]"):
            check(p, STRAY_COVER, STRAY_BASE)


def test_label_mismatch_fails_structure():
    base = Nfa.make(["q"], ["a", "b"], [("q", "a", "q"), ("q", "b", "q")], [], [])
    cover = Nfa.make(["q@0"], ["a", "b"], [("q@0", "a", "q@0")], [], [])
    p = GraphMap({"q@0": "q"}, {("q@0", "a", "q@0"): ("q", "b", "q")})
    assert is_weak_covering(p, cover, base) is False


# -- the indexed checks against the delta-scanning references ---------------------


def random_cover(rng, kind):
    """A random base and a voltage or weak cover of it, as (cover, base)."""
    base = random_nfa(rng, max_states=4)
    if kind == "voltage":
        n = rng.randint(1, 3)
        return voltage_cover(base, n, random_voltages(rng, base, n)), base
    return random_weak_cover(rng, base), base


def assert_checks_match_references(cover, base):
    p = fiber_projection(cover, base)
    assert is_covering(p, cover, base) == reference_is_covering(p, cover, base)
    assert is_weak_covering(p, cover, base) == reference_is_weak_covering(
        p, cover, base
    )


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["voltage", "weak"]))
def test_covering_checks_match_references(seed, kind):
    cover, base = random_cover(random.Random(seed), kind)
    assert_checks_match_references(cover, base)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["voltage", "weak"]))
def test_covering_checks_match_references_with_an_edge_dropped(seed, kind):
    rng = random.Random(seed)
    cover, base = random_cover(rng, kind)
    if not cover.delta:
        return
    dropped = rng.choice(sorted(cover.delta))
    broken = Nfa.make(
        cover.states, cover.alphabet, cover.delta - {dropped}, cover.initial,
        cover.accepting,
    )
    assert_checks_match_references(broken, base)
    p = fiber_projection(broken, base)
    assert reference_graph_map_ok(p, broken, base)
    # both kinds give each point of a fiber exactly one lift of each base
    # out-edge, so the dropped edge was the only lift at its source
    assert is_weak_covering(p, broken, base) is False
    assert is_covering(p, broken, base) is False
