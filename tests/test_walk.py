"""The subset walk against references that never walk: ordered products of
letter matrices for automata, composed endomorphisms for T-automata."""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.automaton import Nfa, rotations
from autcob.semiring import BOOL, NAT
from autcob.topology import Endo, FinTop, TAutomaton, discrete
from util import SIERPINSKI, all_words, dense_word_matrix, random_nfa, random_tautomaton

seeds = st.integers(0, 10**6)
densities = st.floats(0.1, 0.9)
words = st.lists(st.sampled_from("ab"), max_size=6).map(tuple)


def _nfa(seed, density):
    return random_nfa(random.Random(seed), max_states=6, density=density)


def _closed_at(m, i) -> bool:
    return m.entries[i * m.cols + i] != 0


def _dense_trace(nfa, w) -> bool:
    m = dense_word_matrix(nfa, w)
    return any(_closed_at(m, i) for i in range(len(nfa.states)))


@settings(max_examples=60, deadline=None)
@given(seeds, densities, words)
def test_word_matrix_is_the_dense_product(seed, density, w):
    nfa = _nfa(seed, density)
    for ring in (BOOL, NAT):
        assert nfa.word_matrix(w, ring) == dense_word_matrix(nfa, w, ring)


@settings(max_examples=60, deadline=None)
@given(seeds, densities, words)
def test_interval_and_trace_eval_read_the_dense_product(seed, density, w):
    nfa = _nfa(seed, density)
    m = dense_word_matrix(nfa, w)
    idx = {q: i for i, q in enumerate(nfa.states)}
    accepted = any(
        m[idx[q], idx[r]] for q in nfa.initial for r in nfa.accepting
    )
    assert nfa.interval_eval(w) == accepted
    assert nfa.trace_eval(w) == _dense_trace(nfa, w)


@settings(max_examples=60, deadline=None)
@given(seeds, densities, words, st.data())
def test_circular_through_subset_reads_the_dense_rotations(seed, density, w, data):
    nfa = _nfa(seed, density)
    marked = data.draw(st.sets(st.sampled_from(nfa.states)))
    idx = {q: i for i, q in enumerate(nfa.states)}
    want = any(
        _closed_at(dense_word_matrix(nfa, rot), idx[q])
        for rot in rotations(w)
        for q in marked
    )
    assert nfa.circular_through_subset(marked, w) == want


@settings(max_examples=20, deadline=None)
@given(seeds, densities)
def test_trace_language_reads_the_dense_traces(seed, density):
    nfa = _nfa(seed, density)
    want = {w for w in all_words(nfa.alphabet, 6) if _dense_trace(nfa, w)}
    assert nfa.trace_language(6) == want


def _non_discrete_tautomaton(seed):
    rng = random.Random(seed)
    while True:
        taut = random_tautomaton(rng, max_points=5)
        if any(len(u) > 1 for u in taut.space.min_open.values()):
            return taut


@settings(max_examples=60, deadline=None)
@given(seeds, words)
def test_tautomaton_walk_is_the_composed_endomorphism(seed, w):
    taut = _non_discrete_tautomaton(seed)
    composed = Endo.identity(taut.space)
    for a in w:
        composed = composed.then(taut.letters[a])
    assert taut.trace_eval(w) == composed.trace()
    reached = composed.apply(taut.initial_open)
    assert taut.interval_eval(w) == bool(reached & taut.accepting_closed)


# 'a' leads nowhere, so after it the frontier is empty; 'z' is no letter
DEAD_END = Nfa.make(["p", "q"], ["a", "b"], [("p", "b", "q")], ["p"], ["q"])
NO_STATES = Nfa.make([], ["a", "b"], [], [], [])
SIERPINSKI_DEAD_END = TAutomaton.make(
    SIERPINSKI, ["a", "b"], {"x"}, {"y"},
    {"a": {"x": set(), "y": set()}, "b": {"x": {"x"}, "y": {"x", "y"}}},
)


@pytest.mark.parametrize("machine", [
    DEAD_END,
    NO_STATES,
    discrete(DEAD_END),
    SIERPINSKI_DEAD_END,
    TAutomaton.make(FinTop.make([], {}), ["a", "b"], (), (), {"a": {}, "b": {}}),
])
def test_unknown_letter_after_an_empty_frontier_is_a_key_error(machine):
    calls = [machine.interval_eval, machine.trace_eval]
    if isinstance(machine, Nfa):
        calls += [
            partial(machine.circular_through_subset, ()),
            partial(machine.circular_through_subset, machine.states),
            machine.word_matrix,
            partial(machine.word_matrix, ring=NAT),
        ]
    for call in calls:
        with pytest.raises(KeyError, match="unknown letter 'z'"):
            call(("a", "z"))
