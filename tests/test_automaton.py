import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.automaton import (
    CircularWord,
    Nfa,
    as_word,
    canonical_rotation,
    disjoint_union,
    flower_automaton,
    rotations,
)
from autcob.diagrams import Diagram
from autcob.semiring import BOOL, identity
from autcob.topology import FinTop, TAutomaton
from util import A2, H1, TWO_CYCLE, all_words, random_nfa, reference_trim

seeds = st.integers(0, 10**6)


# -- words -------------------------------------------------------------------


def test_as_word_forms():
    assert as_word("aba") == ("a", "b", "a")
    assert as_word(["ab", "c"]) == ("ab", "c")
    assert as_word("") == ()


@given(st.text(alphabet="ab", max_size=6), st.integers(0, 5))
def test_circular_word_canonical_under_rotation(text, shift):
    w = as_word(text)
    rotated = w[shift % len(w) :] + w[: shift % len(w)] if w else w
    assert CircularWord(w) == CircularWord(rotated)
    assert CircularWord(w).letters == canonical_rotation(w)


def test_rotations():
    assert set(rotations("ab")) == {("a", "b"), ("b", "a")}
    assert rotations("") == [()]


# -- letter and word matrices --------------------------------------------------


def test_letter_matrix_a2():
    assert A2.letter_matrix("a").to_rows() == [[0, 1], [1, 0]]
    assert A2.letter_matrix("b").to_rows() == [[0, 0], [0, 1]]


def test_empty_word_matrix_is_identity():
    assert A2.word_matrix("") == identity(BOOL, 2)


def test_word_matrix_ab():
    m = A2.word_matrix("ab")
    assert m.to_rows() == [[0, 1], [0, 0]]
    assert m[0, 1] == 1  # the single path via q2's b loop


def test_unknown_letter_is_lookup_error():
    with pytest.raises(KeyError):
        A2.letter_matrix("z")
    with pytest.raises(KeyError):
        A2.interval_eval("az")


@settings(max_examples=30)
@given(seeds, st.integers(0, 3), st.integers(0, 3))
def test_word_matrix_is_monoid_action(seed, i, j):
    rng = random.Random(seed)
    nfa = random_nfa(rng)
    words = list(all_words(nfa.alphabet, 3))
    u, v = words[i % len(words)], words[j % len(words)]
    assert nfa.word_matrix(u + v) == nfa.word_matrix(u) @ nfa.word_matrix(v)


# -- evaluations ---------------------------------------------------------------


def test_interval_eval_a2():
    assert A2.interval_eval("a") is True
    assert A2.interval_eval("aa") is False
    assert A2.interval_eval("") is False
    assert A2.interval_eval("ab") is True


def test_interval_eval_empty_word_needs_overlap():
    both = Nfa.make(["q"], ["a"], [], ["q"], ["q"])
    assert both.interval_eval("") is True


def test_trace_eval_a2():
    assert A2.trace_eval("aba") is True
    assert A2.trace_eval("") is True
    assert A2.trace_eval("a") is False
    assert A2.trace_eval(CircularWord("aba")) is True


def test_empty_automaton_evaluates_to_zero():
    empty = Nfa.make([], ["a"], [], [], [])
    assert empty.interval_eval("") is False
    assert empty.trace_eval("") is False
    assert empty.trace_eval("a") is False


@settings(max_examples=40)
@given(seeds, st.text(alphabet="ab", max_size=3), st.text(alphabet="ab", max_size=3))
def test_trace_rotation_invariance(seed, u, v):
    nfa = random_nfa(random.Random(seed))
    assert nfa.trace_eval(u + v) == nfa.trace_eval(v + u)


@settings(max_examples=40)
@given(seeds, st.text(alphabet="ab", max_size=4), st.integers(0, 4))
def test_trace_strong_circularity(seed, w, n):
    nfa = random_nfa(random.Random(seed))
    assert nfa.trace_eval("") is True  # nonempty automaton
    if nfa.trace_eval(w):
        assert nfa.trace_eval(w * n)


@settings(max_examples=40)
@given(seeds, seeds, st.text(alphabet="ab", max_size=4))
def test_trace_ignores_decorations(seed, seed2, w):
    nfa = random_nfa(random.Random(seed))
    rng = random.Random(seed2)
    redecorated = Nfa.make(
        nfa.states,
        nfa.alphabet,
        nfa.delta,
        [q for q in nfa.states if rng.random() < 0.5],
        [q for q in nfa.states if rng.random() < 0.5],
    )
    assert nfa.trace_eval(w) == redecorated.trace_eval(w)


@settings(max_examples=20)
@given(seeds)
def test_elementary_matrices_decompose_identity(seed):
    nfa = random_nfa(random.Random(seed))
    n = len(nfa.states)
    total = None
    for i in range(n):
        col = [[1 if j == i else 0] for j in range(n)]
        from autcob.semiring import Mat

        e = Mat.from_rows(BOOL, col)
        m = e @ e.transpose()
        total = m if total is None else total + m
    assert total == identity(BOOL, n)


def test_a_long_length_bound_is_enumerated_without_recursion():
    # one word per length: 1,500 letters is past the default recursion limit
    loop = Nfa.make(["q"], ["a"], [("q", "a", "q")], ["q"], ["q"])
    words = {("a",) * k for k in range(1501)}
    assert loop.interval_language(1500) == loop.trace_language(1500) == words


# -- trim ----------------------------------------------------------------------


def test_trim_drops_unreachable_acyclic_state():
    nfa = Nfa.make(
        ["q0", "q1", "dead"],
        ["a"],
        [("q0", "a", "q1"), ("q1", "a", "q0"), ("q0", "a", "dead")],
        ["q0"],
        ["q1"],
    )
    trimmed = nfa.trim()
    assert "dead" not in trimmed.states
    assert set(trimmed.states) == {"q0", "q1"}


def test_trim_a2_is_already_trim():
    assert A2.trim() == A2


def test_trim_keeps_empty_word_acceptance():
    nfa = Nfa.make(["q"], ["a"], [], ["q"], ["q"])
    assert nfa.trim().interval_eval("") is True


def test_trim_keeps_empty_trace_word_without_loops_or_paths():
    # nothing accepts and nothing loops, yet a nonempty automaton traces eps
    nfa = Nfa.make(
        ["q0", "q1", "q2"], ["a"], [("q0", "a", "q1"), ("q0", "a", "q2")], [], []
    )
    trimmed = nfa.trim()
    assert len(trimmed.states) == 1
    assert trimmed.delta == frozenset()
    assert trimmed.trace_eval("") is True
    assert trimmed.trace_eval("a") is False
    assert trimmed.interval_language(4) == nfa.interval_language(4) == set()


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_trim_preserves_both_languages(seed):
    nfa = random_nfa(random.Random(seed), max_states=4)
    trimmed = nfa.trim()
    assert trimmed.interval_language(8) == nfa.interval_language(8)
    assert trimmed.trace_language(8) == nfa.trace_language(8)


@settings(max_examples=60, deadline=None)
@given(seeds, st.floats(0, 0.1))
def test_trim_matches_the_delta_scanning_reference(seed, density):
    # sparse graphs up to 30 states: paths, loops and dead ends all occur
    nfa = random_nfa(random.Random(seed), max_states=30, density=density)
    assert nfa.trim() == reference_trim(nfa)


def test_trim_keeps_off_path_loops_and_self_loops():
    # a chain of 2-cycles that no initial state reaches, joined by one-way
    # edges, with a self-loop on every third link and a dead end at each joint
    n = 60
    states = [f"s{i}" for i in range(2 * n)] + [f"dead{i}" for i in range(n)]
    delta = []
    for i in range(n):
        x, y = f"s{2 * i}", f"s{2 * i + 1}"
        delta += [(x, "a", y), (y, "b", x), (y, "a", f"dead{i}")]
        if i + 1 < n:
            delta.append((y, "b", f"s{2 * i + 2}"))
        if i % 3 == 0:
            delta.append((f"dead{i}", "b", f"dead{i}"))
    nfa = Nfa.make(["init", *states], ["a", "b"], delta, ["init"], ["s0"])
    trimmed = nfa.trim()
    assert trimmed == reference_trim(nfa)
    assert set(trimmed.states) == set(states) - {
        f"dead{i}" for i in range(n) if i % 3
    }


# -- disjoint union --------------------------------------------------------------


def test_union_with_empty_automaton_is_isomorphic_copy():
    empty = Nfa.make([], ["a", "b"], [], [], [])
    u = disjoint_union(A2, empty)
    assert u == A2.renamed(lambda q: f"{q}#0")


def test_union_adds_trace_words():
    b_loop = Nfa.make(["u"], ["a"], [("u", "a", "u")], [], [])
    base = TWO_CYCLE  # trace (a^2)*, so "a" is new
    u = disjoint_union(base, b_loop)
    assert base.trace_eval("a") is False
    assert u.trace_eval("a") is True
    assert u.interval_language(6) == {
        tuple(w) for w in base.interval_language(6)
    } == base.interval_language(6)


def test_union_alphabet_mismatch():
    with pytest.raises(ValueError):
        disjoint_union(A2, Nfa.make(["u"], ["a"], [], [], []))


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_union_languages_are_unions(seed1, seed2):
    a = random_nfa(random.Random(seed1), max_states=3)
    b = random_nfa(random.Random(seed2), max_states=3)
    u = disjoint_union(a, b)
    for w in all_words(("a", "b"), 6):
        assert u.trace_eval(w) == (a.trace_eval(w) or b.trace_eval(w))
        assert u.interval_eval(w) == (a.interval_eval(w) or b.interval_eval(w))


# -- flower ---------------------------------------------------------------------


def test_flower_single_self_loop():
    f = flower_automaton([], 1, 1, 1)
    assert len(f.states) == 1
    assert all(f.trace_eval("a" * k) for k in range(5))


def test_flower_membership_derived_by_brute_force():
    f = flower_automaton([2], 3, 3, 1)
    present = {len(w) for w in f.trace_language(12)}
    # the 2-loop contributes all even lengths, the petal all multiples of 3
    assert present == {0, 2, 3, 4, 6, 8, 9, 10, 12}


def test_flower_traces_are_strongly_circular():
    for f in (flower_automaton([2], 3, 3, 1), flower_automaton([1, 4], 2, 2, 2)):
        members = {len(w) for w in f.trace_language(12)}
        for k in members:
            for n in range(5):
                if k * n <= 12:
                    assert k * n in members


def test_flower_rejects_zero_length_cycles():
    with pytest.raises(ValueError):
        flower_automaton([0], 1, 1, 1)
    with pytest.raises(ValueError):
        flower_automaton([], 0, 1, 1)
    with pytest.raises(ValueError):
        flower_automaton([], 1, 1, 0)


# -- circular through a marked subset ---------------------------------------------


def test_marked_cycles_examples():
    assert H1.circular_through_subset({"q0"}, "bb") is True
    assert H1.circular_through_subset({"q0"}, "a") is False
    assert H1.circular_through_subset({"q0"}, "") is True
    assert H1.circular_through_subset(set(), "") is False


def test_marked_cycles_sees_all_rotations():
    # abb has a marked cycle only after rotating to bab
    assert H1.circular_through_subset({"q0"}, "abb") is True


def test_marked_cycles_unknown_state():
    with pytest.raises(ValueError):
        H1.circular_through_subset({"zz"}, "b")


# -- JSON -------------------------------------------------------------------------


def test_json_round_trip():
    assert Nfa.from_json(A2.to_json()) == A2


def test_json_rejects_unknown_keys():
    data = A2.to_json_dict()
    data["comment"] = "nope"
    with pytest.raises(ValueError, match="unknown"):
        Nfa.from_json_dict(data)
    data = A2.to_json_dict()
    del data["initial"]
    with pytest.raises(ValueError, match="missing"):
        Nfa.from_json_dict(data)
    data = A2.to_json_dict()
    data["transitions"][0]["weight"] = 1
    with pytest.raises(ValueError):
        Nfa.from_json_dict(data)


@pytest.mark.parametrize("loader", [Nfa, FinTop, TAutomaton, Diagram], ids=lambda c: c.__name__)
def test_json_nested_too_deeply_is_a_value_error(loader):
    # the decoder recurses once per level; past its limit that is a
    # RecursionError, which is no input error
    with pytest.raises(ValueError, match="nested too deeply"):
        loader.from_json("[" * 100000)


def test_json_is_deterministic():
    again = Nfa.make(
        reversed(A2.states), A2.alphabet, sorted(A2.delta), A2.initial, A2.accepting
    )
    assert json.loads(A2.to_json())["transitions"] == json.loads(again.to_json())["transitions"]


def test_validation_rejects_bad_structure():
    with pytest.raises(ValueError):
        Nfa.make(["q", "q"], ["a"], [], [], [])
    with pytest.raises(ValueError):
        Nfa.make(["q"], ["a"], [("q", "a", "r")], [], [])
    with pytest.raises(ValueError):
        Nfa.make(["q"], ["a"], [("q", "b", "q")], [], [])
    with pytest.raises(ValueError):
        Nfa.make(["q"], ["a"], [], ["r"], [])
