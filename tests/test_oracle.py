import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.errors import CapacityError, ParseError
from autcob.oracle import (
    chain_map_sum,
    circle_map_sum,
    parse_regex,
    regex_language,
    regex_match,
)
from autcob.semiring import NAT
from util import A2, TWO_CYCLE, all_words, random_nfa

seeds = st.integers(0, 10**6)


# -- graph-map sums ------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_chain_sum_matches_interval_eval(seed):
    nfa = random_nfa(random.Random(seed))
    for w in all_words(nfa.alphabet, 5):
        assert bool(chain_map_sum(nfa, w)) == nfa.interval_eval(w)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_circle_sum_matches_trace_eval(seed):
    nfa = random_nfa(random.Random(seed))
    for w in all_words(nfa.alphabet, 5):
        assert bool(circle_map_sum(nfa, w)) == nfa.trace_eval(w)


def test_chain_counts_paths_over_nat():
    assert chain_map_sum(A2, "a", NAT) == 1
    assert chain_map_sum(A2, "aa", NAT) == 0


def test_chain_empty_word_counts_overlap():
    from autcob.automaton import Nfa

    both = Nfa.make(["q", "r"], ["a"], [], ["q", "r"], ["q", "r"])
    assert chain_map_sum(both, "", NAT) == 2
    assert chain_map_sum(A2, "", NAT) == 0


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_chain_count_equals_matrix_count(seed):
    nfa = random_nfa(random.Random(seed))
    idx = {q: i for i, q in enumerate(nfa.states)}
    n = len(nfa.states)
    for w in all_words(nfa.alphabet, 4):
        m = nfa.word_matrix(w, NAT)
        want = sum(
            m.entries[idx[q] * n + idx[r]] for q in nfa.initial for r in nfa.accepting
        )
        assert chain_map_sum(nfa, w, NAT) == want


def test_circle_counts_closed_walks():
    assert circle_map_sum(A2, "aba", NAT) == 1
    assert circle_map_sum(A2, "", NAT) == 2  # bare circle: free rank


@settings(max_examples=25, deadline=None)
@given(seeds, st.text(alphabet="ab", min_size=1, max_size=5), st.integers(0, 4))
def test_circle_basepoint_independent(seed, w, shift):
    nfa = random_nfa(random.Random(seed))
    assert circle_map_sum(nfa, w, NAT, basepoint=shift) == circle_map_sum(nfa, w, NAT)


def test_caps_raise():
    with pytest.raises(CapacityError):
        chain_map_sum(A2, "a" * 9)
    big = random_nfa(random.Random(0), max_states=9, min_states=9)
    with pytest.raises(CapacityError):
        circle_map_sum(big, "a")
    assert chain_map_sum(A2, "a" * 9, max_len=9) in (0, 1)


# -- regular expressions ---------------------------------------------------------


def test_regex_basics():
    assert regex_match("(aa)*", "aaaa") is True
    assert regex_match("(aa)*", "aaa") is False
    assert regex_match("(ab*a)*ab*", "aa") is False
    assert regex_match("(ab*a)*ab*", "abba") is False
    assert regex_match("(ab*a)*ab*", "abbaa") is True
    assert regex_match("eps", "") is True
    assert regex_match("empty", "") is False
    assert regex_match("a+eps", "") is True


def test_regex_marked_cycle_language():
    pat = "(ba*b)* + (a*+bb)*bb(a*+bb)*"
    assert regex_match(pat, "bb") is True
    assert regex_match(pat, "") is True
    assert regex_match(pat, "b") is False
    assert regex_match(pat, "baab") is True


def test_regex_parse_errors():
    with pytest.raises(ParseError):
        parse_regex("(a")
    with pytest.raises(ParseError):
        parse_regex("a+")
    with pytest.raises(ParseError):
        parse_regex("*a")
    with pytest.raises(ParseError):
        parse_regex("a)")


def test_regex_language_enumeration():
    lang = regex_language("(aa)*", ("a",), 6)
    assert {len(w) for w in lang} == {0, 2, 4, 6}


def test_a_negative_length_bound_gives_no_words():
    assert regex_language("a*", "ab", -1) == set()
    assert A2.interval_language(-1) == A2.trace_language(-1) == set()
    assert regex_language("a*", "ab", 0) == A2.trace_language(0) == {()}


def test_a_long_length_bound_is_enumerated_without_recursion():
    # one word per length: 1,500 letters is past the default recursion limit
    words = regex_language("a*", "a", 1500)
    assert words == {("a",) * k for k in range(1501)}


def test_two_cycle_interval_language_matches_regex():
    for w in all_words(("a",), 12):
        assert TWO_CYCLE.interval_eval(w) == regex_match("(aa)*", w)


@settings(max_examples=20, deadline=None)
@given(st.text(alphabet="ab", max_size=7))
def test_regex_matches_a2_interval_language(w):
    assert regex_match("(ab*a)*ab*", w) == A2.interval_eval(w)
