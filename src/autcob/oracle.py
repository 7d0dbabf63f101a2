"""Independent brute-force semantics.

``chain_map_sum`` and ``circle_map_sum`` enumerate label-preserving maps of
a chain or circle graph into the automaton graph and add up their values in
the chosen semiring; no matrix algebra and no memoization, so they stay an
independent check on the linear-algebra route.  ``regex_match`` is a plain
derivative-based matcher used to certify concrete language claims.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Nfa, as_word
from .errors import CapacityError, ParseError
from .semiring import BOOL, Semiring

DEFAULT_WORD_CAP = 8
DEFAULT_STATE_CAP = 8


def check_caps(nfa: Nfa, length: int, max_len=DEFAULT_WORD_CAP,
               max_states=DEFAULT_STATE_CAP):
    """Refuse a word of ``length`` letters on ``nfa`` past the caps of the
    map sums, which enumerate up to ``states ** length`` paths."""
    if length > max_len:
        raise CapacityError(f"word length {length} exceeds cap {max_len}")
    if len(nfa.states) > max_states:
        raise CapacityError(f"{len(nfa.states)} states exceed cap {max_states}")


def _successors(nfa: Nfa) -> dict:
    """(state, letter) -> the targets of its transitions, built here from
    ``delta`` so that the oracle reads no index of the code it checks."""
    succ = {}
    for q, a, r in nfa.delta:
        succ.setdefault((q, a), []).append(r)
    return succ


def chain_map_sum(
    nfa: Nfa,
    w,
    ring: Semiring = BOOL,
    *,
    max_len: int = DEFAULT_WORD_CAP,
    max_states: int = DEFAULT_STATE_CAP,
):
    """Sum over maps of the chain graph of w into the automaton graph.

    A map contributes 1 when every edge label matches and the two chain
    endpoints land in the initial and accepting sets.  Over BOOL this equals
    interval evaluation; over NAT it counts accepting paths.
    """
    word = as_word(w)
    check_caps(nfa, len(word), max_len, max_states)
    succ = _successors(nfa)

    def tails(i, q):
        if i == len(word):
            return ring.one if q in nfa.accepting else ring.zero
        acc = ring.zero
        for r in succ.get((q, word[i]), ()):
            acc = ring.add(acc, tails(i + 1, r))
        return acc

    total = ring.zero
    for q in nfa.states:
        if q in nfa.initial:
            total = ring.add(total, tails(0, q))
    return total


def circle_map_sum(
    nfa: Nfa,
    w,
    ring: Semiring = BOOL,
    *,
    max_len: int = DEFAULT_WORD_CAP,
    max_states: int = DEFAULT_STATE_CAP,
    basepoint: int = 0,
):
    """Sum over maps of the circle graph of w into the automaton graph.

    Over BOOL this equals trace evaluation; over NAT it counts labelled
    closed walks.  The bare circle (empty word) returns the number of
    states, the free rank of the state space.  The enumeration fixes a
    basepoint edge; the result does not depend on the choice.
    """
    word = as_word(w)
    check_caps(nfa, len(word), max_len, max_states)
    if not word:
        total = ring.zero
        for _ in nfa.states:
            total = ring.add(total, ring.one)
        return total
    word = word[basepoint % len(word) :] + word[: basepoint % len(word)]
    succ = _successors(nfa)

    def tails(i, q, home):
        if i == len(word):
            return ring.one if q == home else ring.zero
        acc = ring.zero
        for r in succ.get((q, word[i]), ()):
            acc = ring.add(acc, tails(i + 1, r, home))
        return acc

    total = ring.zero
    for q in nfa.states:
        total = ring.add(total, tails(0, q, q))
    return total


# -- regular expressions via derivatives ------------------------------------


@dataclass(frozen=True)
class _Empty:
    pass


@dataclass(frozen=True)
class _Eps:
    pass


@dataclass(frozen=True)
class _Lit:
    ch: str


@dataclass(frozen=True)
class _Cat:
    left: object
    right: object


@dataclass(frozen=True)
class _Alt:
    left: object
    right: object


@dataclass(frozen=True)
class _Star:
    body: object


EMPTY = _Empty()
EPS = _Eps()


def _cat(l, r):
    if l is EMPTY or r is EMPTY:
        return EMPTY
    if l is EPS:
        return r
    if r is EPS:
        return l
    return _Cat(l, r)


def _alt(l, r):
    if l is EMPTY:
        return r
    if r is EMPTY:
        return l
    if l == r:
        return l
    return _Alt(l, r)


def _star(x):
    if x is EMPTY or x is EPS:
        return EPS
    if isinstance(x, _Star):
        return x
    return _Star(x)


def nullable(r) -> bool:
    if r is EPS:
        return True
    if isinstance(r, _Star):
        return True
    if isinstance(r, _Alt):
        return nullable(r.left) or nullable(r.right)
    if isinstance(r, _Cat):
        return nullable(r.left) and nullable(r.right)
    return False


def deriv(r, ch):
    if isinstance(r, _Lit):
        return EPS if r.ch == ch else EMPTY
    if isinstance(r, _Alt):
        return _alt(deriv(r.left, ch), deriv(r.right, ch))
    if isinstance(r, _Cat):
        d = _cat(deriv(r.left, ch), r.right)
        if nullable(r.left):
            d = _alt(d, deriv(r.right, ch))
        return d
    if isinstance(r, _Star):
        return _cat(deriv(r.body, ch), r)
    return EMPTY  # EPS and EMPTY


def parse_regex(text: str):
    """Parse a pattern over: letters, juxtaposition, '+', '*', '()',
    'eps', 'empty'."""
    pos = 0

    def error(msg, at):
        line = text.count("\n", 0, at) + 1
        col = at - (text.rfind("\n", 0, at) + 1) + 1
        raise ParseError(msg, line, col)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < len(text) else None

    def parse_alt():
        nonlocal pos
        node = parse_cat()
        while peek() == "+":
            pos += 1
            node = _alt(node, parse_cat())
        return node

    def parse_cat():
        node = None
        while True:
            c = peek()
            if c is None or c in ")+":
                break
            factor = parse_factor()
            node = factor if node is None else _cat(node, factor)
        if node is None:
            error("expected a pattern", pos)
        return node

    def parse_factor():
        nonlocal pos
        node = parse_atom()
        while peek() == "*":
            pos += 1
            node = _star(node)
        return node

    def parse_atom():
        nonlocal pos
        c = peek()
        if c == "(":
            start = pos
            pos += 1
            node = parse_alt()
            if peek() != ")":
                error("unclosed '('", start)
            pos += 1
            return node
        if c == "*":
            error("'*' needs an operand", pos)
        if text.startswith("empty", pos):
            pos += 5
            return EMPTY
        if text.startswith("eps", pos):
            pos += 3
            return EPS
        pos += 1
        return _Lit(c)

    node = parse_alt()
    if peek() is not None:
        error(f"unexpected {text[pos]!r}", pos)
    return node


def regex_match(pattern, w) -> bool:
    """Membership of a word in the language of the pattern."""
    r = parse_regex(pattern) if isinstance(pattern, str) else pattern
    for ch in as_word(w):
        r = deriv(r, ch)
        if r is EMPTY:
            return False
    return nullable(r)


def regex_language(pattern, alphabet, max_len: int) -> set:
    """All matching words of length <= max_len over the alphabet."""
    root = parse_regex(pattern) if isinstance(pattern, str) else pattern
    out = set()
    level = [((), root)]  # the words of one length whose derivative is not empty
    for length in range(max_len + 1):
        if length:
            steps = ((word + (a,), deriv(r, a)) for word, r in level for a in alphabet)
            level = [(word, d) for word, d in steps if d is not EMPTY]
        out.update(word for word, r in level if nullable(r))
    return out
