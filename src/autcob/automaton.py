"""Nondeterministic finite automata and the subset walk of a word.

An automaton is a labelled oriented graph on interned string ids.  A letter
sends state x to its set of successors; ``Nfa._rows`` indexes these images
by state index, and ``walk`` runs a word through them as a frontier of
indices.  ``walk_packed`` runs every start at once instead: each index holds
one int with a lane per start, and a step adds lane by lane; the word
matrix is one such walk, over BOOL or NAT.  Interval evaluation walks from
the initial states and asks to meet an accepting one; trace evaluation
asks for a closed walk, walking from each state in turn, and is invariant
under rotation of the word.  Both are written once over the basis
interface that a T-automaton shares and the diagram evaluator reads: the
cached ``_index``, ``_rows``, ``_up``, ``_ends``.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain

from .errors import Record
from .semiring import BOOL, Mat, Semiring

Word = tuple  # tuple of letter strings


def as_word(w) -> Word:
    """Coerce a word given as a string (one letter per char), a sequence of
    letters, or a CircularWord."""
    if isinstance(w, CircularWord):
        return w.letters
    return tuple(w)


def checked_word(rows, w) -> Word:
    """w as a word, after checking that ``rows`` has every letter of it."""
    word = as_word(w)
    for a in word:
        if a not in rows:
            raise KeyError(f"unknown letter {a!r}")
    return word


def walk(rows, seeds, word) -> set:
    """The basis indices reached from ``seeds`` along ``word``, where
    ``rows[a][x]`` holds the indices in the image of x under a (a single
    lane of ``walk_packed`` walks its tables, indexed by step, the same way).
    Each letter replaces the frontier by the union of its members' rows."""
    frontier = set(seeds)
    for a in word:
        row = rows[a]
        # unpack a list, not an iterator: an iterator is first packed into a
        # tuple of a guessed length and resized, and the resized tuples pile
        # up on the interpreter's free lists
        frontier = set().union(*[row[x] for x in frontier])
    return frontier


def walk_packed(ring, tables, starts, count, width) -> list:
    """Run ``count`` lanes through ``tables`` at once, from ``starts``, the
    nonzero ``(index, lane, value)`` entries (one per index and lane);
    gives, by output index of the last step (``width`` of them), the lanes'
    values, lowest lane first, or None where every lane is zero.

    Each index holds one int with a lane per start.  Step k sends the
    column at x to every index of ``tables[k][x]``, out of
    ``len(tables[k + 1])``, adding lane by lane where paths meet.  Over an
    idempotent ring (BOOL) OR never carries, so a lane is a byte, and one
    lane walks a set (``walk``), which touches only the frontier where a
    packed walk reads every column.  Otherwise a step multiplies a lane's
    sum by at most the table's largest out-degree, and no value exceeds
    its lane's sum.  When that bound over the whole run needs more than 8
    bytes it can overshoot the counts by far (one branching state anywhere
    is enough), so lanes start at 8 bytes, or twice the bytes of the
    largest sum, and the walk goes in chunks that the bound keeps within
    them.  After each chunk the lanes' sums are read back, from all columns
    added (which no lane carries out of), and the lanes double when a sum
    fills more than half of one."""
    add = ring.add
    if add(ring.one, ring.one) == ring.one:
        if count == 1:
            out, hit = [None] * width, (ring.one,)
            for o in walk(tables, [x for x, _, _ in starts], range(len(tables))):
                out[o] = hit
            return out
        degrees, total, bound = [1] * len(tables), 1, 1
    else:
        degrees = [max([1, *map(len, table)]) for table in tables]
        sums = [0] * count
        for _, lane, v in starts:
            sums[lane] += v
        bound = total = max(sums, default=0)
        for d in degrees:
            bound *= d
    bound = min(bound, max(total * total, 1 << 63))
    size = 1  # a power of two: lane_values casts up to 8 bytes, widen moves words
    while bound >> (8 * size):
        size *= 2
    columns = [0] * (len(tables[0]) if tables else width)
    for x, lane, v in starts:
        columns[x] |= v << (8 * size * lane)
    sizes = [*map(len, tables[1:]), width]
    done = 0
    while True:
        limit = 1 << (8 * size)
        end, bound = done, total
        while end < len(tables) and bound * degrees[end] < limit:
            bound *= degrees[end]
            end += 1
        for table, m in zip(tables[done:end], sizes[done:end]):
            new = [0] * m
            for column, outs in zip(columns, table):
                if column:
                    for y in outs:
                        new[y] = add(new[y], column)
            columns = new
        if end == len(tables):
            return [lane_values(c, size, count) if c else None for c in columns]
        done = end
        total = max(lane_values(sum(columns), size, count))
        if total * max(total, degrees[done]) >= limit:  # total < limit: once is enough
            columns = [widen(column, size, count) for column in columns]
            size *= 2


_UNITS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def lane_values(column, size, count):
    """The values of the ``count`` lanes of a packed column, ``size``
    bytes each, lowest lane first."""
    data = column.to_bytes(size * count, "little")
    if size in _UNITS and sys.byteorder == "little":
        return memoryview(data).cast(_UNITS[size])
    return [int.from_bytes(data[i:i + size], "little")
            for i in range(0, len(data), size)]


def widen(column, size, count) -> int:
    """A packed column of ``count`` lanes of ``size`` bytes, each lane
    moved to twice that size."""
    unit = min(size, 8)
    k = size // unit
    old = memoryview(column.to_bytes(size * count, "little")).cast(_UNITS[unit])
    data = bytearray(2 * size * count)
    new = memoryview(data).cast(_UNITS[unit])
    for j in range(k):
        new[j::2 * k] = old[j::k]
    return int.from_bytes(data, "little")


def interval_eval(self, w) -> bool:
    """True iff w carries the initial set into one meeting the accepting set."""
    rows = self._rows
    initial, accepting = self._ends
    return not walk(rows, initial, checked_word(rows, w)).isdisjoint(accepting)


def trace_eval(self, w) -> bool:
    """True iff x lies in the image of U_x under w for some basis element x."""
    rows = self._rows
    word = checked_word(rows, w)
    return any(i in walk(rows, u, word) for i, u in enumerate(self._up))


def rotations(w) -> list:
    word = as_word(w)
    if not word:
        return [word]
    return [word[i:] + word[:i] for i in range(len(word))]


def canonical_rotation(w) -> Word:
    return min(rotations(w))


class CircularWord(Record):
    """A word up to rotation, stored as its lexicographically least rotation."""

    _fields = ("letters",)

    def __init__(self, letters):
        self.__dict__["letters"] = canonical_rotation(as_word(letters))

    def rotations(self) -> list:
        return rotations(self.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def read_json(text: str):
    """The JSON value of ``text``.  JSON nested too deeply for the decoder
    is malformed input like any other: a ValueError, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def json_object(data, what, required, optional=()) -> dict:
    """``data`` when it is a JSON object holding every key of ``required``
    and no key outside ``required`` and ``optional``; each refusal is a
    ValueError naming ``what`` was being loaded."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    extra = data.keys() - {*required, *optional}
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {what}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in {what}")
    return data


def json_list(data: dict, key) -> list:
    """``data[key]`` when it is a JSON list of strings; a string is never
    split into characters."""
    value = data[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"'{key}' must be a list of strings")
    return value


_NFA_KEYS = ("states", "alphabet", "transitions", "initial", "accepting")
_TRANSITION_KEYS = {"from", "letter", "to"}


class Nfa(Record):
    """(states, alphabet, transitions, initial set, accepting set).

    The empty automaton (no states) is legal; both of its languages are
    empty, including on the empty word.
    """

    _fields = ("states", "alphabet", "delta", "initial", "accepting")

    def __init__(self, states: tuple, alphabet: tuple, delta: frozenset,
                 initial: frozenset, accepting: frozenset):
        known = set(states)
        if len(known) != len(states):
            raise ValueError("duplicate state ids")
        letters = set(alphabet)
        if len(letters) != len(alphabet):
            raise ValueError("duplicate letters")
        for q, a, r in delta:
            if q not in known or r not in known:
                raise ValueError(f"transition ({q}, {a}, {r}) uses unknown state")
            if a not in letters:
                raise ValueError(f"transition ({q}, {a}, {r}) uses unknown letter")
        for name, group in (("initial", initial), ("accepting", accepting)):
            unknown = group - known
            if unknown:
                raise ValueError(f"{name} set contains unknown states {sorted(unknown)}")
        self.__dict__.update(states=states, alphabet=alphabet, delta=delta,
                             initial=initial, accepting=accepting)

    @classmethod
    def make(cls, states, alphabet, delta, initial=(), accepting=()) -> Nfa:
        return cls(
            tuple(states),
            tuple(alphabet),
            frozenset(tuple(t) for t in delta),
            frozenset(initial),
            frozenset(accepting),
        )

    # -- structure ---------------------------------------------------------

    @cached_property
    def _index(self) -> dict:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def _rows(self) -> dict:
        """letter -> the indices of each state's successors, by state index."""
        idx = self._index
        rows = {a: [set() for _ in self.states] for a in self.alphabet}
        for q, a, r in self.delta:
            rows[a][idx[q]].add(idx[r])
        return rows

    @cached_property
    def _up(self) -> list:
        return [{i} for i in range(len(self.states))]

    @cached_property
    def _ends(self) -> tuple:
        groups = self.initial, self.accepting
        return tuple(sorted(map(self._index.get, g)) for g in groups)

    @cached_property
    def _edges(self) -> tuple:
        """(out-edges, in-edges): each maps a state to the (letter, other
        end) pairs of the transitions leaving, or entering, it."""
        out = {q: [] for q in self.states}
        into = {q: [] for q in self.states}
        for q, a, r in self.delta:
            out[q].append((a, r))
            into[r].append((a, q))
        return out, into

    def renamed(self, fn) -> Nfa:
        return Nfa.make(
            [fn(q) for q in self.states],
            self.alphabet,
            [(fn(q), a, fn(r)) for q, a, r in self.delta],
            [fn(q) for q in self.initial],
            [fn(q) for q in self.accepting],
        )

    # -- matrices ----------------------------------------------------------

    def letter_matrix(self, a, ring: Semiring = BOOL) -> Mat:
        """M[q][r] = 1 iff r is an a-successor of q, rows in states order."""
        return self.word_matrix((a,), ring)

    def word_matrix(self, w, ring: Semiring = BOOL) -> Mat:
        """M[q][r] sums the paths from q to r spelling w: over NAT it counts
        them.  One packed walk runs every start state at once: lane q of
        column r holds M[q][r], so the rows are the columns' lanes zipped."""
        rows = self._rows
        tables = [rows[a] for a in checked_word(rows, w)]
        n = len(self.states)
        zero = (ring.zero,) * n
        columns = walk_packed(ring, tables, [(q, q, 1) for q in range(n)], n, n)
        columns = [column or zero for column in columns]
        return Mat(ring, n, n, tuple(chain.from_iterable(zip(*columns))))

    # -- evaluations -------------------------------------------------------

    interval_eval = interval_eval
    trace_eval = trace_eval

    def circular_through_subset(self, marked, w) -> bool:
        """True iff some cyclic path spelling w (up to rotation) visits a
        marked state."""
        marked = frozenset(marked)
        unknown = marked - set(self.states)
        if unknown:
            raise ValueError(f"unknown states {sorted(unknown)}")
        rows = self._rows
        word = checked_word(rows, w)
        if not word:
            return bool(marked)
        starts = [self._index[q] for q in marked]
        rots = set(rotations(word))
        return any(i in walk(rows, (i,), r) for r in rots for i in starts)

    # -- language prefixes -------------------------------------------------

    def _language(self, max_len: int, starts) -> set:
        """The words of length <= max_len that walk some (seeds, targets)
        pair of ``starts`` from its seeds into its targets, grown one
        length at a time; each word keeps the pairs still walking."""
        rows, out = self._rows, set()
        level = [((), starts)]
        for length in range(max_len + 1):
            if length:
                grown = []
                for word, live in level:
                    for a in self.alphabet:
                        step = [(walk(rows, f, (a,)), t) for f, t in live]
                        step = [(f, t) for f, t in step if f]
                        if step:
                            grown.append((word + (a,), step))
                level = grown
            out.update(w for w, live in level if any(not f.isdisjoint(t) for f, t in live))
        return out

    def interval_language(self, max_len: int) -> set:
        """All accepted words of length <= max_len (as letter tuples)."""
        initial, accepting = self._ends
        return self._language(max_len, [(set(initial), accepting)])

    def trace_language(self, max_len: int) -> set:
        """All words of length <= max_len carried by some closed walk."""
        return self._language(max_len, [({i}, {i}) for i in range(len(self.states))])

    # -- constructions -----------------------------------------------------

    def trim(self) -> Nfa:
        """Keep only states on an initial-to-accepting path or on an
        oriented loop; drop transitions leaving that core.

        Both evaluations are preserved on every word.
        """
        out, into = self._edges
        on_path = self._reach(self.initial, out) & self._reach(self.accepting, into)
        core = on_path | self._on_loop()
        if not core and self.states:
            # a nonempty automaton always traces the empty word, the empty
            # one never does; keep a single bare state so both evaluations
            # survive even when nothing accepts and nothing loops
            core = {self.states[0]}
        return Nfa.make(
            [q for q in self.states if q in core],
            self.alphabet,
            [(q, a, r) for q, a, r in self.delta if q in core and r in core],
            self.initial & core,
            self.accepting & core,
        )

    def _on_loop(self) -> set:
        """The states on an oriented loop: those that carry a self-loop or
        share a strongly connected component with another state.  One
        iterative pass of Tarjan's algorithm over ``_edges``."""
        out = self._edges[0]
        loops = {q for q, _, r in self.delta if q == r}
        index, low, stack, on_stack = {}, {}, [], set()
        for root in self.states:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(out[root]))]
            while work:
                q, edges = work[-1]
                for _, r in edges:
                    if r not in index:
                        index[r] = low[r] = len(index)
                        stack.append(r)
                        on_stack.add(r)
                        work.append((r, iter(out[r])))
                        break
                    if r in on_stack:
                        low[q] = min(low[q], index[r])
                else:
                    work.pop()
                    if work:
                        p = work[-1][0]
                        low[p] = min(low[p], low[q])
                    if low[q] == index[q]:
                        component = [stack.pop()]
                        while component[-1] != q:
                            component.append(stack.pop())
                        on_stack.difference_update(component)
                        if len(component) > 1:
                            loops.update(component)
        return loops

    @staticmethod
    def _reach(seeds: Iterable, edges: dict) -> set:
        """The seeds and every state reached from them along ``edges``, one
        half of ``_edges``."""
        seen = set(seeds)
        todo = list(seen)
        while todo:
            for _, r in edges[todo.pop()]:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return seen

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "alphabet": list(self.alphabet),
            "transitions": [
                {"from": q, "letter": a, "to": r} for q, a, r in sorted(self.delta)
            ],
            "initial": sorted(self.initial),
            "accepting": sorted(self.accepting),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, data: dict) -> Nfa:
        json_object(data, "automaton", _NFA_KEYS)
        if not isinstance(data["transitions"], list):
            raise ValueError("'transitions' must be a list")
        delta = set()
        for t in data["transitions"]:
            if isinstance(t, dict) and t.keys() == _TRANSITION_KEYS:
                q, a, r = t["from"], t["letter"], t["to"]
                if isinstance(q, str) and isinstance(a, str) and isinstance(r, str):
                    delta.add((q, a, r))
                    continue
            raise ValueError(
                f"transition must be an object of strings from/letter/to, got {t!r}"
            )
        return cls(
            tuple(json_list(data, "states")),
            tuple(json_list(data, "alphabet")),
            frozenset(delta),
            frozenset(json_list(data, "initial")),
            frozenset(json_list(data, "accepting")),
        )

    @classmethod
    def from_json(cls, text: str) -> Nfa:
        return cls.from_json_dict(read_json(text))


def disjoint_union(a: Nfa, b: Nfa) -> Nfa:
    """Disjointly renamed union; interval and trace languages are unions."""
    if set(a.alphabet) != set(b.alphabet):
        raise ValueError("alphabet mismatch")
    left = a.renamed(lambda q: f"{q}#0")
    right = b.renamed(lambda q: f"{q}#1")
    return Nfa.make(
        left.states + right.states,
        a.alphabet,
        left.delta | right.delta,
        left.initial | right.initial,
        left.accepting | right.accepting,
    )


def flower_automaton(short_cycles: Sequence, start: int, step: int, count: int) -> Nfa:
    """One-letter automaton: disjoint simple a-loops of the given lengths,
    plus a one-vertex union of a-loops of lengths start, start+step, ...,
    start+(count-1)*step.

    No initial or accepting states; only the trace language is of interest.
    """
    if count < 1 or step < 1:
        raise ValueError("need count >= 1 and step >= 1")
    if start < 1 or any(j < 1 for j in short_cycles):
        raise ValueError("zero-length cycle requested")
    states = []
    delta = []

    def add_cycle(prefix, length, hub=None):
        ring = [hub] if hub else []
        ring += [f"{prefix}.{i}" for i in range(len(ring), length)]
        states.extend(s for s in ring if s != hub)
        for i, s in enumerate(ring):
            delta.append((s, "a", ring[(i + 1) % length]))

    for k, j in enumerate(short_cycles):
        add_cycle(f"c{k}", j)
    hub = "f"
    states.append(hub)
    for k in range(count):
        add_cycle(f"p{k}", start + k * step, hub=hub)
    return Nfa.make(states, ("a",), delta, (), ())
