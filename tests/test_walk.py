"""The subset walk against references that never walk: ordered products of
letter matrices for automata, composed endomorphisms for T-automata."""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.automaton import Nfa, rotations, walk_packed
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


# -- lane widths of the packed walk ------------------------------------------------

# every state reaches every state on 'a', so a word a^k has 3^(k-1) paths
# between each pair of states; 'z' has no transitions at all
COMPLETE3 = Nfa.make(
    ["p", "q", "r"], ["a", "z"], [(x, "a", y) for x in "pqr" for y in "pqr"], ["p"], ["r"]
)


@pytest.mark.parametrize("length", [1, 5, 8, 16, 40, 60, 200])
def test_word_matrix_counts_past_every_fixed_lane_width(length):
    # the packed walk gives these lanes 1, 1, 2, 4 and 8 bytes, then widens
    # 8 -> 16 and 8 -> 16 -> 32 -> 64 bytes part way through the word
    w = "a" * length
    counts = COMPLETE3.word_matrix(w, NAT)
    assert counts == dense_word_matrix(COMPLETE3, w, NAT)
    assert set(counts.entries) == {3 ** (length - 1)}
    assert COMPLETE3.word_matrix(w, BOOL) == dense_word_matrix(COMPLETE3, w, BOOL)


@pytest.mark.parametrize("w", ["z", "az", "za", "a" * 40 + "z", "a" * 40 + "za"])
def test_a_letter_with_no_transitions_gives_the_zero_matrix(w):
    for ring in (BOOL, NAT):
        m = COMPLETE3.word_matrix(w, ring)
        assert m == dense_word_matrix(COMPLETE3, w, ring)
        assert set(m.entries) == {0}


# 'a' turns a cycle on s0 ... s7 once around, and b, which no state
# reaches, has two successors on it: every path count is 0 or 1, though the
# largest out-degree doubles the bound on a lane's sum at every letter
BRANCH_OFF_A_CYCLE = Nfa.make(
    [*(f"s{i}" for i in range(8)), "b"], ["a"],
    [*((f"s{i}", "a", f"s{(i + 1) % 8}") for i in range(8)), ("b", "a", "s0"), ("b", "a", "s1")],
    ["s0"], ["s7"],
)


def test_lanes_follow_the_counts_not_the_largest_out_degree():
    w = "a" * 400
    counts = BRANCH_OFF_A_CYCLE.word_matrix(w, NAT)
    assert counts == dense_word_matrix(BRANCH_OFF_A_CYCLE, w, NAT)
    assert set(counts.entries) == {0, 1}
    n = len(BRANCH_OFF_A_CYCLE.states)
    tables = [BRANCH_OFF_A_CYCLE._rows["a"]] * len(w)
    columns = walk_packed(NAT, tables, [(q, q, 1) for q in range(n)], n, n)
    # the bound over the whole word is 2^400, 51 bytes; the sums stay at 2
    assert {column.itemsize for column in columns if column is not None} == {8}


ONE_STATE = Nfa.make(["s"], ["a", "b"], [("s", "a", "s")], ["s"], ["s"])


@pytest.mark.parametrize("machine", [NO_STATES, ONE_STATE, DEAD_END, COMPLETE3])
@pytest.mark.parametrize("w", ["", "a", "ab", "a" * 40])
def test_word_matrix_on_the_smallest_machines(machine, w):
    w = w.replace("b", machine.alphabet[-1])
    n = len(machine.states)
    for ring in (BOOL, NAT):
        m = machine.word_matrix(w, ring)
        assert (m.rows, m.cols) == (n, n)
        assert m == dense_word_matrix(machine, w, ring)
        if not w:
            assert m.entries == tuple(int(i == j) for i in range(n) for j in range(n))


# -- the packed walk against one dict walk per lane ------------------------------


def dict_walk(ring, tables, starts, count, width):
    """``walk_packed``'s result, one lane at a time: each lane a dict from
    index to value, stepped through the tables with ``ring.add``."""
    lanes = [{} for _ in range(count)]
    for x, lane, v in starts:
        lanes[lane][x] = v
    for table in tables:
        stepped = []
        for values in lanes:
            new = {}
            for x, v in values.items():
                for y in table[x]:
                    new[y] = ring.add(new[y], v) if y in new else v
            stepped.append(new)
        lanes = stepped
    out = []
    for o in range(width):
        values = [lane.get(o, ring.zero) for lane in lanes]
        out.append(values if any(values) else None)
    return out


def assert_walks_agree(ring, tables, starts, count, width):
    got = walk_packed(ring, tables, starts, count, width)
    assert [None if c is None else list(c) for c in got] == dict_walk(
        ring, tables, starts, count, width)


@st.composite
def packed_runs(draw):
    """Random tables, with each step's outputs the next table's length, and
    start entries of up to 8 lanes, at most one per index and lane."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    tables = [
        [draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m)) for _ in range(k)]
        for k, m in zip(sizes, sizes[1:])
    ]
    count = draw(st.integers(0, 8))
    places = [(x, lane) for x in range(sizes[0]) for lane in range(count)]
    chosen = draw(st.lists(st.sampled_from(places), unique=True) if places else st.just([]))
    return tables, chosen, count, sizes[-1]


@settings(max_examples=200, deadline=None)
@given(packed_runs(), st.integers(1, 5))
def test_walk_packed_is_a_dict_walk_per_lane(run, top):
    tables, chosen, count, width = run
    assert_walks_agree(BOOL, tables, [(x, lane, 1) for x, lane in chosen], count, width)
    # values past 1, and several entries per lane, so NAT lane sums exceed 1
    starts = [(x, lane, 1 + (x + lane) % top) for x, lane in chosen]
    assert_walks_agree(NAT, tables, starts, count, width)


@pytest.mark.parametrize("ring", [BOOL, NAT])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_walk_packed_with_no_steps_or_an_emptying_table(ring, count):
    top = 1 if ring is BOOL else 3
    starts = [(x, lane, min(top, 1 + x)) for x in range(3) for lane in range(count)
              if x != lane]
    assert_walks_agree(ring, [], starts, count, 3)
    # the second table sends no index anywhere, so every column is zero
    tables = [[[0, 1], [1], [2]], [[], [], []]]
    assert walk_packed(ring, tables, starts, count, 2) == [None, None]
    assert_walks_agree(ring, tables[:1], starts, count, 3)


def test_walk_packed_chunks_and_widens_a_long_nat_run():
    # every index reaches every index, so the sums triple at every step: the
    # bound over 60 steps is 3^60 times the largest sum, past 8 bytes, and
    # the lanes widen part way through
    complete = [[0, 1, 2]] * 3
    starts = [(x, lane, 7 ** lane + x) for x in range(3) for lane in range(4)]
    got = walk_packed(NAT, [complete] * 60, starts, 4, 3)
    assert_walks_agree(NAT, [complete] * 60, starts, 4, 3)
    assert all(len(c) == 4 and min(c) > 1 << 64 for c in got)
