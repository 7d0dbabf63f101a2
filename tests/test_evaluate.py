import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.diagrams import (
    COUNIT,
    MERGE,
    SPLIT,
    UNIT,
    Diagram,
    birth,
    cap,
    circle_diagram,
    compose,
    cup,
    death,
    dot,
    flip,
    ident,
    identity_diagram,
    interval_diagram,
    parse_diagram,
    swap,
    tensor,
)
from autcob import evaluate
from autcob.errors import CapacityError, DiagramTypeError
from autcob.evaluate import (
    MAX_DIM_PRODUCT,
    eval_circle,
    eval_interval,
    eval_nfa,
    eval_tautomaton,
)
from autcob.automaton import Nfa
from autcob.semiring import BOOL, NAT, identity, kron
from autcob.topology import FinTop, TAutomaton, discrete, minimal_spaces
from util import (
    A2,
    BIALGEBRA,
    FOAM_DUALITY,
    FOAM_LAWS,
    SIERPINSKI as S2,
    all_words,
    dense_eval_nfa,
    dense_eval_tautomaton,
    dense_word_matrix,
    random_closed_diagram,
    random_diagram,
    random_nfa,
    random_space,
    random_tautomaton,
)

seeds = st.integers(0, 10**6)

ZIGZAGS = [
    Diagram.make([[cup("+"), ident("+")], [ident("+"), cap("-")]], domain=("+",)),
    Diagram.make([[ident("-"), cup("+")], [cap("-"), ident("-")]], domain=("-",)),
    Diagram.make([[cup("-"), ident("-")], [ident("-"), cap("+")]], domain=("-",)),
    Diagram.make([[ident("+"), cup("-")], [cap("+"), ident("+")]], domain=("+",)),
]


def bare(space):
    return TAutomaton.bare(space)


def ev(space, diagram):
    return eval_tautomaton(bare(space), diagram).matrix


# -- evaluation of words -------------------------------------------------------


def test_interval_diagram_on_a2():
    assert eval_nfa(A2, interval_diagram("a")).scalar() == 1
    assert eval_nfa(A2, interval_diagram("aa")).scalar() == 0


def test_circle_diagram_on_a2():
    assert eval_nfa(A2, circle_diagram("a")).scalar() == 0
    assert eval_nfa(A2, circle_diagram("aba")).scalar() == 1


def test_bare_circle_counts_rank_over_nat():
    assert eval_nfa(A2, circle_diagram(""), NAT).scalar() == 2
    qqq = Nfa.make(["1", "2", "3"], ["a"], [], [], [])
    assert eval_nfa(qqq, circle_diagram(""), NAT).scalar() == 3


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_diagram_wrappers_agree_with_direct_evals(seed):
    nfa = random_nfa(random.Random(seed), max_states=3)
    for w in all_words(nfa.alphabet, 4):
        assert eval_interval(nfa, w) == nfa.interval_eval(w)
        assert eval_circle(nfa, w) == nfa.trace_eval(w)


def test_floating_interval_needs_overlap():
    d = parse_diagram("birth+ ; death+")
    assert eval_nfa(A2, d).scalar() == 0
    overlap = Nfa.make(["q"], ["a"], [], ["q"], ["q"])
    assert eval_nfa(overlap, d).scalar() == 1
    t = TAutomaton.make(S2, (), {"x"}, {"y"}, {})
    assert eval_tautomaton(t, d).scalar() == 0
    t2 = TAutomaton.make(S2, (), {"x", "y"}, {"y"}, {})
    assert eval_tautomaton(t2, d).scalar() == 1


def test_a_diagram_with_no_wires_evaluates_to_the_unit():
    t = TAutomaton.make(S2, (), {"x"}, {"y"}, {})
    for d in (Diagram.make([]), parse_diagram("")):
        for ring in (BOOL, NAT):
            assert eval_nfa(A2, d, ring).matrix.to_rows() == [[1]]
        assert eval_tautomaton(t, d).matrix.to_rows() == [[1]]


# -- wire-local contraction against dense layers ------------------------------------


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_contraction_matches_dense_layers_on_automata(seed):
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=4)
    d = random_diagram(rng, letters=nfa.alphabet, max_width=3, labels=nfa.states)
    for ring in (BOOL, NAT):
        assert eval_nfa(nfa, d, ring).matrix == dense_eval_nfa(nfa, d, ring)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_contraction_matches_dense_layers_on_tautomata(seed):
    rng = random.Random(seed)
    taut = random_tautomaton(rng, max_points=4)
    d = random_diagram(
        rng, letters=taut.alphabet, max_width=3, foam=True, labels=taut.space.points
    )
    assert eval_tautomaton(taut, d).matrix == dense_eval_tautomaton(taut, d)


def bare_strand_diagrams(a, b):
    """Bare '+' and '-' strands, which meet no generator, beside foam
    vertices, dots and swaps.  In the first, the bare '+' strand crosses
    the bare '-' strand and then a wire of the foam component; in the
    second, the bare '-' strand crosses both wires of a foam component;
    in the third, the bare '+' strand crosses a closed foam."""
    yield Diagram.make(
        [
            [ident("+"), ident("-"), MERGE],
            [swap("+", "-"), dot(a, "+")],
            [ident("-"), swap("+", "+")],
            [ident("-"), SPLIT, ident("+")],
        ],
        domain=("+", "-", "+", "+"),
    )
    yield Diagram.make(
        [
            [ident("-"), dot(b, "+"), UNIT],
            [swap("-", "+"), ident("+")],
            [ident("+"), swap("-", "+")],
            [MERGE, ident("-")],
            [dot(a, "+"), ident("-")],
        ],
        domain=("-", "+"),
    )
    yield Diagram.make(
        [
            [ident("+"), UNIT, ident("-")],
            [swap("+", "+"), dot(b, "-")],
            [COUNIT, ident("+"), ident("-")],
        ],
        domain=("+", "-"),
    )


def nondiscrete_tautomaton(rng):
    while True:
        taut = random_tautomaton(rng, max_points=3)
        if any(len(u) > 1 for u in taut._up):
            return taut


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_bare_strands_take_the_wire_idempotent(seed):
    # only a bare strand takes E, so its sign and its E must both show
    rng = random.Random(seed)
    taut = nondiscrete_tautomaton(rng)
    a, b = (rng.choice(taut.alphabet) for _ in range(2))
    inner = random_diagram(rng, letters=taut.alphabet, max_width=2, max_slices=3,
                           foam=True, labels=taut.space.points)
    left, right = (tuple(rng.choice("+-") for _ in range(rng.randint(0, 1)))
                   for _ in range(2))
    beside = tensor(tensor(identity_diagram(left), inner), identity_diagram(right))
    for d in (*bare_strand_diagrams(a, b), beside):
        assert eval_tautomaton(taut, d).matrix == dense_eval_tautomaton(taut, d)


def run_diagram(rng, letters, labels=(), foam=False, max_width=4):
    """A random diagram of long dot runs: runs of 2-8 dots on one wire of
    either sign, chained through births and deaths (labelled or not), cups
    and caps, and on spaces through split ; merge, units and counits, with
    swaps that cross wires of different components."""
    boundary = [rng.choice("+-") for _ in range(rng.randint(0, 2))]
    domain, slices = tuple(boundary), []

    def put(i, gens, width):
        # one slice: gens in place of the width wires at i, identities beside
        slices.append([ident(s) for s in boundary[:i]] + gens
                      + [ident(s) for s in boundary[i + width:]])
        boundary[i:i + width] = [s for g in gens for s in g.outputs()]

    def dots(i):
        for _ in range(rng.randint(2, 8)):
            put(i, [dot(rng.choice(letters), boundary[i])], 1)

    def end(sign, make):
        label = labels and sign == "+" and rng.random() < 0.4
        return make(sign, label=rng.choice(labels)) if label else make(sign)

    for _ in range(rng.randint(1, 6)):
        moves = ["birth"] if len(boundary) < max_width else []
        moves += ["cup"] if len(boundary) + 2 <= max_width else []
        moves += ["dots", "dots", "death"] if boundary else []
        moves += ["swap", "cap"] if len(boundary) >= 2 else []
        moves += ["split", "unit"] if foam and len(boundary) < max_width else []
        move = rng.choice(moves)
        i = rng.randrange(len(boundary)) if boundary else 0
        if move == "birth":
            i = rng.randint(0, len(boundary))
            sign = rng.choice("+-")
            put(i, [end(sign, birth)], 0)
            dots(i)
            if rng.random() < 0.5:
                put(i, [end(sign, death)], 1)
        elif move == "cup":
            i = rng.randint(0, len(boundary))
            put(i, [cup(rng.choice("+-"))], 0)
            dots(i + rng.randint(0, 1))
            if rng.random() < 0.5:
                put(i, [cap(boundary[i])], 2)
        elif move == "dots":
            dots(i)
        elif move == "death":
            sign = boundary[i]
            put(i, [end(sign, death)], 1)
            if rng.random() < 0.5:  # a death and a birth in one run
                put(i, [end(sign, birth)], 0)
                dots(i)
        elif move == "swap":
            i = rng.randrange(len(boundary) - 1)
            put(i, [swap(boundary[i], boundary[i + 1])], 2)
        elif move == "cap":
            pairs = [j for j in range(len(boundary) - 1) if boundary[j + 1] == flip(boundary[j])]
            if pairs:
                i = rng.choice(pairs)
                put(i, [cap(boundary[i])], 2)
        elif move == "split":
            pluses = [j for j, s in enumerate(boundary) if s == "+"]
            if pluses:
                i = rng.choice(pluses)
                dots(i)
                put(i, [SPLIT], 1)
                put(i, [MERGE], 2)
                dots(i)
        else:
            put(i, [UNIT], 0)
            dots(i)
            if rng.random() < 0.5:
                put(i, [COUNIT], 1)
    return Diagram.make(slices, domain)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_walked_runs_are_the_support_of_the_path_counts(seed):
    # both rings run each run of steps through one packed walk with a lane
    # per group of keys (a BOOL run of one group walks a set instead), so
    # this checks the two rings against each other; the next test checks
    # each against dense layers
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=4, density=rng.choice([0.2, 0.4, 0.7]))
    for _ in range(3):
        d = run_diagram(rng, nfa.alphabet, labels=nfa.states)
        counts = eval_nfa(nfa, d, NAT).matrix
        got = eval_nfa(nfa, d, BOOL).matrix
        assert got.entries == tuple(int(v != 0) for v in counts.entries)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_counted_runs_match_dense_layers(seed):
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=3, density=rng.choice([0.2, 0.4, 0.7, 1.0]))
    for _ in range(2):
        d = run_diagram(rng, nfa.alphabet, labels=nfa.states, max_width=3)
        for ring in (BOOL, NAT):
            assert eval_nfa(nfa, d, ring).matrix == dense_eval_nfa(nfa, d, ring)


@pytest.mark.parametrize("length", [1, 8, 40, 60, 200])
def test_counted_runs_are_exact_past_every_fixed_lane_width(length):
    # on the complete automaton on k states a^m has k^m closed paths, and
    # k^(m-1) paths between any two states
    k = 3
    states = [f"s{i}" for i in range(k)]
    nfa = Nfa.make(states, ["a"], [(x, "a", y) for x in states for y in states],
                   states[:1], states[-1:])
    w = "a" * length
    assert eval_nfa(nfa, circle_diagram(w), NAT).scalar() == k ** length
    assert eval_nfa(nfa, interval_diagram(w), NAT).scalar() == k ** (length - 1)
    strand = Diagram.make([[dot("a")] for _ in w], domain=("+",))
    assert eval_nfa(nfa, strand, NAT).matrix == nfa.word_matrix(w, NAT).transpose()


@pytest.mark.parametrize("n", [0, 1, 12, 40])
def test_bool_runs_of_many_lanes_match_set_walks_and_dense_products(n):
    # a circle's dots run with one lane per state, and so does a strand
    # with a domain wire, so n is the lane count; the interval is one
    # group.  The references walk sets (trace_eval, interval_eval) or
    # multiply dense letter matrices, never the packed walk
    rng = random.Random(n)
    for degree in (0.5, 1, 3):  # successors per state and letter, on average
        nfa = random_nfa(rng, max_states=n, min_states=n, density=degree / max(n, 1))
        for length in (0, 1, 2, 9, 30):
            w = "".join(rng.choice("ab") for _ in range(length))
            assert eval_circle(nfa, w) == nfa.trace_eval(w)
            assert eval_interval(nfa, w) == nfa.interval_eval(w)
            strand = Diagram.make([[dot(a)] for a in w], domain=("+",))
            assert (eval_nfa(nfa, strand, BOOL).matrix
                    == dense_word_matrix(nfa, w, BOOL).transpose())


def test_a_run_that_starts_from_counts_past_a_machine_word_is_exact():
    # a cup's two wires carry the dots of one closed walk: those on the '-'
    # wire run after those on the '+' wire, from its counts (3^59 on the
    # complete automaton), so their lanes start wider than a machine word
    states = ["p", "q", "r"]
    nfa = Nfa.make(states, ["a"], [(x, "a", y) for x in states for y in states],
                   ["p"], ["r"])
    left = [[dot("a"), ident("-")] for _ in range(60)]
    right = [[ident("+"), dot("a", "-")] for _ in range(60)]
    d = Diagram.make([[cup("+")], *left, *right, [cap("+")]])
    assert eval_nfa(nfa, d, NAT).scalar() == 3 ** 120
    assert eval_nfa(nfa, d, NAT).matrix == dense_eval_nfa(nfa, d, NAT)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_walked_runs_on_tautomata_match_dense_layers(seed):
    rng = random.Random(seed)
    taut = random_tautomaton(rng, max_points=3)
    d = run_diagram(rng, taut.alphabet, labels=taut.space.points, foam=True, max_width=3)
    assert eval_tautomaton(taut, d).matrix == dense_eval_tautomaton(taut, d)


def spy_contract(monkeypatch):
    """Record each ``_contract`` call as (nested, start keys, result): a
    nested call is a probe, which runs one key of a closed component."""
    calls, depth, real = [], [], evaluate._contract

    def spy(ring, tensor, runs, probe):
        start = dict(tensor)
        depth.append(None)
        try:
            out = real(ring, tensor, runs, probe)
        finally:
            depth.pop()
        calls.append((bool(depth), start, dict(out)))
        return out

    monkeypatch.setattr(evaluate, "_contract", spy)
    return calls


def basis_tables(machine):
    """The basis interface that word queries and the evaluator read."""
    return machine._index, machine._rows, machine._up, machine._ends


def test_evaluation_leaves_the_rows_it_reads_unchanged(monkeypatch):
    # '+' dots read Nfa._rows and TAutomaton._rows as their tables, bare '+'
    # strands read _up, and a birth's table is the cached _ends list itself,
    # whether a step applies them alone or a walk runs through them: no
    # evaluation may change them
    rng = random.Random(10)
    letters = ("a", "b")
    words = list(all_words(letters, 3))
    minus_circle = Diagram.make([[cup("-")], [dot("a", "-"), ident("+")], [cap("-")]])

    def diagrams(foam, labels):
        yield from (circle_diagram("abba"), interval_diagram("ab"), minus_circle,
                    identity_diagram(("+", "-")))
        for _ in range(10):
            yield random_diagram(rng, letters=letters, max_width=3, foam=foam,
                                 labels=labels)
            # runs of dots and chains through births, deaths, cups and caps
            # are packed walks on both rings (a set walk for one group over
            # BOOL), reading the same tables
            yield run_diagram(rng, letters, labels=labels, foam=foam, max_width=3)
        if foam:
            yield next(bare_strand_diagrams("a", "b"))
            for _ in range(5):
                yield random_closed_diagram(rng, letters=letters, foam=True)

    calls = spy_contract(monkeypatch)
    for _ in range(5):
        nfa = random_nfa(rng, max_states=4, alphabet=letters)
        taut = random_tautomaton(rng, max_points=4, alphabet=letters)
        before = copy.deepcopy([basis_tables(m) for m in (nfa, taut)])
        answers = [(m.interval_eval(w), m.trace_eval(w)) for m in (nfa, taut) for w in words]
        for d in diagrams(False, nfa.states):
            for ring in (BOOL, NAT):
                eval_nfa(nfa, d, ring)
        for d in diagrams(True, taut.space.points):
            eval_tautomaton(taut, d)
        assert [basis_tables(m) for m in (nfa, taut)] == before
        assert answers == [
            (m.interval_eval(w), m.trace_eval(w)) for m in (nfa, taut) for w in words
        ]
    # closed components over BOOL were probed one key at a time, some
    # probes deciding the value and some missing
    assert {bool(out) for nested, _, out in calls if nested} == {True, False}


def twelve_state_cycle():
    # a turns a 12-cycle one step; b jumps back three steps or stays at q0
    states = [f"q{i}" for i in range(12)]
    delta = [(states[i], "a", states[(i + 1) % 12]) for i in range(12)]
    delta += [(states[i], "b", states[i - 3]) for i in range(12)]
    return Nfa.make(states, ["a", "b"], delta + [("q0", "b", "q0")], [], [])


def test_two_side_by_side_circles_on_twelve_states():
    nfa = twelve_state_cycle()
    wants = set()
    for u, v in [("aaab", "b"), ("ab", "b"), ("aab", "aaab"), ("a", "ba")]:
        d = tensor(circle_diagram(u), circle_diagram(v))
        want = nfa.trace_eval(u) and nfa.trace_eval(v)
        assert eval_nfa(nfa, d).scalar() == int(want)
        wants.add(want)
    assert wants == {True, False}


# -- early stop of closed BOOL components, and the dense write ---------------------


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_closed_bool_diagrams_match_path_counts_and_dense_layers(seed):
    # a closed BOOL component stops at the first key whose paths give one;
    # NAT never stops, and dense layers never walk
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=3, density=rng.choice([0.2, 0.4, 0.7]))
    for _ in range(3):
        d = random_closed_diagram(rng, letters=nfa.alphabet, foam=False,
                                  endpoints=True, max_width=3)
        value = eval_nfa(nfa, d).scalar()
        assert value == int(eval_nfa(nfa, d, NAT).scalar() != 0)
        assert eval_nfa(nfa, d).matrix == dense_eval_nfa(nfa, d, BOOL)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_closed_foams_match_dense_layers(seed):
    rng = random.Random(seed)
    taut = random_tautomaton(rng, max_points=3)
    for _ in range(3):
        d = random_closed_diagram(rng, letters=taut.alphabet, foam=True,
                                  endpoints=rng.random() < 0.5, max_width=3)
        assert eval_tautomaton(taut, d).matrix == dense_eval_tautomaton(taut, d)


def test_a_probe_that_misses_leaves_the_value_to_the_other_keys(monkeypatch):
    # q0 -> q1 -> q1 under a: the cup's first key, (q0, q0), walks to
    # (q1, q0) and closes nothing; the second, (q1, q1), closes the circle
    nfa = Nfa.make(["q0", "q1"], ["a"], [("q0", "a", "q1"), ("q1", "a", "q1")], [], [])
    calls = spy_contract(monkeypatch)
    assert eval_nfa(nfa, circle_diagram("a")).scalar() == 1 == int(nfa.trace_eval("a"))
    assert calls == [(True, {0: 1}, {}), (False, {0: 1}, {0: 1})]
    calls.clear()
    assert eval_nfa(nfa, circle_diagram("a"), NAT).scalar() == 1
    assert calls == [(False, {0: 1}, {0: 1})]


def test_a_zero_circle_runs_every_key(monkeypatch):
    # on Z_64, a adds 1 or 2 and b adds 1 or 3, so "ab"*10 moves a state by
    # 20 to 50 and no walk closes: the one probe misses, and the other keys
    # go on together, with no second probe, and give zero
    n = 64
    states = [f"x{i}" for i in range(n)]
    delta = [(states[i], a, states[(i + k) % n]) for i in range(n)
             for a, steps in (("a", (1, 2)), ("b", (1, 3))) for k in steps]
    nfa = Nfa.make(states, ["a", "b"], delta, [], [])
    w = "ab" * 10
    calls = spy_contract(monkeypatch)
    assert eval_nfa(nfa, circle_diagram(w)).scalar() == 0 == int(nfa.trace_eval(w))
    assert [(nested, out) for nested, _, out in calls] == [(True, {}), (False, {})]
    assert eval_nfa(nfa, circle_diagram(w), NAT).scalar() == 0


def test_open_counts_take_the_product_with_every_component():
    # on the complete automaton a word of k letters joins any two states by
    # 3^(k-1) paths and closes 3^k walks, so each component's entries exceed
    # one and the fold and the dense write multiply them
    states = ["p", "q", "r"]
    nfa = Nfa.make(states, ["a", "b"],
                   [(x, a, y) for x in states for a in "ab" for y in states], [], [])

    def strand(w):
        return Diagram.make([[dot(a)] for a in w], domain=("+",))

    d = tensor(strand("aa"), tensor(circle_diagram("ab"), strand("bab")))
    m = eval_nfa(nfa, d, NAT).matrix
    assert m == dense_eval_nfa(nfa, d, NAT)
    assert set(m.entries) == {3 * 9 * 9}  # aa, the circle ab, bab
    assert eval_nfa(nfa, d).matrix == dense_eval_nfa(nfa, d, BOOL)


# -- functor laws ----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seeds, seeds)
def test_functoriality_under_compose_and_tensor(seed1, seed2):
    rng = random.Random(seed1)
    nfa = random_nfa(rng, max_states=3)
    d1 = random_diagram(rng, letters=nfa.alphabet, max_width=3, max_slices=3)
    d2 = random_diagram(
        random.Random(seed2), letters=nfa.alphabet, domain=d1.codomain, max_slices=3
    )
    left = eval_nfa(nfa, compose(d1, d2)).matrix
    right = eval_nfa(nfa, d2).matrix @ eval_nfa(nfa, d1).matrix
    assert left == right
    d3 = random_diagram(random.Random(seed2 + 1), letters=nfa.alphabet, max_width=2, max_slices=3)
    for ring in (BOOL, NAT):
        assert eval_nfa(nfa, tensor(d1, d3), ring).matrix == kron(
            eval_nfa(nfa, d1, ring).matrix, eval_nfa(nfa, d3, ring).matrix
        )


@settings(max_examples=15, deadline=None)
@given(seeds, seeds)
def test_functoriality_for_spaces(seed1, seed2):
    rng = random.Random(seed1)
    taut = random_tautomaton(rng, max_points=3)
    d1 = random_diagram(rng, letters=taut.alphabet, max_width=3, max_slices=3, foam=True)
    d2 = random_diagram(
        random.Random(seed2), letters=taut.alphabet, domain=d1.codomain,
        max_slices=3, foam=True,
    )
    left = eval_tautomaton(taut, compose(d1, d2)).matrix
    assert left == eval_tautomaton(taut, d2).matrix @ eval_tautomaton(taut, d1).matrix
    d3 = random_diagram(
        random.Random(seed2 + 1), letters=taut.alphabet, max_width=2,
        max_slices=3, foam=True,
    )
    assert eval_tautomaton(taut, tensor(d1, d3)).matrix == kron(
        eval_tautomaton(taut, d1).matrix, eval_tautomaton(taut, d3).matrix
    )


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_zigzags_are_identities(seed):
    nfa = random_nfa(random.Random(seed))
    n = len(nfa.states)
    for z in ZIGZAGS:
        assert eval_nfa(nfa, z).matrix == identity(BOOL, n)
        assert eval_nfa(nfa, z, NAT).matrix == identity(NAT, n)


def test_zigzags_for_spaces_give_the_identity_wire():
    spaces = [s for n in (1, 2, 3, 4) for s in minimal_spaces(n)]
    rng = random.Random(5)
    spaces += [random_space(rng, max_points=5, min_points=5) for _ in range(10)]
    for space in spaces:
        plus = ev(space, identity_diagram(("+",)))
        minus = ev(space, identity_diagram(("-",)))
        assert ev(space, ZIGZAGS[0]) == plus
        assert ev(space, ZIGZAGS[3]) == plus
        assert ev(space, ZIGZAGS[1]) == minus
        assert ev(space, ZIGZAGS[2]) == minus


@settings(max_examples=25, deadline=None)
@given(seeds, st.sampled_from("ab"))
def test_dot_slides_across_cups_and_caps(seed, letter):
    nfa = random_nfa(random.Random(seed))
    pairs = [
        (
            Diagram.make([[cup("+")], [dot(letter, "+"), ident("-")]]),
            Diagram.make([[cup("+")], [ident("+"), dot(letter, "-")]]),
        ),
        (
            Diagram.make([[cup("-")], [dot(letter, "-"), ident("+")]]),
            Diagram.make([[cup("-")], [ident("-"), dot(letter, "+")]]),
        ),
        (
            Diagram.make([[dot(letter, "-"), ident("+")], [cap("-")]], domain=("-", "+")),
            Diagram.make([[ident("-"), dot(letter, "+")], [cap("-")]], domain=("-", "+")),
        ),
        (
            Diagram.make([[dot(letter, "+"), ident("-")], [cap("+")]], domain=("+", "-")),
            Diagram.make([[ident("+"), dot(letter, "-")], [cap("+")]], domain=("+", "-")),
        ),
    ]
    for left, right in pairs:
        assert eval_nfa(nfa, left).matrix == eval_nfa(nfa, right).matrix


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_decomposition_of_identity(seed):
    nfa = random_nfa(random.Random(seed))
    total = None
    for q in nfa.states:
        d = Diagram.make([[death("+", label=q)], [birth("+", label=q)]], domain=("+",))
        m = eval_nfa(nfa, d).matrix
        total = m if total is None else total + m
    assert total == identity(BOOL, len(nfa.states))


def test_decomposition_of_identity_for_spaces():
    for space in minimal_spaces(3):
        total = None
        for x in space.points:
            d = Diagram.make(
                [[death("+", label=x)], [birth("+", label=x)]], domain=("+",)
            )
            m = ev(space, d)
            total = m if total is None else total + m
        assert total == ev(space, identity_diagram(("+",)))


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_generator_images_are_balanced(seed):
    """E . G . E' == G for every generator image and its boundary
    idempotents."""
    taut = random_tautomaton(random.Random(seed), max_points=3)
    gens = [
        ident("+"), ident("-"), cup("+"), cup("-"), cap("+"), cap("-"),
        dot("a", "+"), dot("a", "-"), swap("+", "-"), swap("+", "+"),
        birth("+"), birth("-"), death("+"), death("-"),
        MERGE, SPLIT, UNIT, COUNIT,
    ]
    for g in gens:
        d = Diagram.make([[g]], domain=g.inputs())
        m = eval_tautomaton(taut, d).matrix
        e_in = eval_tautomaton(taut, identity_diagram(g.inputs())).matrix
        e_out = eval_tautomaton(taut, identity_diagram(g.outputs())).matrix
        assert e_out @ m @ e_in == m


# -- T-automata against automata ---------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_discrete_space_reproduces_free_evaluation(seed1, seed2):
    nfa = random_nfa(random.Random(seed1), max_states=3)
    taut = discrete(nfa)
    d = random_diagram(
        random.Random(seed2), letters=nfa.alphabet, max_width=3, max_slices=5,
        labels=nfa.states,
    )
    assert eval_tautomaton(taut, d).matrix == eval_nfa(nfa, d).matrix


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_taut_word_diagrams_agree_with_lattice_evaluations(seed):
    """Interval and circle diagrams, evaluated through the ambient matrices,
    must reproduce the set-level lattice evaluations."""
    taut = random_tautomaton(random.Random(seed), max_points=4)
    for w in all_words(taut.alphabet, 3):
        got = eval_tautomaton(taut, interval_diagram(w)).scalar() == 1
        assert got == taut.interval_eval(w)
        got = eval_tautomaton(taut, circle_diagram(w)).scalar() == 1
        assert got == taut.trace_eval(w)


def test_foam_generators_rejected_on_bare_automata():
    d = Diagram.make([[UNIT], [COUNIT]])
    with pytest.raises(ValueError, match="topological state space"):
        eval_nfa(A2, d)


def test_unknown_diagram_letters_rejected():
    d = interval_diagram("z")
    with pytest.raises(KeyError):
        eval_nfa(A2, d)
    with pytest.raises(KeyError):
        eval_tautomaton(discrete(A2), d)


def test_unknown_letter_is_refused_before_a_foam_vertex():
    d = Diagram.make([[UNIT], [dot("z")], [COUNIT]])
    with pytest.raises(KeyError, match=r"unknown letters \['z'\]"):
        eval_nfa(A2, d)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_an_automaton_and_its_discrete_space_hold_the_same_tables(seed):
    # discrete() hands the automaton's tables on; a T-automaton built from
    # the same space and letters derives its own, and they must be equal
    nfa = random_nfa(random.Random(seed), max_states=5)
    taut = discrete(nfa)
    rebuilt = TAutomaton.make(taut.space, taut.alphabet, taut.initial_open,
                              taut.accepting_closed, taut.letters)
    assert basis_tables(nfa) == basis_tables(taut) == basis_tables(rebuilt)


def test_an_ill_typed_diagram_fails_on_every_evaluation():
    # the codomain is cached once typechecked; a failed typecheck is not
    d = Diagram.make([[cup("+")], [ident("-"), ident("+")]])
    for _ in range(2):
        with pytest.raises(DiagramTypeError) as err:
            eval_nfa(A2, d)
        assert err.value.slice_index == 1


def test_a_diagram_is_typechecked_once(monkeypatch):
    d = circle_diagram("aa")
    calls = []
    typecheck = Diagram.typecheck
    monkeypatch.setattr(Diagram, "typecheck", lambda e: calls.append(e) or typecheck(e))
    assert eval_nfa(A2, d).scalar() == eval_tautomaton(discrete(A2), d).scalar() == 1
    assert eval_nfa(A2, d, NAT).scalar() == 2  # from q1 and from q2
    # a five-cycle with a loop at 0: the one closed walk of length 2 is 0 0 0
    five = Nfa.make(range(5), "a", [(q, "a", (q + 1) % 5) for q in range(5)] + [(0, "a", 0)])
    assert eval_nfa(five, d, NAT).scalar() == eval_nfa(five, d).scalar() == 1
    assert calls == [d]


# -- foam laws ----------------------------------------------------------------------


def spaces_up_to(n):
    for k in range(1, n + 1):
        yield from minimal_spaces(k)


def assert_laws_hold_on_small_spaces(*laws):
    for space in spaces_up_to(4):
        for law in laws:
            for lhs, rhs in FOAM_LAWS[law]:
                assert ev(space, lhs) == ev(space, rhs), law


def test_algebra_laws_hold_on_small_spaces():
    assert_laws_hold_on_small_spaces("associativity", "commutativity", "unit")


def test_coalgebra_laws_hold_on_small_spaces():
    assert_laws_hold_on_small_spaces("coassociativity", "cocommutativity", "counit")


def test_split_then_merge_is_identity():
    assert_laws_hold_on_small_spaces("split-merge")


def test_vertices_on_minus_wires_match_the_dual_space():
    for space in spaces_up_to(4):
        for lhs, rhs in FOAM_DUALITY:
            assert ev(space, lhs) == ev(space.dual(), rhs)


def test_split_of_merge_dominates_merge_of_splits():
    for space in spaces_up_to(4):
        l, r = (ev(space, d) for d in BIALGEBRA)
        assert l + r == r  # pointwise at-most on every basis pair


def test_bialgebra_axiom_fails_on_a_four_point_space():
    space = FinTop.make(
        ["a", "b", "c", "d"],
        {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}, "d": {"a", "b", "d"}},
    )
    assert ev(space, BIALGEBRA[0]) != ev(space, BIALGEBRA[1])


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_closed_defect_free_foams_evaluate_to_one(seed):
    rng = random.Random(seed)
    d = random_closed_diagram(rng, foam=True, endpoints=False)
    space = random_space(rng, max_points=4)
    assert eval_tautomaton(bare(space), d).scalar() == 1


# -- capacity ------------------------------------------------------------------------


def test_width_guard():
    wide = Nfa.make([f"q{i}" for i in range(33)], ["a"], [], [], [])
    d = identity_diagram(("+",) * 4)
    with pytest.raises(CapacityError):
        eval_nfa(wide, d)


def test_guard_bounds_the_result_before_evaluating(monkeypatch):
    # 8^6 domain columns fit under the cap, the 8^12-entry result does not
    eight = Nfa.make([f"q{i}" for i in range(8)], ["a"], [], [], [])

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the guard")

    # the model is read before any running tensor or table is made, and
    # every running tensor is contracted inside ``_contract``
    monkeypatch.setattr(evaluate, "_contract", no_allocation)
    monkeypatch.setattr(evaluate, "_model", no_allocation)
    with pytest.raises(CapacityError) as err:
        eval_nfa(eight, identity_diagram(("+",) * 6))
    assert str(8**12) in str(err.value)
    assert str(MAX_DIM_PRODUCT) in str(err.value)


def test_guard_bounds_the_widest_boundary():
    # a connected zigzag: domain and codomain are one wire, the middle five
    sixteen = Nfa.make([f"q{i}" for i in range(16)], ["a"], [], [], [])
    d = Diagram.make(
        [[ident("+"), cup("-"), cup("-")], [cap("+"), cap("+"), ident("+")]],
        domain=("+",),
    )
    with pytest.raises(CapacityError, match=str(16**6)):
        eval_nfa(sixteen, d)


def test_side_by_side_circles_beside_a_wire_are_the_identity():
    # three components, none wider than two wires
    sixteen = Nfa.make([f"q{i}" for i in range(16)], ["a"], [], [], [])
    d = Diagram.make(
        [[ident("+"), cup("+"), cup("+")], [ident("+"), cap("+"), cap("+")]],
        domain=("+",),
    )
    assert eval_nfa(sixteen, d).matrix == identity(BOOL, 16)


def test_guard_names_the_component_over_the_cap(monkeypatch):
    # a bare circle, then a connected closed diagram four wires wide:
    # 33^4 entries, while the circle and the scalar result fit
    wide = Nfa.make([f"q{i}" for i in range(33)], ["a"], [], [], [])
    four = Diagram.make([[cup("+")], [ident("+"), cup("-"), ident("-")], [cap("+"), cap("+")]])
    d = tensor(circle_diagram(""), four)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the guard")

    monkeypatch.setattr(evaluate, "_contract", no_allocation)
    monkeypatch.setattr(evaluate, "_model", no_allocation)
    with pytest.raises(CapacityError) as err:
        eval_nfa(wide, d)
    assert "component 2 of 2" in str(err.value)
    assert str(33**4) in str(err.value)


def test_three_side_by_side_circles_on_twelve_states():
    nfa = twelve_state_cycle()
    words = [("aaab", "b", "a"), ("ab", "aab", "aaab"), ("", "b", "bb"), ("a", "ba", "")]
    wants = set()
    for u, v, w in words:
        d = tensor(tensor(circle_diagram(u), circle_diagram(v)), circle_diagram(w))
        want = nfa.trace_eval(u) and nfa.trace_eval(v) and nfa.trace_eval(w)
        assert eval_nfa(nfa, d).scalar() == int(want)
        wants.add(want)
        counts = 1
        for x in (u, v, w):
            counts *= dense_word_matrix(nfa, x, NAT).trace()
        assert eval_nfa(nfa, d, NAT).scalar() == counts
    assert wants == {True, False}


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_strands_crossing_between_components_match_dense_layers(seed):
    # four components: three through-strands and a circle with a dot on
    # each side; the first strand crosses the second and both sides of the
    # circle
    rng = random.Random(seed)
    nfa = random_nfa(rng, max_states=3, min_states=2, density=0.6)
    a, b, c, e, f = (rng.choice(nfa.alphabet) for _ in range(5))
    d = Diagram.make(
        [
            [dot(a, "+"), ident("+"), cup("-"), dot(b, "-")],
            [swap("+", "+"), dot(c, "-"), ident("+"), ident("-")],
            [ident("+"), swap("+", "-"), dot(f, "+"), ident("-")],
            [ident("+"), ident("-"), swap("+", "+"), ident("-")],
            [ident("+"), cap("-"), dot(e, "+"), ident("-")],
        ],
        domain=("+", "+", "-"),
    )
    assert len(d._plan[1]) == 4
    # the cached plan serves every n: the random automaton, then 0 and 1 states
    for m in (nfa, random_nfa(rng, max_states=0, min_states=0),
              random_nfa(rng, max_states=1, density=0.6)):
        for ring in (BOOL, NAT):
            assert eval_nfa(m, d, ring).matrix == dense_eval_nfa(m, d, ring)
