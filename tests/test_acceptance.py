"""End-to-end verification matrix.

Each test prints one pass/fail line.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they go by.

Everything here is exact (Boolean or integer equality); there are no
numerical tolerances to tune.
"""

import random

from autcob.automaton import rotations
from autcob.covers import cyclic_cover, fiber_projection, is_covering, voltage_cover
from autcob.diagrams import (
    Diagram,
    birth,
    cap,
    compose,
    cup,
    death,
    dot,
    ident,
    identity_diagram,
    tensor,
)
from autcob.evaluate import eval_nfa, eval_tautomaton
from autcob.oracle import chain_map_sum, circle_map_sum, regex_language
from autcob.semiring import BOOL, NAT, identity, kron
from autcob.topology import FinTop, TAutomaton, discrete, minimal_spaces
from util import (
    A2,
    BIALGEBRA,
    FOAM_DUALITY,
    FOAM_LAWS,
    H1,
    TWO_CYCLE,
    all_words,
    random_closed_diagram,
    random_diagram,
    random_nfa,
    random_tautomaton,
)

AB = ("a", "b")


def report(label, ok, detail=""):
    status = "PASS" if ok else f"FAIL{f' ({detail})' if detail else ''}"
    print(f"{label}: {status}")
    return ok


def circular_closure(words):
    return {r for w in words for r in rotations(w)}


# -- criterion 1: the two-state suite -----------------------------------------------


def test_c01a_interval_language_matches_regex_oracle():
    want = regex_language("(ab*a)*ab*", AB, 8)
    got = A2.interval_language(8)
    assert report("criterion 1a (interval vs (ab*a)*ab*, len <= 8)", got == want)


def test_c01b_trace_language_vs_stated_circular_pattern():
    """Faithful check of the stated reference pattern (a2 b*)*.

    The machine's b self-loop at the accepting state puts every pure-b
    cycle in the trace language, which the pattern omits, so this check
    fails on exactly the words b^k (1 <= k <= 8).  It is kept as stated
    rather than patched; the companion check below pins the actual trace
    language.
    """
    stated = circular_closure(regex_language("(aab*)*", AB, 8))
    got = A2.trace_language(8)
    diff = sorted(got ^ stated, key=lambda w: (len(w), w))
    ok = report(
        "criterion 1b (trace vs (a2b*)* circularly, len <= 8)",
        not diff,
        f"{len(diff)} words differ, e.g. {''.join(diff[0]) if diff else ''}",
    )
    assert ok, f"stated pattern misses {[''.join(w) for w in diff]}"


def test_c01b_companion_trace_language_derived():
    # every maximal circular a-run of a trace word is even: (aa+b)* rotated
    derived = circular_closure(regex_language("(aa+b)*", AB, 8))
    got = A2.trace_language(8)
    assert report(
        "criterion 1b' (trace vs derived circular pattern (aa+b)*)", got == derived
    )


def test_c01c_aba_is_a_trace_word():
    assert report("criterion 1c (aba trace)", A2.trace_eval("aba") is True)


# -- criterion 2: one-letter cycle and its cyclic covers ------------------------------


def test_c02_cyclic_covers_of_the_two_cycle():
    ok = all(TWO_CYCLE.interval_eval("a" * k) == (k % 2 == 0) for k in range(19))
    ok &= all(TWO_CYCLE.trace_eval("a" * k) == (k % 2 == 0) for k in range(19))
    cover3 = cyclic_cover(TWO_CYCLE, ["s0", "s1"], 3)
    ok &= all(
        cover3.interval_eval("a" * k) == TWO_CYCLE.interval_eval("a" * k)
        for k in range(19)
    )
    ok &= all(cover3.trace_eval("a" * k) == (k % 6 == 0) for k in range(19))
    for n in (2, 3, 5):
        cover = cyclic_cover(TWO_CYCLE, ["s0", "s1"], n)
        ok &= cover.trace_language(n - 1) == {()}
    assert report("criterion 2 (cyclic covers of the one-letter 2-cycle)", ok)


# -- criterion 3: covering invariants over random voltage covers ----------------------


def test_c03_random_voltage_covers_keep_interval_and_shrink_trace():
    rng = random.Random(33)
    ok = True
    for _ in range(100):
        base = random_nfa(rng, max_states=4)
        n = rng.randint(1, 3)
        voltages = {e: tuple(rng.sample(range(n), n)) for e in base.delta}
        cover = voltage_cover(base, n, voltages)
        proj = fiber_projection(cover, base)
        ok &= is_covering(proj, cover, base)
        ok &= cover.interval_language(6) == base.interval_language(6)
        ok &= cover.trace_language(6) <= base.trace_language(6)
    assert report("criterion 3 (100 random voltage covers, words <= 6)", ok)


# -- criterion 4: circular words through a marked state -------------------------------


def test_c04_marked_cycles_match_regex():
    pat = "(ba*b)* + (a*+bb)*bb(a*+bb)*"
    lang = regex_language(pat, AB, 7)
    ok = True
    for w in all_words(AB, 7):
        want = any(r in lang for r in rotations(w))
        ok &= H1.circular_through_subset({"q0"}, w) == want
    members = [w for w in all_words(AB, 7) if H1.circular_through_subset({"q0"}, w)]
    ok &= all("b" in w for w in members if w)
    assert report("criterion 4 (marked cycles vs (ba*b)* + ..bb.., len <= 7)", ok)


# -- criterion 5: strong circularity --------------------------------------------------


def test_c05_trace_evaluations_are_strongly_circular():
    rng = random.Random(55)
    ok = True
    for _ in range(200):
        nfa = random_nfa(rng, max_states=4)
        ok &= nfa.trace_eval("") is True
        for _ in range(6):
            w = tuple(rng.choice(AB) for _ in range(rng.randint(1, 4)))
            k = rng.randrange(len(w))
            ok &= nfa.trace_eval(w) == nfa.trace_eval(w[k:] + w[:k])
            if nfa.trace_eval(w):
                ok &= all(nfa.trace_eval(w * n) for n in range(5))
    for _ in range(50):
        taut = random_tautomaton(rng, max_points=4)
        ok &= taut.trace_eval("") is True
        for _ in range(4):
            w = tuple(rng.choice(AB) for _ in range(rng.randint(1, 4)))
            k = rng.randrange(len(w))
            ok &= taut.trace_eval(w) == taut.trace_eval(w[k:] + w[:k])
            if taut.trace_eval(w):
                ok &= all(taut.trace_eval(w * n) for n in range(5))
    assert report("criterion 5 (strong circularity, 200 automata + 50 spaces)", ok)


# -- criterion 6: path-integral oracle -------------------------------------------------


def test_c06_graph_map_sums_equal_matrix_evaluations():
    rng = random.Random(66)
    ok = True
    for _ in range(100):
        nfa = random_nfa(rng, max_states=4)
        idx = {q: i for i, q in enumerate(nfa.states)}
        n = len(nfa.states)
        for w in all_words(AB, 5):
            ok &= bool(chain_map_sum(nfa, w)) == nfa.interval_eval(w)
            ok &= bool(circle_map_sum(nfa, w)) == nfa.trace_eval(w)
        for w in all_words(AB, 4):
            m = nfa.word_matrix(w, NAT)
            count = sum(
                m.entries[idx[q] * n + idx[r]]
                for q in nfa.initial
                for r in nfa.accepting
            )
            ok &= chain_map_sum(nfa, w, NAT) == count
        ok &= circle_map_sum(nfa, "", NAT) == n
    assert report("criterion 6 (path-integral sums vs matrices, 100 automata)", ok)


# -- criterion 7: functor laws ----------------------------------------------------------


def test_c07_functor_laws_on_random_diagrams():
    rng = random.Random(77)
    ok = True

    zigzags = [
        Diagram.make([[cup("+"), ident("+")], [ident("+"), cap("-")]], domain=("+",)),
        Diagram.make([[ident("-"), cup("+")], [cap("-"), ident("-")]], domain=("-",)),
        Diagram.make([[cup("-"), ident("-")], [ident("-"), cap("+")]], domain=("-",)),
        Diagram.make([[ident("+"), cup("-")], [cap("+"), ident("+")]], domain=("+",)),
    ]
    slides = [
        (
            Diagram.make([[cup("+")], [dot("a", "+"), ident("-")]]),
            Diagram.make([[cup("+")], [ident("+"), dot("a", "-")]]),
        ),
        (
            Diagram.make([[dot("a", "-"), ident("+")], [cap("-")]], domain=("-", "+")),
            Diagram.make([[ident("-"), dot("a", "+")], [cap("-")]], domain=("-", "+")),
        ),
    ]
    for _ in range(30):
        nfa = random_nfa(rng, max_states=4)
        n = len(nfa.states)
        for z in zigzags:
            ok &= eval_nfa(nfa, z).matrix == identity(BOOL, n)
        for left, right in slides:
            ok &= eval_nfa(nfa, left).matrix == eval_nfa(nfa, right).matrix
        total = None
        for q in nfa.states:
            d = Diagram.make(
                [[death("+", label=q)], [birth("+", label=q)]], domain=("+",)
            )
            m = eval_nfa(nfa, d).matrix
            total = m if total is None else total + m
        ok &= total == identity(BOOL, n)
        d1 = random_diagram(rng, letters=AB, max_width=4, max_slices=3)
        d2 = random_diagram(rng, letters=AB, domain=d1.codomain, max_slices=3)
        ok &= (
            eval_nfa(nfa, compose(d1, d2)).matrix
            == eval_nfa(nfa, d2).matrix @ eval_nfa(nfa, d1).matrix
        )
        d3 = random_diagram(rng, letters=AB, max_width=2, max_slices=3)
        ok &= eval_nfa(nfa, tensor(d1, d3)).matrix == kron(
            eval_nfa(nfa, d1).matrix, eval_nfa(nfa, d3).matrix
        )
    assert report("criterion 7 (zig-zags, dot slides, functoriality)", ok)


# -- criterion 8: the foam suite over the open-set lattice -------------------------------


def ev(space, diagram):
    return eval_tautomaton(TAutomaton.bare(space), diagram).matrix


_ZIG_PLUS = Diagram.make(
    [[cup("+"), ident("+")], [ident("+"), cap("-")]], domain=("+",)
)
_ZIG_MINUS = Diagram.make(
    [[ident("-"), cup("+")], [cap("-"), ident("-")]], domain=("-",)
)


def _foam_contract_holds(space):
    """Zig-zags, the foam laws, the duality laws and the bialgebra
    inequality on one space."""
    ok = ev(space, _ZIG_PLUS) == ev(space, identity_diagram(("+",)))
    ok &= ev(space, _ZIG_MINUS) == ev(space, identity_diagram(("-",)))
    for pairs in FOAM_LAWS.values():
        for lhs, rhs in pairs:
            ok &= ev(space, lhs) == ev(space, rhs)
    for lhs, rhs in FOAM_DUALITY:
        ok &= ev(space, lhs) == ev(space.dual(), rhs)
    l, r = (ev(space, d) for d in BIALGEBRA)
    return ok & (l + r == r)


def test_c08_foam_suite_on_all_spaces_up_to_four_points():
    rng = random.Random(88)
    spaces = [s for n in (1, 2, 3, 4) for s in minimal_spaces(n)]
    assert len(spaces) == 24

    ok = True
    for space in spaces:
        ok &= _foam_contract_holds(space)
        for _ in range(5):
            foam = random_closed_diagram(rng, foam=True, endpoints=False)
            ok &= eval_tautomaton(TAutomaton.bare(space), foam).scalar() == 1
    # the at-most relation is strict somewhere on four points
    witness = FinTop.make(
        ["a", "b", "c", "d"],
        {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}, "d": {"a", "b", "d"}},
    )
    ok &= ev(witness, BIALGEBRA[0]) != ev(witness, BIALGEBRA[1])
    assert report("criterion 8 (foam laws on all 24 spaces <= 4 points)", ok)


def test_c08b_foam_suite_on_all_five_point_spaces():
    spaces = minimal_spaces(5)
    assert len(spaces) == 63
    ok = all(_foam_contract_holds(space) for space in spaces)
    assert report("criterion 8b (foam laws on all 63 five-point spaces)", ok)


def test_c08c_foam_suite_on_all_six_point_spaces():
    spaces = minimal_spaces(6)
    assert len(spaces) == 318
    ok = all(_foam_contract_holds(space) for space in spaces)
    assert report("criterion 8c (foam laws on all 318 six-point spaces)", ok)


# -- criterion 9: discrete spaces reproduce automata ---------------------------------------


def test_c09_discrete_tautomata_reproduce_automata():
    rng = random.Random(99)
    ok = True
    for _ in range(40):
        nfa = random_nfa(rng, max_states=3)
        taut = discrete(nfa)
        d = random_diagram(
            rng, letters=AB, max_width=3, max_slices=5, labels=nfa.states
        )
        ok &= eval_tautomaton(taut, d).matrix == eval_nfa(nfa, d).matrix
    for _ in range(30):
        nfa = random_nfa(rng, max_states=4)
        taut = discrete(nfa)
        for w in all_words(AB, 6):
            ok &= taut.interval_eval(w) == nfa.interval_eval(w)
            ok &= taut.trace_eval(w) == nfa.trace_eval(w)
    assert report("criterion 9 (discrete T-automata match automata)", ok)


def test_c09b_discrete_tautomata_reproduce_five_state_automata():
    rng = random.Random(995)
    ok = True
    for _ in range(20):
        nfa = random_nfa(rng, min_states=5, max_states=5)
        d = random_diagram(
            rng, letters=AB, max_width=3, max_slices=5, labels=nfa.states
        )
        ok &= eval_tautomaton(discrete(nfa), d).matrix == eval_nfa(nfa, d).matrix
    assert report("criterion 9b (discrete T-automata match 5-state automata)", ok)


# -- criterion 10: trimming --------------------------------------------------------------


def test_c10_trim_preserves_both_evaluations():
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        nfa = random_nfa(rng, max_states=4)
        trimmed = nfa.trim()
        ok &= trimmed.interval_language(8) == nfa.interval_language(8)
        ok &= trimmed.trace_language(8) == nfa.trace_language(8)
    assert report("criterion 10 (trim keeps both languages, words <= 8)", ok)
