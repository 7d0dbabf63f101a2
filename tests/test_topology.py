import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.errors import CapacityError
from autcob.topology import (
    Endo,
    FinTop,
    TAutomaton,
    comult,
    counit,
    discrete,
    endo_validate,
    endo_violations,
    minimal_spaces,
    reduce_space,
    space_from_preorder,
)
from util import A2, SIERPINSKI as S2, all_words, random_endo, random_space, random_tautomaton

seeds = st.integers(0, 10**6)


# -- spaces and opens -----------------------------------------------------------


def test_discrete_opens_are_all_subsets():
    x = FinTop.discrete(["x", "y"])
    assert {frozenset(o.members) for o in x.opens()} == {
        frozenset(s) for k in range(3) for s in combinations(["x", "y"], k)
    }


def test_sierpinski_opens():
    assert [sorted(o.members) for o in S2.opens()] == [[], ["x"], ["x", "y"]]
    assert S2.is_open({"y"}) is False
    assert S2.is_open({"x"}) is True
    assert S2.is_closed({"y"}) is True


def test_open_check_names_unknown_points_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match=r"unknown points \['z'\]"):
            S2.is_open({"x", "z"})
    assert S2.is_open(set()) is True
    assert S2.is_closed({"x", "y"}) is True
    assert S2.is_closed({"x"}) is False


@settings(max_examples=30)
@given(seeds)
def test_opens_enumeration_matches_subset_filter(seed):
    space = random_space(random.Random(seed), max_points=5)
    want = set()
    pts = list(space.points)
    for bits in range(1 << len(pts)):
        s = frozenset(p for i, p in enumerate(pts) if bits >> i & 1)
        if space.is_open(s):
            want.add(s)
    assert {o.members for o in space.opens()} == want


def test_opens_cap():
    big = FinTop.discrete([f"p{i}" for i in range(8)])
    with pytest.raises(CapacityError):
        big.opens(cap=100)


def test_unknown_point_errors():
    with pytest.raises(ValueError):
        S2.is_open({"zz"})
    with pytest.raises(ValueError):
        S2.min_open_of("zz")


def test_closed_check_names_unknown_points():
    with pytest.raises(ValueError, match=r"unknown points \['zz'\]"):
        S2.is_closed({"y", "zz"})
    with pytest.raises(ValueError, match=r"unknown points \['zz'\]"):
        TAutomaton.make(S2, (), {"x"}, {"zz"}, {})


def test_validation():
    with pytest.raises(ValueError, match="missing from its own"):
        FinTop.make(["x"], {"x": set()})
    with pytest.raises(ValueError, match="inconsistent"):
        FinTop.make(
            ["x", "y", "z"], {"x": {"x", "y"}, "y": {"y", "z"}, "z": {"z"}}
        )
    with pytest.raises(ValueError, match="not minimal"):
        FinTop.make(["x", "y"], {"x": {"x", "y"}, "y": {"x", "y"}})


def test_reduce_merges_duplicate_basis_points():
    r = reduce_space(["x", "y"], {"x": {"x", "y"}, "y": {"x", "y"}})
    assert r.points == ("x",)
    assert r.min_open_of("x") == frozenset({"x"})


def test_dual_space():
    d = S2.dual()
    assert sorted(d.min_open_of("x")) == ["x", "y"]
    assert sorted(d.min_open_of("y")) == ["y"]
    disc = FinTop.discrete(["a", "b"])
    assert disc.dual() == disc


@settings(max_examples=50)
@given(seeds)
def test_double_dual_is_identity(seed):
    x = random_space(random.Random(seed), max_points=5)
    assert x.dual().dual() == x


def test_minimal_space_counts():
    # the number of posets on n points, OEIS A000112
    assert [len(minimal_spaces(n)) for n in range(7)] == [1, 1, 2, 5, 16, 63, 318]


def _least_relation(n, rel):
    """The least sorted relation of ``rel`` over all n! relabellings."""
    return min(
        tuple(sorted((p[i], p[j]) for i, j in rel)) for p in permutations(range(n))
    )


def _space_class(space):
    pts = space.points
    return _least_relation(len(pts), [
        (i, j) for j, y in enumerate(pts) for i, x in enumerate(pts)
        if x != y and x in space.min_open[y]
    ])


def _poset_classes(n):
    """Every partial order on n points up to relabelling, found by trying
    every relation and keeping the antisymmetric, transitive ones."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = set()
    for bits in range(1 << len(pairs)):
        rel = {e for b, e in enumerate(pairs) if bits >> b & 1}
        if any((j, i) in rel for i, j in rel):
            continue
        if any((i, k) not in rel for i, j in rel for j2, k in rel if j == j2):
            continue
        out.add(_least_relation(n, rel))
    return out


def test_minimal_spaces_are_the_poset_classes():
    for n in range(5):
        spaces = minimal_spaces(n)
        assert all(s.points == tuple(f"x{i}" for i in range(n)) for s in spaces)
        assert sorted(map(_space_class, spaces)) == sorted(_poset_classes(n))
    # no two of the five-point spaces are homeomorphic
    assert len({_space_class(s) for s in minimal_spaces(5)}) == 63


def test_space_from_preorder_quotients_cycles():
    x = space_from_preorder(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "c")])
    assert len(x.points) == 2  # a and b collapse


# -- lattice operations -----------------------------------------------------------


def test_meet_join_examples():
    full = S2.open_set({"x", "y"})
    pt = S2.open_set({"x"})
    assert (pt & full).members == {"x"}
    assert (pt | full).members == {"x", "y"}
    assert (full & full).members == {"x", "y"}


def test_meet_space_mismatch():
    other = FinTop.discrete(["x", "y"])
    with pytest.raises(ValueError):
        S2.open_set({"x"}) & other.open_set({"x"})


@settings(max_examples=40)
@given(seeds, seeds)
def test_lattice_laws(seed, pick):
    x = random_space(random.Random(seed))
    opens = x.opens()
    rng = random.Random(pick)
    u, v, w = (rng.choice(opens) for _ in range(3))
    top = x.open_set(set(x.points))
    assert (u & top) == u
    assert (u & (v | w)) == ((u & v) | (u & w))
    assert (u | (v & w)) == ((u | v) & (u | w))
    assert (u & v) == (v & u)


# -- comultiplication ---------------------------------------------------------------


def test_comult_examples():
    assert comult(S2.open_set(set())) == []
    pairs = comult(S2.open_set({"x", "y"}))
    assert [(sorted(a.members), sorted(b.members)) for a, b in pairs] == [
        (["x"], ["x"]),
        (["x", "y"], ["x", "y"]),
    ]
    assert counit(S2.open_set(set())) is False
    assert counit(S2.open_set({"x"})) is True


@settings(max_examples=40)
@given(seeds, seeds)
def test_pairing_duality(seed, pick):
    """Pairing a closed set against a meet agrees with pairing its dual
    comultiplication against the tensor factors."""
    x = random_space(random.Random(seed))
    opens = x.opens()
    rng = random.Random(pick)
    u1, u2 = rng.choice(opens).members, rng.choice(opens).members
    v = frozenset(x.points) - rng.choice(opens).members  # a closed set
    lhs = bool(v & u1 & u2)
    rhs = any(
        bool(x.closure_of(p) & u1) and bool(x.closure_of(p) & u2)
        for p in x.points
        if x.closure_of(p) <= v
    )
    assert lhs == rhs


# -- endomorphisms -----------------------------------------------------------------


def test_endo_identity_trace():
    assert Endo.identity(S2).trace() is True


def test_endo_constant_empty_trace():
    t = Endo(S2, {"x": set(), "y": set()})
    assert t.trace() is False


def test_endo_constant_full_trace():
    t = Endo(S2, {"x": {"x", "y"}, "y": {"x", "y"}})
    assert t.trace() is True


def test_endo_validation_reports_offending_pair():
    image = {"x": {"x", "y"}, "y": {"x"}}
    assert endo_validate(S2, image) is False
    with pytest.raises(ValueError, match=r"\(x, y\)"):
        Endo(S2, image)
    with pytest.raises(ValueError, match="not open"):
        Endo(S2, {"x": {"y"}, "y": {"x", "y"}})
    with pytest.raises(ValueError, match="no image"):
        Endo(S2, {"x": {"x"}})


def test_on_a_discrete_space_only_missing_images_and_unknown_points_fail():
    # every set is open and every map monotone there, so each total image
    # is an endomorphism
    space = FinTop.discrete(["x", "y", "z"])
    subsets = [set(s) for k in range(4) for s in combinations("xyz", k)]
    for image in map(dict, product(*[[(p, s) for s in subsets] for p in "xyz"])):
        assert endo_violations(space, image) == []
    assert endo_violations(space, {"x": {"y"}}) == ["no image for y", "no image for z"]
    with pytest.raises(ValueError, match=r"unknown points \['w'\]"):
        endo_violations(space, {"x": {"y"}, "y": {"w"}, "z": set()})


def test_endo_apply_respects_union():
    t = Endo(S2, {"x": {"x"}, "y": {"x", "y"}})
    assert t.apply({"x", "y"}) == {"x", "y"}
    assert t.apply(set()) == set()
    with pytest.raises(ValueError):
        t.apply({"y"})


@settings(max_examples=30)
@given(seeds, st.integers(1, 5))
def test_endo_trace_survives_powers(seed, n):
    rng = random.Random(seed)
    space = random_space(rng)
    t = random_endo(rng, space)
    if t.trace():
        assert t.power(n).trace() is True


# -- T-automata ---------------------------------------------------------------------


def test_taut_validation():
    with pytest.raises(ValueError, match="not open"):
        TAutomaton.make(S2, (), {"y"}, set(), {})
    with pytest.raises(ValueError, match="not closed"):
        TAutomaton.make(S2, (), set(), {"x"}, {})
    with pytest.raises(ValueError, match="cover the alphabet"):
        TAutomaton.make(S2, ("a",), set(), set(), {})


def test_taut_empty_word():
    t = TAutomaton.make(S2, (), {"x", "y"}, {"y"}, {})
    assert t.interval_eval("") is True
    assert TAutomaton.bare(S2).interval_eval("") is False


def test_discrete_taut_agrees_with_nfa():
    t = discrete(A2)
    for w in all_words(("a", "b"), 6):
        assert t.interval_eval(w) == A2.interval_eval(w)
        assert t.trace_eval(w) == A2.trace_eval(w)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_taut_trace_is_strongly_circular(seed):
    rng = random.Random(seed)
    t = random_tautomaton(rng)
    assert t.trace_eval("") is True
    for w in all_words(("a", "b"), 3):
        if w:
            assert t.trace_eval(w[1:] + w[:1]) == t.trace_eval(w)  # rotation
        if t.trace_eval(w):
            for n in range(5):
                assert t.trace_eval(w * n)


def test_taut_sierpinski_example():
    grow = Endo(S2, {"x": {"x"}, "y": {"x", "y"}})
    shrink = Endo(S2, {"x": {"x"}, "y": {"x"}})
    t = TAutomaton.make(S2, ("g", "s"), {"x"}, {"y"}, {"g": grow, "s": shrink})
    assert t.interval_eval("") is False  # {x} misses the closed set {y}
    assert t.trace_eval("s") is True  # x stays inside its own open
    assert t.trace_eval("gs") is True


def test_taut_json_round_trip():
    t = random_tautomaton(random.Random(7))
    assert TAutomaton.from_json(t.to_json()) == t
    data = t.to_json_dict()
    data["extra"] = 1
    with pytest.raises(ValueError, match="unknown"):
        TAutomaton.from_json_dict(data)


def test_fintop_json_round_trip():
    assert FinTop.from_json(__import__("json").dumps(S2.to_json_dict())) == S2
