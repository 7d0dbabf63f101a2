"""Covering constructions on automata and covering checks.

A (weak) covering is a surjective map of labelled oriented graphs that
preserves initial/accepting decorations by exact preimage.  Coverings lift
edges uniquely on both sides of every state (local triviality); weak
coverings only guarantee that every out-edge of the base lifts somewhere.
Either way the cover keeps the interval language and can only shrink the
trace language.
"""

from __future__ import annotations

from .automaton import Nfa
from .errors import CapacityError, Record

#: The most states plus transitions a cover may have.
MAX_COVER_SIZE = 1 << 16


class GraphMap(Record):
    """A map of automaton graphs, given by its map of states: ``Nfa.delta``
    is a set of triples, so it sends a transition (q, a, r) to
    (vm[q], a, vm[r])."""

    _fields = ("vertex_map",)

    def __init__(self, vertex_map: dict):
        self.__dict__["vertex_map"] = vertex_map

    @classmethod
    def from_vertex_map(cls, cover: Nfa, base: Nfa, vertex_map: dict) -> GraphMap:
        """The map of states given; fails if some cover edge has no image
        edge, naming the least such edge, so every process names the same."""
        vm, delta = dict(vertex_map), base.delta
        bad = [(q, a, r) for q, a, r in cover.delta
               if q not in vm or r not in vm or (vm[q], a, vm[r]) not in delta]
        if bad:
            q, a, r = min(bad)
            if q not in vm or r not in vm:
                raise ValueError(f"vertex map is not total on edge ({q}, {a}, {r})")
            raise ValueError(f"edge ({q}, {a}, {r}) has no image in the base")
        return cls(vm)


def fiber_projection(cover: Nfa, base: Nfa, sep: str = "@") -> GraphMap:
    """Projection for covers built here, whose states are named base@fiber."""
    vm = {q: q.rsplit(sep, 1)[0] for q in cover.states}
    return GraphMap.from_vertex_map(cover, base, vm)


def check_cover_size(nfa: Nfa, n: int):
    """Refuse, before anything is built, an n-fold cover whose |Q|·n states
    and |δ|·n transitions exceed ``MAX_COVER_SIZE``."""
    size = (len(nfa.states) + len(nfa.delta)) * n
    if size > MAX_COVER_SIZE:
        raise CapacityError(f"a {n}-fold cover needs {size} states and"
                            f" transitions, over the cap of {MAX_COVER_SIZE}")


def cyclic_cover(nfa: Nfa, order, n: int) -> Nfa:
    """Arrange the states around a circle in the given order and unroll n
    times: the voltage cover where an edge winds once, lifting fiber k to
    k + 1 mod n, iff its target's position does not exceed its source's
    (so a self-loop makes a full rotation), and otherwise stays in fiber k.
    Decorations are lifted by full preimage.
    """
    if sorted(order) != sorted(nfa.states) or len(order) != len(nfa.states):
        raise ValueError("order must be a permutation of the states")
    check_cover_size(nfa, n)  # before the n-long voltages are built
    pos = {q: i for i, q in enumerate(order)}
    stay = tuple(range(n))
    wind = stay[1:] + stay[:1]
    return voltage_cover(
        nfa, n, {(q, a, r): wind if pos[r] <= pos[q] else stay for q, a, r in nfa.delta}
    )


def voltage_cover(nfa: Nfa, n: int, voltages: dict) -> Nfa:
    """Lift each edge across the fibers 0..n-1 by its own permutation; the
    projection is a locally trivial covering by construction."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_cover_size(nfa, n)
    voltages = {tuple(e): tuple(p) for e, p in voltages.items()}
    missing = nfa.delta - set(voltages)
    if missing:
        raise ValueError(f"no voltage for transitions {sorted(missing)}")
    for e, perm in voltages.items():
        if any(type(k) is not int for k in perm) or sorted(perm) != list(range(n)):
            raise ValueError(f"voltage for {e} is not a permutation of 0..{n - 1}")
    states = [f"{q}@{k}" for q in nfa.states for k in range(n)]
    delta = [
        (f"{q}@{k}", a, f"{r}@{voltages[(q, a, r)][k]}")
        for q, a, r in nfa.delta
        for k in range(n)
    ]
    return Nfa.make(
        states,
        nfa.alphabet,
        delta,
        [f"{q}@{k}" for q in nfa.initial for k in range(n)],
        [f"{q}@{k}" for q in nfa.accepting for k in range(n)],
    )


def _structure_ok(p: GraphMap, cover: Nfa, base: Nfa) -> bool:
    vm = p.vertex_map
    if set(cover.states) - set(vm):
        raise ValueError("map is not total on the cover")
    stray = set(vm).difference(cover.states)
    if stray:
        raise ValueError(f"vertex map names no cover state: {sorted(stray, key=str)}")
    # surjective on states; every edge's image is a base edge
    if set(vm.values()) != set(base.states):
        return False
    if any((vm[q], a, vm[r]) not in base.delta for q, a, r in cover.delta):
        return False
    # decorations are exact preimages
    if {q for q in cover.states if vm[q] in base.initial} != cover.initial:
        return False
    if {q for q in cover.states if vm[q] in base.accepting} != cover.accepting:
        return False
    return True


def is_weak_covering(p: GraphMap, cover: Nfa, base: Nfa) -> bool:
    """Structure checks plus: every base edge lifts at every point of the
    fiber over its source."""
    if not _structure_ok(p, cover, base):
        return False
    vm = p.vertex_map
    out, base_out = cover._edges[0], base._edges[0]
    return all(
        set(base_out[vm[q]]) <= {(a, vm[r]) for a, r in out[q]}
        for q in cover.states
    )


def is_covering(p: GraphMap, cover: Nfa, base: Nfa) -> bool:
    """Structure checks plus unique local lifting of both out- and
    in-edges (local triviality)."""
    if not _structure_ok(p, cover, base):
        return False
    vm = p.vertex_map
    # the structure checks make vm carry each edge to its image
    for local, local_base in zip(cover._edges, base._edges):
        for q in cover.states:
            images = [(a, vm[r]) for a, r in local[q]]
            expected = set(local_base[vm[q]])
            if len(images) != len(set(images)) or set(images) != expected:
                return False
    return True
