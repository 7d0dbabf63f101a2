"""Finite topological spaces, their open-set lattices, and T-automata.

A space is stored by its minimal-open basis U_x (the smallest open set
containing x).  Spaces are required to be minimal: distinct points have
distinct minimal opens.  The lattice of open sets is a distributive
lattice under union and intersection, and every lattice endomorphism that
respects unions is determined by its values on the U_x, subject to
monotonicity.  A T-automaton runs letters as such endomorphisms, with an
open initial set and a closed accepting set; for a discrete space this is
exactly a nondeterministic finite automaton.  It presents the automaton's
basis interface over its points, where a letter sends U_x to T(U_x).
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, permutations, product

from .automaton import Nfa, interval_eval, json_list, json_object, read_json, trace_eval
from .errors import CapacityError, Record

OPENS_CAP = 1 << 16

_FINTOP_KEYS = ("points", "min_open")
_TAUT_KEYS = (*_FINTOP_KEYS, "initial_open", "accepting_closed", "letters")


class FinTop(Record):
    """Finite minimal topological space given by its minimal-open basis."""

    _fields = ("points", "min_open")

    def __init__(self, points: tuple, min_open: dict):
        min_open = {x: frozenset(u) for x, u in min_open.items()}
        pts = set(points)
        if len(pts) != len(points):
            raise ValueError("duplicate point ids")
        if set(min_open) != pts:
            raise ValueError("min_open must be defined exactly on the points")
        for x, u in min_open.items():
            if x not in u:
                raise ValueError(f"{x} is missing from its own minimal open")
            if not u <= pts:
                raise ValueError(f"minimal open of {x} leaves the space")
        for x in points:
            for y in min_open[x]:
                if not min_open[y] <= min_open[x]:
                    raise ValueError(
                        f"basis is inconsistent: {y} in U_{x} but U_{y} not inside U_{x}"
                    )
        seen = {}
        for x in points:
            u = min_open[x]
            if u in seen:
                raise ValueError(
                    f"space is not minimal: {seen[u]} and {x} share a minimal open"
                )
            seen[u] = x
        self.__dict__.update(points=points, min_open=min_open)

    @classmethod
    def make(cls, points, min_open) -> FinTop:
        return cls(tuple(points), dict(min_open))

    @classmethod
    def discrete(cls, points) -> FinTop:
        return cls.make(points, {x: {x} for x in points})

    def min_open_of(self, x) -> frozenset:
        """Smallest open set containing x."""
        if x not in self.min_open:
            raise ValueError(f"unknown point {x!r}")
        return self.min_open[x]

    @cached_property
    def _closures(self) -> dict:
        return {
            x: frozenset(y for y in self.points if x in self.min_open[y])
            for x in self.points
        }

    def closure_of(self, x) -> frozenset:
        """Smallest closed set containing x."""
        if x not in self.min_open:
            raise ValueError(f"unknown point {x!r}")
        return self._closures[x]

    @cached_property
    def _point_set(self) -> frozenset:
        return frozenset(self.points)

    def _known(self, members) -> frozenset:
        s = frozenset(members)
        unknown = s - self._point_set
        if unknown:
            raise ValueError(f"unknown points {sorted(unknown)}")
        return s

    def is_open(self, members) -> bool:
        s = self._known(members)
        return all(self.min_open[x] <= s for x in s)

    def is_closed(self, members) -> bool:
        return self.is_open(self._point_set - self._known(members))

    def open_set(self, members) -> OpenSet:
        return OpenSet(self, frozenset(members))

    def opens(self, cap: int = OPENS_CAP) -> list:
        """Every open set, smallest first.  Refuses to enumerate more than
        ``cap`` sets."""
        found = {frozenset()}
        for x in self.points:
            u = self.min_open[x]
            found |= {o | u for o in found}
            if len(found) > cap:
                raise CapacityError(f"more than {cap} open sets")
        ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
        return [OpenSet(self, s) for s in ordered]

    def dual(self) -> FinTop:
        """Same points; open sets of the dual are the closed sets."""
        return FinTop.make(self.points, {x: self.closure_of(x) for x in self.points})

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "min_open": {x: sorted(self.min_open[x]) for x in self.points},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> FinTop:
        json_object(data, "space", _FINTOP_KEYS)
        return cls.make(
            json_list(data, "points"), _json_sets(data["min_open"], "'min_open'")
        )

    @classmethod
    def from_json(cls, text: str) -> FinTop:
        return cls.from_json_dict(read_json(text))


def _json_sets(value, what) -> dict:
    """``value`` when it is a JSON object of lists of strings."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object of lists of strings")
    for k in value:
        json_list(value, k)
    return value


class OpenSet(Record):
    """An open subset of a fixed space; meet is intersection, join is union."""

    _fields = ("space", "members")

    def __init__(self, space: FinTop, members: frozenset):
        members = frozenset(members)
        if not space.is_open(members):
            raise ValueError(f"{sorted(members)} is not open")
        self.__dict__.update(space=space, members=members)

    def _same_space(self, other: OpenSet):
        if self.space != other.space:
            raise ValueError("open sets live on different spaces")

    def meet(self, other: OpenSet) -> OpenSet:
        self._same_space(other)
        return OpenSet(self.space, self.members & other.members)

    def join(self, other: OpenSet) -> OpenSet:
        self._same_space(other)
        return OpenSet(self.space, self.members | other.members)

    __and__ = meet
    __or__ = join

    def __bool__(self):
        return bool(self.members)

    def __le__(self, other: OpenSet) -> bool:
        self._same_space(other)
        return self.members <= other.members


def comult(u: OpenSet) -> list:
    """Boolean tensor expansion of the comultiplication: the pairs
    (U_x, U_x) over the minimal opens inside u."""
    space = u.space
    return [
        (OpenSet(space, space.min_open_of(x)), OpenSet(space, space.min_open_of(x)))
        for x in space.points
        if space.min_open_of(x) <= u.members
    ]


def counit(u: OpenSet) -> bool:
    return bool(u.members)


def reduce_space(points, min_open) -> FinTop:
    """Merge points with identical minimal opens, keeping the first of each
    class, and restrict the basis accordingly."""
    min_open = {x: frozenset(u) for x, u in min_open.items()}
    keep = []
    seen = set()
    for x in points:
        u = min_open[x]
        if u not in seen:
            seen.add(u)
            keep.append(x)
    kept = set(keep)
    return FinTop.make(keep, {x: min_open[x] & kept for x in keep})


def space_from_preorder(points, pairs) -> FinTop:
    """Space of the preorder generated by ``pairs`` (x <= y meaning x lies
    in every open set containing y), reduced to a minimal space."""
    points = list(points)
    below = {x: {x} for x in points}
    for x, y in pairs:
        below[y].add(x)
    changed = True
    while changed:  # transitive closure
        changed = False
        for y in points:
            grow = set()
            for x in below[y]:
                grow |= below[x]
            if not grow <= below[y]:
                below[y] |= grow
                changed = True
    return reduce_space(points, below)


def minimal_spaces(n: int) -> list:
    """All minimal spaces on n points, one per homeomorphism class: the
    posets, grown by a new maximal point over a down-set of the old points,
    each kept once as its least strict relation over the relabellings that
    order points by (points below, points above)."""
    posets = {()}
    for k in range(n):
        grown = set()
        for rel in posets:
            below = [{i for i, j in rel if j == x} for x in range(k)]
            for bits in range(1 << k):
                down = {i for i in range(k) if bits >> i & 1}
                if all(below[i] <= down for i in down):
                    grown.add(_least_relabelling(rel + tuple((i, k) for i in down), k + 1))
        posets = grown
    pts = [f"x{i}" for i in range(n)]
    return [space_from_preorder(pts, [(pts[i], pts[j]) for i, j in rel])
            for rel in sorted(posets)]


def _least_relabelling(rel, n) -> tuple:
    key = [(sum(j == x for _, j in rel), sum(i == x for i, _ in rel)) for x in range(n)]
    groups = [[x for x in range(n) if key[x] == g] for g in sorted(set(key))]
    return min(
        tuple(sorted((pos[i], pos[j]) for i, j in rel))
        for order in product(*map(permutations, groups))
        for pos in [{x: p for p, x in enumerate(chain.from_iterable(order))}]
    )


# -- endomorphisms and T-automata -------------------------------------------


def endo_violations(space: FinTop, image: dict) -> list:
    """Why ``image`` fails to define a union-respecting endomorphism;
    empty when valid."""
    bad = []
    for x in space.points:
        if x not in image:
            bad.append(f"no image for {x}")
    for x in space.points:
        u = image.get(x)
        if u is None:
            continue
        if not space.is_open(u):
            bad.append(f"image of U_{x} is not open")
    for x in space.points:
        for y in space.min_open_of(x):
            if y == x or x not in image or y not in image:
                continue
            if not frozenset(image[y]) <= frozenset(image[x]):
                bad.append(f"monotonicity fails on the pair ({y}, {x})")
    return bad


def endo_validate(space: FinTop, image: dict) -> bool:
    return not endo_violations(space, image)


class Endo(Record):
    """Union-respecting endomorphism of the open-set lattice, stored by its
    values on the minimal opens: image[x] = T(U_x)."""

    _fields = ("space", "image")

    def __init__(self, space: FinTop, image: dict):
        image = {x: frozenset(u) for x, u in image.items()}
        if set(image) - set(space.points):
            raise ValueError("image defined on unknown points")
        bad = endo_violations(space, image)
        if bad:
            raise ValueError("; ".join(bad))
        self.__dict__.update(space=space, image=image)

    @classmethod
    def identity(cls, space: FinTop) -> Endo:
        return cls(space, {x: space.min_open_of(x) for x in space.points})

    def apply(self, members) -> frozenset:
        """Image of an open set: the union of T(U_x) over its points."""
        members = frozenset(members)
        if not self.space.is_open(members):
            raise ValueError(f"{sorted(members)} is not open")
        out = frozenset()
        for x in members:
            out |= self.image[x]
        return out

    def then(self, other: Endo) -> Endo:
        """First self, then other."""
        if self.space != other.space:
            raise ValueError("endomorphisms live on different spaces")
        return Endo(self.space, {x: other.apply(self.image[x]) for x in self.space.points})

    def power(self, n: int) -> Endo:
        out = Endo.identity(self.space)
        for _ in range(n):
            out = out.then(self)
        return out

    def trace(self) -> bool:
        """True iff x lies in T(U_x) for some point x."""
        return any(x in self.image[x] for x in self.space.points)


class TAutomaton(Record):
    """(space, initial open set, accepting closed set, letter endomorphisms)."""

    _fields = ("space", "alphabet", "initial_open", "accepting_closed", "letters")

    def __init__(self, space: FinTop, alphabet: tuple, initial_open: frozenset,
                 accepting_closed: frozenset, letters: dict):
        initial_open = frozenset(initial_open)
        accepting_closed = frozenset(accepting_closed)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate letters")
        if not space.is_open(initial_open):
            raise ValueError("initial set is not open")
        if not space.is_closed(accepting_closed):
            raise ValueError("accepting set is not closed")
        if set(letters) != set(alphabet):
            raise ValueError("letters must cover the alphabet exactly")
        for a, t in letters.items():
            if t.space != space:
                raise ValueError(f"endomorphism for {a!r} lives on a different space")
        self.__dict__.update(space=space, alphabet=alphabet, initial_open=initial_open,
                             accepting_closed=accepting_closed, letters=letters)

    @classmethod
    def make(cls, space, alphabet, initial_open, accepting_closed, letters) -> TAutomaton:
        letters = {
            a: t if isinstance(t, Endo) else Endo(space, t) for a, t in letters.items()
        }
        return cls(space, tuple(alphabet), frozenset(initial_open),
                   frozenset(accepting_closed), letters)

    @classmethod
    def bare(cls, space: FinTop) -> TAutomaton:
        """No letters, empty decorations; enough to evaluate foam diagrams."""
        return cls(space, (), frozenset(), frozenset(), {})

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.space.points)}

    @cached_property
    def _up(self) -> list:
        """The indices of U_x, one set per point index."""
        idx = self._index
        return [{idx[y] for y in self.space.min_open[x]} for x in self.space.points]

    @cached_property
    def _rows(self) -> dict:
        """letter -> the indices of T(U_x), one set per point index."""
        idx = self._index
        return {
            a: [{idx[y] for y in t.image[x]} for x in self.space.points]
            for a, t in self.letters.items()
        }

    @cached_property
    def _ends(self) -> tuple:
        groups = self.initial_open, self.accepting_closed
        return tuple(sorted(map(self._index.get, g)) for g in groups)

    interval_eval = interval_eval
    trace_eval = trace_eval

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = self.space.to_json_dict()
        d["initial_open"] = sorted(self.initial_open)
        d["accepting_closed"] = sorted(self.accepting_closed)
        d["letters"] = {
            a: {x: sorted(self.letters[a].image[x]) for x in self.space.points}
            for a in self.alphabet
        }
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, data: dict) -> TAutomaton:
        json_object(data, "T-automaton", _TAUT_KEYS)
        space = FinTop.from_json_dict({k: data[k] for k in _FINTOP_KEYS})
        letters = data["letters"]
        if not isinstance(letters, dict):
            raise ValueError("'letters' must be an object")
        return cls.make(
            space,
            list(letters),
            json_list(data, "initial_open"),
            json_list(data, "accepting_closed"),
            {a: _json_sets(t, f"image of letter {a!r}") for a, t in letters.items()},
        )

    @classmethod
    def from_json(cls, text: str) -> TAutomaton:
        return cls.from_json_dict(read_json(text))


def discrete(nfa: Nfa) -> TAutomaton:
    """The automaton seen as a T-automaton on the discrete space of its
    states; evaluations agree with the Boolean matrix ones.  On a discrete
    space the basis tables equal the automaton's, so it takes those."""
    space = FinTop.discrete(nfa.states)
    states = nfa.states
    letters = {
        a: Endo(space, {q: {states[j] for j in row[i]} for i, q in enumerate(states)})
        for a, row in nfa._rows.items()
    }
    taut = TAutomaton.make(space, nfa.alphabet, nfa.initial, nfa.accepting, letters)
    vars(taut).update(_index=nfa._index, _rows=nfa._rows, _up=nfa._up, _ends=nfa._ends)
    return taut
