"""Evaluate diagrams to matrices over a semiring.

Conventions, fixed once and used everywhere:

* an evaluation is a matrix whose columns index basis tuples of the domain
  and whose rows index basis tuples of the codomain, each tuple flattened
  row-major with the leftmost wire slowest: the indexing of the Kronecker
  product of the wires' modules;
* matrices act on column vectors, so slices compose bottom to top;
* a dot reading letter a on an upward wire is the transpose of the letter
  matrix (columns index source states), so the dots of a word are met in
  word order walking up from the domain.

Evaluation is a symmetric monoidal functor, so the whole-boundary layer of
a slice (the Kronecker product of its generators) is never built.  The
evaluator keeps a sparse running tensor, a dict from one flat index to
its nonzero value, and contracts wire by wire.  The flat index is that of
the current boundary basis tuple (radix n, leftmost wire slowest) times
the domain columns, plus the domain column; after the last step it is the
row-major offset in the matrix being built.  Each generator acts on its
own 0-2 wires through a table: a list, by the flat index of its input
tuple, of the flat indices of the output tuples it reaches.  Every
generator image is a 0/1 relation, so tables hold no values, and a step
only adds, when two paths reach one index.  Identity wires take no step; a
swap is a table like any other.  A single step is applied alone.  A run of
two or more steps on one block of digits (``birth+ ; dot... ; death+``,
the dots of a circle) is one ``automaton.walk_packed`` call over either
ring, with one lane per group of keys that agree off the block; the walk
sizes the lanes, and over BOOL walks one lane as a set (every interval).

A disjoint union evaluates to the tensor product of its parts, so pieces
that share no wire are never contracted together.  A diagram's cached
``Diagram._plan``, made once per diagram whatever n is, threads its wire
segments with a union-find and hands back each connected component as
its own step list, strides and sizes as exponents of n (a swap joins
nothing, and one between two components takes no step); ``_run`` raises
n to them, and each component runs through its own running tensor.  The
result's nonzeros start as the unit and take the product with each
component's, each placed at the sum of its wires' offsets in the result,
so a closed diagram's value is the product of the component scalars (the
unit when there is none), and a component that evaluates to zero ends
the loop.  The dense matrix is written once, at the end.

Every wire carries one module model: the free module on a finite basis
(states or points) with a minimal open set U_x around each basis element,
cut down by the idempotent E with E[y][x] = 1 iff y lies in U_x (and its
transpose on '-' wires).  ``_model`` writes every generator image once,
in terms of U; the identity wire's is E.  Each image is balanced by these
idempotents (E' G E = G), so only a bare strand, a component that meets
no generator, takes E; every other identity wire is an index operation.

An automaton and a T-automaton present one basis interface, the cached
tables that their word queries read as well; a '+' dot's table is the
letter's rows and a '+' wire's is U, neither copied.  An automaton is the
model with U_q = {q}, over any semiring (E is the identity table; foam
vertices are refused), and a T-automaton takes U_x from its space, over
BOOL; on a discrete space both hold the same tables.
"""

from __future__ import annotations

from functools import cache
from itertools import compress

from .automaton import Nfa, as_word, walk_packed
from .diagrams import _FOAM, Diagram, Gen, circle_diagram, interval_diagram
from .errors import CapacityError, Record
from .semiring import BOOL, Mat, Semiring
from .topology import TAutomaton

MAX_DIM_PRODUCT = 1 << 20


class Evaluation(Record):
    """A matrix indexed by basis tuples of the ambient modules of the
    domain (columns) and codomain (rows)."""

    _fields = ("matrix",)

    def __init__(self, matrix: Mat):
        self.__dict__["matrix"] = matrix

    def scalar(self):
        if self.matrix.rows != 1 or self.matrix.cols != 1:
            raise ValueError("not a closed evaluation")
        return self.matrix.entries[0]


def _guard(n, what, wires, size_wires):
    """Refuse before allocating: ``what`` needs n^size_wires entries."""
    size = n ** size_wires
    if size > MAX_DIM_PRODUCT:
        raise CapacityError(
            f"{what} needs up to {size} entries ({n} basis elements per"
            f" wire, {wires}), over the cap of {MAX_DIM_PRODUCT}"
        )


def _table(size, pairs) -> list:
    """A generator image by flat input index: each entry lists the flat
    output indices that input reaches, each with value one.  The inputs
    that reach none share one empty tuple, so a sparse table such as a
    cap's (n^2 entries) makes no list for them; the others grow a list,
    where a tuple would be copied once per output."""
    out = [()] * size
    for i, o in pairs:
        if out[i]:
            out[i].append(o)
        else:
            out[i] = [o]
    return out


def _apply(add, tensor, stride, m_in, m_out, table) -> dict:
    """One step: in each key, the digit the step reads (``q % m_in``, with
    ``q = key // stride``) gives way to each output the table lists for
    it; the digits on either side keep their places."""
    out = {}
    get = out.get
    for key, v in tensor.items():
        q = key // stride
        outs = table[q % m_in]
        if outs:
            hi, lo = q // m_in * m_out, key % stride
            for o in outs:
                new = (hi + o) * stride + lo
                old = get(new)
                out[new] = v if old is None else add(old, v)
    return out


def _runs(steps):
    """A component's steps in maximal runs: each step in a run has the
    stride of the one before it and reads what that one wrote (its n^in is
    the other's n^out), so for n >= 2 the whole run reads and writes one
    block of digits, the same in every key; for n <= 1 every digit is 0."""
    run = []
    for step in steps:
        if run and (step[0] != run[-1][0] or step[1] != run[-1][2]):
            yield run
            run = []
        run.append(step)
    if run:
        yield run


def _count(ring, tensor, stride, m_in, m_out, tables) -> dict:
    """A run of steps, over either ring.  The keys that differ only in the
    block the run reads, ``q % m_in`` with ``q = key // stride``, form a
    group; each group is one lane of a ``walk_packed`` pass through the
    run's ``tables``, and each nonzero lane at output digit o puts its value
    at its group's key with o in the block's place."""
    lanes, starts = {}, []
    for key, v in tensor.items():
        q = key // stride
        lane = lanes.setdefault((q // m_in, key % stride), len(lanes))
        starts.append((q % m_in, lane, v))
    places = [(hi * m_out, lo) for hi, lo in lanes]
    out = {}
    for o, values in enumerate(walk_packed(ring, tables, starts, len(places), m_out)):
        if values:
            for (hi, lo), v in compress(zip(places, values), values):
                out[(hi + o) * stride + lo] = v
    return out


def _contract(ring, image, cols, steps) -> dict:
    """The nonzeros of one component, keyed by the flat index of its
    codomain basis tuple times its ``cols`` domain columns plus its domain
    column: the row-major offset in its own matrix.  Each step's table is
    built here, after every guard has passed.  A single step goes to
    ``_apply``; a run of two or more steps goes to ``_count``, one packed
    walk on either ring.  Packing pays only across a run: a lone step
    would pack and unpack every key for one table."""
    tensor = {col * cols + col: ring.one for col in range(cols)}
    for run in _runs(steps):
        stride, m_in, m_out, g = run[0]
        if len(run) == 1:
            tensor = _apply(ring.add, tensor, stride, m_in, m_out, image(g))
        else:
            tables = [image(g) for *_, g in run]
            tensor = _count(ring, tensor, stride, m_in, run[-1][2], tables)
    return tensor


def _spread(n, places, width, scale) -> list:
    """By flat index over the wires at ``places``, the offset that index
    adds to a row-major index over ``width`` wires, times ``scale``."""
    offsets = [0]
    for p in places:
        stride = n ** (width - 1 - p) * scale
        offsets = [o + x * stride for o in offsets for x in range(n)]
    return offsets


def _run(machine, diagram: Diagram, ring: Semiring, foam=True) -> Evaluation:
    """Evaluate ``diagram`` in the module model of ``machine`` once its
    letters are known; without ``foam``, foam vertices are refused.  Before
    any tensor or table is allocated, the result and each planned
    component's running tensor (n^(widest boundary + |domain|)) are held to
    ``MAX_DIM_PRODUCT``."""
    unknown = diagram.letters().difference(machine._rows)
    if unknown:
        raise KeyError(f"unknown letters {sorted(unknown)}")
    kinds = set() if foam else {g.kind for slc in diagram.slices for g in slc} & _FOAM
    if kinds:
        raise ValueError(f"{min(kinds)} needs a topological state space; convert the"
                         " automaton to a discrete-space T-automaton first")
    n, dom, cod = len(machine._up), diagram.domain, diagram.codomain
    _guard(n, "the result", f"{len(cod)} codomain and {len(dom)} domain wires",
           len(cod) + len(dom))
    parts = diagram._plan[1]
    for k, (dpos, _, widest, _) in enumerate(parts, 1):
        _guard(n, f"component {k} of {len(parts)}",
               f"{widest} boundary and {len(dpos)} domain wires", widest + len(dpos))
    rows, cols = n ** len(cod), n ** len(dom)
    image = cache(_model(machine))
    mul = ring.mul
    found = [(0, ring.one)]  # (flat offset, value) of each nonzero so far
    for dpos, cpos, _, steps in parts:
        width = n ** len(dpos)
        steps = [(n ** e, n ** i, n ** o, g) for e, i, o, g in steps]
        tensor = _contract(ring, image, width, steps)
        at_row = _spread(n, cpos, len(cod), cols)
        at_col = _spread(n, dpos, len(dom), 1)
        nonzeros = [
            (at_row[key // width] + at_col[key % width], v) for key, v in tensor.items()
        ]
        found = [(o1 + o2, mul(v1, v2)) for o1, v1 in found for o2, v2 in nonzeros]
        if not found:
            break
    ent = [ring.zero] * (rows * cols)
    for r, v in found:
        ent[r] = v
    return Evaluation(Mat(ring, rows, cols, tuple(ent)))


def _model(machine):
    """The module model of an automaton or T-automaton, read from its basis
    interface over the indices 0..n-1: ``_up[x]`` holds those in U_x ({q}
    on an automaton), ``_rows[a][x]`` those in the image of x under the
    letter a, ``_ends`` those of the initial open and the accepting closed
    set, and ``_index`` maps an endpoint label to its index.  Returns the
    image function ``_run`` caches, where the identity wire's image is E:
    ``up`` on '+', ``down`` on '-'.  Every image has value one on each pair
    it relates, so the tables hold no values; the interface's tables serve
    as tables themselves and are never copied or changed."""
    index, letters, up = machine._index, machine._rows, machine._up
    initial, accepting = machine._ends
    n = len(up)
    every = range(n)
    # down[x]: the points of the closure of x
    down = [[] for _ in every]
    for x in every:
        for y in up[x]:
            down[y].append(x)

    def labelled(g: Gen, around):
        if g.label not in index:
            raise KeyError(f"unknown endpoint label {g.label!r}")
        return around[index[g.label]]

    def image(g: Gen) -> list:
        k, plus = g.kind, g.sign == "+"
        if k == "id":
            return up if plus else down
        if k == "dot":
            rows = letters[g.letter]
            return rows if plus else _table(n, ((y, x) for x in every for y in rows[x]))
        if k == "swap":
            return [(y * n + x,) for x in every for y in every]
        if k in ("cup", "cap"):
            # the pairs (u, v) with u in U_v; a '-' cup and a '+' cap read
            # them the other way round
            flip = (k == "cap") == plus
            pairs = [v * n + u if flip else u * n + v for v in every for u in up[v]]
            return [pairs] if k == "cup" else _table(n * n, ((p, 0) for p in pairs))
        if k == "birth":
            if g.label is not None:
                return [labelled(g, up)]
            return [initial if plus else accepting]
        if k == "death":
            if g.label is not None:
                members = labelled(g, down)
            else:
                # x is retired when U_x meets the accepting set ('+'), or
                # when the closure of x meets the initial set ('-')
                near = up if plus else down
                ends = set(accepting if plus else initial)
                members = [x for x in every if not ends.isdisjoint(near[x])]
            return _table(n, ((x, 0) for x in members))
        if k == "merge":
            return [up[x] & up[y] for x in every for y in every]
        if k == "split":
            return [
                {u * n + v for z in up[x] for u in up[z] for v in up[z]} for x in every
            ]
        if k == "unit":
            return [every]
        if k == "counit":
            return [(0,)] * n
        raise ValueError(f"unknown generator kind {k!r}")

    return image


def eval_nfa(nfa: Nfa, diagram: Diagram, ring: Semiring = BOOL) -> Evaluation:
    """Evaluate a defect diagram in the free module on the states: the
    module model with U_q = {q}, over any semiring."""
    return _run(nfa, diagram, ring, foam=False)


def eval_interval(nfa: Nfa, w) -> bool:
    """Value of the floating interval decorated by w; equals interval_eval."""
    return eval_nfa(nfa, interval_diagram(as_word(w))).scalar() == BOOL.one


def eval_circle(nfa: Nfa, w) -> bool:
    """Value of the circle decorated by w; equals trace_eval."""
    return eval_nfa(nfa, circle_diagram(as_word(w))).scalar() == BOOL.one


def eval_tautomaton(taut: TAutomaton, diagram: Diagram) -> Evaluation:
    """Evaluate a diagram, foam vertices included, in the ambient free
    module on the points of the space: the module model with the minimal
    open sets of the space, over BOOL."""
    return _run(taut, diagram, BOOL)
