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
evaluator keeps one sparse running tensor, a dict from (current boundary
basis tuple, domain column) to its nonzero value, and contracts wire by
wire: each generator acts on its own 0-2 wires through a table from the
basis tuple on its inputs to (output tuple, value) pairs, identity wires
pass their index through, and a swap exchanges two indices.  The dense
matrix is built once, at the end.

For an automaton every wire carries the free module on the states.  For a
T-automaton every wire carries the ambient free module on the points,
cut down by the idempotent E with E[y][x] = 1 iff y lies in U_x (and its
transpose on '-' wires), and the identity wire itself evaluates to E.
Every generator image is balanced by these idempotents (E' G E = G), so E
is applied once, to the domain wires, and identity wires and swaps stay
pure index operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .automaton import Nfa, as_word
from .diagrams import Diagram, Gen, circle_diagram, interval_diagram
from .errors import CapacityError
from .semiring import BOOL, Mat, Semiring
from .topology import TAutomaton

MAX_DIM_PRODUCT = 1 << 20


@dataclass(frozen=True)
class Evaluation:
    """A matrix indexed by basis tuples of the ambient modules of the
    domain (columns) and codomain (rows)."""

    matrix: Mat

    def scalar(self):
        if self.matrix.rows != 1 or self.matrix.cols != 1:
            raise ValueError("not a closed evaluation")
        return self.matrix.entries[0]


def _guard(n, dom_width, widest):
    """Refuse before allocating.  Over a boundary of width w the running
    tensor holds at most n^(w + |dom|) entries; the codomain is the last
    boundary, so this also bounds the result's n^(|cod| + |dom|)."""
    size = n ** (widest + dom_width)
    if size > MAX_DIM_PRODUCT:
        raise CapacityError(
            f"evaluation needs up to {size} entries ({n} basis elements per"
            f" wire, {widest} boundary and {dom_width} domain wires),"
            f" over the cap of {MAX_DIM_PRODUCT}"
        )


def _table(ring, pairs) -> dict:
    """Generator image from (input tuple, output tuple) pairs of value one."""
    out = {}
    for inp, outp in pairs:
        out.setdefault(inp, []).append((outp, ring.one))
    return out


def _steps(slc, image) -> list:
    """One slice as (position, input width, table) steps; a swap's table
    is None and identity wires take no step.  The position counts wires on
    the boundary as it stands when the step runs.  Shrinking generators go
    first, so no boundary in between is wider than the slice's input or
    output."""
    order = sorted(
        (len(g.outputs()) - len(g.inputs()), k)
        for k, g in enumerate(slc)
        if g.kind != "id"
    )
    done = set()
    steps = []
    for _, k in order:
        pos = sum(
            len(h.outputs() if j in done else h.inputs())
            for j, h in enumerate(slc[:k])
        )
        g = slc[k]
        steps.append((pos, len(g.inputs()), None if g.kind == "swap" else image(g)))
        done.add(k)
    return steps


def _apply(ring, tensor, pos, width, table) -> dict:
    end = pos + width
    if table is None:
        return {
            key[:pos] + (key[pos + 1], key[pos]) + key[end:]: v
            for key, v in tensor.items()
        }
    add, mul = ring.add, ring.mul
    out = {}
    get = out.get
    for key, v in tensor.items():
        pairs = table.get(key[pos:end])
        if not pairs:
            continue
        head, tail = key[:pos], key[end:]
        for o, w in pairs:
            new = head + o + tail
            x = mul(v, w)
            old = get(new)
            out[new] = x if old is None else add(old, x)
    return out


def _run(diagram: Diagram, ring: Semiring, n: int, wire, gen_image) -> Evaluation:
    """``wire(sign)`` is the table of an identity wire, or None when it is
    the identity; ``gen_image(g)`` is the table of any other generator."""
    dom, cod = diagram.typecheck()
    widest = max(
        [len(dom)] + [sum(len(g.outputs()) for g in slc) for slc in diagram.slices]
    )
    _guard(n, len(dom), widest)
    # keys are the boundary basis tuple followed by the domain column
    tensor = {
        d + (col,): ring.one
        for col, d in enumerate(product(range(n), repeat=len(dom)))
    }
    for pos, sign in enumerate(dom):
        table = wire(sign)
        if table is not None:
            tensor = _apply(ring, tensor, pos, 1, table)
    cache = {}

    def image(g: Gen):
        if g not in cache:
            cache[g] = gen_image(g)
        return cache[g]

    for slc in diagram.slices:
        for pos, width, table in _steps(slc, image):
            tensor = _apply(ring, tensor, pos, width, table)
    rows, cols = n ** len(cod), n ** len(dom)
    ent = [ring.zero] * (rows * cols)
    for key, v in tensor.items():
        r = 0
        for x in key[:-1]:
            r = r * n + x
        ent[r * cols + key[-1]] = v
    return Evaluation(Mat(ring, rows, cols, tuple(ent)))


# -- free modules (automata) --------------------------------------------------


def eval_nfa(nfa: Nfa, diagram: Diagram, ring: Semiring = BOOL) -> Evaluation:
    """Evaluate a defect diagram in the free module on the states."""
    unknown = diagram.letters() - set(nfa.alphabet)
    if unknown:
        raise KeyError(f"unknown letters {sorted(unknown)}")
    n = len(nfa.states)
    idx = nfa._index

    def endpoint_members(g: Gen, plain):
        if g.label is None:
            return plain
        if g.label not in idx:
            raise KeyError(f"unknown state {g.label!r}")
        return {g.label}

    def image(g: Gen) -> dict:
        k = g.kind
        if k == "dot":
            edges = [
                (idx[q], idx[r])
                for q in nfa.states
                for r in nfa._succ.get((q, g.letter), ())
            ]
            if g.sign == "-":
                edges = [(r, q) for q, r in edges]
            return _table(ring, (((q,), (r,)) for q, r in edges))
        if k == "cup":
            return _table(ring, (((), (q, q)) for q in range(n)))
        if k == "cap":
            return _table(ring, (((q, q), ()) for q in range(n)))
        if k == "birth":
            members = endpoint_members(
                g, nfa.initial if g.sign == "+" else nfa.accepting
            )
            return _table(ring, (((), (idx[q],)) for q in members))
        if k == "death":
            members = endpoint_members(
                g, nfa.accepting if g.sign == "+" else nfa.initial
            )
            return _table(ring, (((idx[q],), ()) for q in members))
        raise ValueError(
            f"{k} needs a topological state space; convert the automaton"
            " to a discrete-space T-automaton first"
        )

    return _run(diagram, ring, n, lambda sign: None, image)


def eval_interval(nfa: Nfa, w) -> bool:
    """Value of the floating interval decorated by w; equals interval_eval."""
    return eval_nfa(nfa, interval_diagram(as_word(w))).scalar() == BOOL.one


def eval_circle(nfa: Nfa, w) -> bool:
    """Value of the circle decorated by w; equals trace_eval."""
    return eval_nfa(nfa, circle_diagram(as_word(w))).scalar() == BOOL.one


# -- projective modules (T-automata) ------------------------------------------


def eval_tautomaton(taut: TAutomaton, diagram: Diagram) -> Evaluation:
    """Evaluate a diagram, foam vertices included, in the ambient free
    module on the points of the space."""
    unknown = diagram.letters() - set(taut.alphabet)
    if unknown:
        raise KeyError(f"unknown letters {sorted(unknown)}")
    space = taut.space
    pts = space.points
    n = len(pts)
    ix = {p: i for i, p in enumerate(pts)}
    # up[x]: the points of U_x; down[x]: the points of the closure of x
    up = [frozenset(ix[y] for y in space.min_open[p]) for p in pts]
    down = [frozenset(y for y in range(n) if x in up[y]) for x in range(n)]
    every = range(n)

    def indices(members):
        return [ix[p] for p in members]

    def wire(sign) -> dict:
        nbrs = up if sign == "+" else down
        return _table(BOOL, (((x,), (y,)) for x in every for y in nbrs[x]))

    def point(label) -> int:
        if label not in ix:
            raise KeyError(f"unknown point {label!r}")
        return ix[label]

    def image(g: Gen) -> dict:
        k = g.kind
        if k == "dot":
            img = [indices(taut.letter(g.letter).image[p]) for p in pts]
            if g.sign == "+":
                return _table(BOOL, (((x,), (y,)) for x in every for y in img[x]))
            return _table(BOOL, (((y,), (x,)) for x in every for y in img[x]))
        if k == "cup":
            if g.sign == "+":
                return _table(BOOL, (((), (u, v)) for v in every for u in up[v]))
            return _table(BOOL, (((), (u, v)) for u in every for v in up[u]))
        if k == "cap":
            if g.sign == "+":
                return _table(BOOL, (((u, v), ()) for u in every for v in up[u]))
            return _table(BOOL, (((u, v), ()) for v in every for u in up[v]))
        if k == "birth":
            if g.label is not None:
                members = up[point(g.label)]
            else:
                members = indices(
                    taut.initial_open if g.sign == "+" else taut.accepting_closed
                )
            return _table(BOOL, (((), (x,)) for x in members))
        if k == "death":
            if g.label is not None:
                members = down[point(g.label)]
            elif g.sign == "+":
                acc = set(indices(taut.accepting_closed))
                members = [x for x in every if acc & up[x]]
            else:
                ini = set(indices(taut.initial_open))
                members = [v for v in every if ini & down[v]]
            return _table(BOOL, (((x,), ()) for x in members))
        if k == "merge":
            return _table(
                BOOL,
                (
                    ((x, y), (z,))
                    for x in every
                    for y in every
                    for z in up[x] & up[y]
                ),
            )
        if k == "split":
            return _table(
                BOOL,
                (
                    ((x,), pair)
                    for x in every
                    for pair in {(u, v) for z in up[x] for u in up[z] for v in up[z]}
                ),
            )
        if k == "unit":
            return _table(BOOL, (((), (x,)) for x in every))
        if k == "counit":
            return _table(BOOL, (((x,), ()) for x in every))
        raise ValueError(f"unknown generator kind {k!r}")

    return _run(diagram, BOOL, n, wire, image)
