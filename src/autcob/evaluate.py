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

Every wire carries one module model: the free module on a finite basis
(states or points) with a minimal open set U_x around each basis element,
cut down by the idempotent E with E[y][x] = 1 iff y lies in U_x (and its
transpose on '-' wires).  The identity wire evaluates to E, and
``_model`` writes every other generator image once, in terms of U.  Each
image is balanced by these idempotents (E' G E = G), so E is applied
once, to the domain wires, and identity wires and swaps stay pure index
operations.

The model has two instances.  An automaton is the discrete one,
U_q = {q}, over any semiring: E is the identity and is never applied, and
foam vertices are refused.  A T-automaton takes U_x from its space, over
BOOL; on a discrete space it is the automaton's model again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .automaton import Nfa, as_word
from .diagrams import _FOAM, Diagram, Gen, circle_diagram, interval_diagram
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
    """``wire`` maps each sign to the table of its identity wire, or is None
    when every identity wire is the identity; ``gen_image(g)`` is the table
    of any other generator."""
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
    if wire is not None:
        for pos, sign in enumerate(dom):
            tensor = _apply(ring, tensor, pos, 1, wire[sign])
    image = cache(gen_image)
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


def _model(ring, up, letters, initial, accepting, index):
    """The module model of a state space with basis 0..n-1.

    ``up[x]`` is the set of basis indices in U_x; ``letters[a][x]`` is the
    set of those in the image of x under the letter a (the automaton's or
    T-automaton's ``_rows``); ``initial`` and ``accepting`` list
    the indices of the initial open and the accepting closed set; ``index``
    maps an endpoint label to its basis index.  Returns ``(wire, image)``
    as ``_run`` takes them: ``wire`` is None exactly when every U_x is
    {x}."""
    n = len(up)
    every = range(n)
    # down[x]: the points of the closure of x
    down = [[] for _ in every]
    for x in every:
        for y in up[x]:
            down[y].append(x)
    wire = None
    if any(len(u) > 1 for u in up):
        wire = {
            "+": _table(ring, (((x,), (y,)) for x in every for y in up[x])),
            "-": _table(ring, (((x,), (y,)) for x in every for y in down[x])),
        }

    def labelled(g: Gen, around):
        if g.label not in index:
            raise KeyError(f"unknown endpoint label {g.label!r}")
        return around[index[g.label]]

    def image(g: Gen) -> dict:
        k, plus = g.kind, g.sign == "+"
        if k == "dot":
            arrows = [((x,), (y,)) for x in every for y in letters[g.letter][x]]
            return _table(ring, arrows if plus else ((o, i) for i, o in arrows))
        if k in ("cup", "cap"):
            # the pairs (u, v) with u in U_v; a '-' cup and a '+' cap read
            # them the other way round
            pairs = [(u, v) for v in every for u in up[v]]
            if (k == "cap") == plus:
                pairs = [(v, u) for u, v in pairs]
            return _table(ring, (((), p) if k == "cup" else (p, ()) for p in pairs))
        if k == "birth":
            if g.label is not None:
                members = labelled(g, up)
            else:
                members = initial if plus else accepting
            return _table(ring, (((), (x,)) for x in members))
        if k == "death":
            if g.label is not None:
                members = labelled(g, down)
            else:
                # x is retired when U_x meets the accepting set ('+'), or
                # when the closure of x meets the initial set ('-')
                near = up if plus else down
                ends = set(accepting if plus else initial)
                members = [x for x in every if not ends.isdisjoint(near[x])]
            return _table(ring, (((x,), ()) for x in members))
        if k == "merge":
            return _table(
                ring,
                (
                    ((x, y), (z,))
                    for x in every
                    for y in every
                    for z in up[x] & up[y]
                ),
            )
        if k == "split":
            return _table(
                ring,
                (
                    ((x,), pair)
                    for x in every
                    for pair in {(u, v) for z in up[x] for u in up[z] for v in up[z]}
                ),
            )
        if k == "unit":
            return _table(ring, (((), (x,)) for x in every))
        if k == "counit":
            return _table(ring, (((x,), ()) for x in every))
        raise ValueError(f"unknown generator kind {k!r}")

    return wire, image


# -- free modules (automata) --------------------------------------------------


def eval_nfa(nfa: Nfa, diagram: Diagram, ring: Semiring = BOOL) -> Evaluation:
    """Evaluate a defect diagram in the free module on the states: the
    module model with U_q = {q}, over any semiring."""
    unknown = diagram.letters() - set(nfa.alphabet)
    if unknown:
        raise KeyError(f"unknown letters {sorted(unknown)}")
    foam = {g.kind for slc in diagram.slices for g in slc} & _FOAM
    if foam:
        raise ValueError(
            f"{min(foam)} needs a topological state space; convert the"
            " automaton to a discrete-space T-automaton first"
        )
    idx = nfa._index
    up = [frozenset((x,)) for x in range(len(nfa.states))]
    initial = [idx[q] for q in nfa.initial]
    accepting = [idx[q] for q in nfa.accepting]
    model = _model(ring, up, nfa._rows, initial, accepting, idx)
    return _run(diagram, ring, len(up), *model)


def eval_interval(nfa: Nfa, w) -> bool:
    """Value of the floating interval decorated by w; equals interval_eval."""
    return eval_nfa(nfa, interval_diagram(as_word(w))).scalar() == BOOL.one


def eval_circle(nfa: Nfa, w) -> bool:
    """Value of the circle decorated by w; equals trace_eval."""
    return eval_nfa(nfa, circle_diagram(as_word(w))).scalar() == BOOL.one


# -- projective modules (T-automata) ------------------------------------------


def eval_tautomaton(taut: TAutomaton, diagram: Diagram) -> Evaluation:
    """Evaluate a diagram, foam vertices included, in the ambient free
    module on the points of the space: the module model with the minimal
    open sets of the space, over BOOL."""
    unknown = diagram.letters() - set(taut.alphabet)
    if unknown:
        raise KeyError(f"unknown letters {sorted(unknown)}")
    idx, up = taut._index, taut._up
    initial = [idx[p] for p in taut.initial_open]
    accepting = [idx[p] for p in taut.accepting_closed]
    model = _model(BOOL, up, taut._rows, initial, accepting, idx)
    return _run(diagram, BOOL, len(up), *model)
