"""Shared fixtures and random generators for the test suite."""

import itertools

from autcob import Nfa, as_word
from autcob.diagrams import (
    COUNIT,
    MERGE,
    SPLIT,
    UNIT,
    Diagram,
    birth,
    cap,
    cup,
    death,
    dot,
    flip,
    ident,
    identity_diagram,
    merge_on_minus,
    split_on_minus,
    swap,
)
from autcob.semiring import BOOL, Mat, identity, kron
from autcob.topology import Endo, FinTop, TAutomaton, space_from_preorder

# Two-state machine: a flips the states, b loops at the accepting one.
# Interval language (ab*a)*ab*.
A2 = Nfa.make(
    ["q1", "q2"],
    ["a", "b"],
    [("q1", "a", "q2"), ("q2", "a", "q1"), ("q2", "b", "q2")],
    ["q1"],
    ["q2"],
)

# Two-state machine on one letter: interval and trace language (a^2)*.
TWO_CYCLE = Nfa.make(
    ["s0", "s1"],
    ["a"],
    [("s0", "a", "s1"), ("s1", "a", "s0")],
    ["s0"],
    ["s0"],
)

# Undecorated pair: b swaps the states, a loops away from the marked one.
H1 = Nfa.make(
    ["q0", "q1"],
    ["a", "b"],
    [("q0", "b", "q1"), ("q1", "b", "q0"), ("q1", "a", "q1")],
    [],
    [],
)

SIERPINSKI = FinTop.make(["x", "y"], {"x": {"x"}, "y": {"x", "y"}})


# -- foam laws -------------------------------------------------------------------
#
# One table read by criterion c08, the law tests in test_evaluate.py and
# scripts/foam_check.py.  Each law is a list of (left, right) diagram pairs
# whose evaluations agree on every finite space.

_WIRE = identity_diagram(("+",))
_MERGE = Diagram.make([[MERGE]], domain=("+", "+"))
_SPLIT = Diagram.make([[SPLIT]], domain=("+",))

FOAM_LAWS = {
    "associativity": [(
        Diagram.make([[MERGE, ident("+")], [MERGE]], domain=("+", "+", "+")),
        Diagram.make([[ident("+"), MERGE], [MERGE]], domain=("+", "+", "+")),
    )],
    "commutativity": [
        (Diagram.make([[swap("+", "+")], [MERGE]], domain=("+", "+")), _MERGE),
    ],
    "unit": [
        (Diagram.make([[UNIT, ident("+")], [MERGE]], domain=("+",)), _WIRE),
        (Diagram.make([[ident("+"), UNIT], [MERGE]], domain=("+",)), _WIRE),
    ],
    "coassociativity": [(
        Diagram.make([[SPLIT], [SPLIT, ident("+")]], domain=("+",)),
        Diagram.make([[SPLIT], [ident("+"), SPLIT]], domain=("+",)),
    )],
    "cocommutativity": [
        (Diagram.make([[SPLIT], [swap("+", "+")]], domain=("+",)), _SPLIT),
    ],
    "counit": [
        (Diagram.make([[SPLIT], [COUNIT, ident("+")]], domain=("+",)), _WIRE),
        (Diagram.make([[SPLIT], [ident("+"), COUNIT]], domain=("+",)), _WIRE),
    ],
    "split-merge": [(Diagram.make([[SPLIT], [MERGE]], domain=("+",)), _WIRE)],
}

# (left, right): left on a space equals right on the dual space
FOAM_DUALITY = [(merge_on_minus(), _MERGE), (split_on_minus(), _SPLIT)]

# (left, right): the bialgebra axiom holds only as left <= right entrywise,
# and strictly on some four-point space
BIALGEBRA = (
    Diagram.make([[MERGE], [SPLIT]], domain=("+", "+")),
    Diagram.make(
        [[SPLIT, SPLIT], [ident("+"), swap("+", "+"), ident("+")], [MERGE, MERGE]],
        domain=("+", "+"),
    ),
)


def all_words(alphabet, max_len):
    for k in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=k)


def random_nfa(
    rng, max_states=4, alphabet=("a", "b"), min_states=1, density=0.3
):
    n = rng.randint(min_states, max_states)
    states = [f"q{i}" for i in range(n)]
    triples = [(q, a, r) for q in states for a in alphabet for r in states]
    delta = [t for t in triples if rng.random() < density]
    initial = [q for q in states if rng.random() < 0.4]
    accepting = [q for q in states if rng.random() < 0.4]
    return Nfa.make(states, alphabet, delta, initial, accepting)


def random_space(rng, max_points=4, min_points=1):
    n = rng.randint(min_points, max_points)
    points = [f"p{i}" for i in range(n)]
    pairs = [
        (points[i], points[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.3
    ]
    return space_from_preorder(points, pairs)


def random_endo(rng, space, opens=None):
    opens = opens if opens is not None else space.opens()
    image = {}
    for x in sorted(space.points, key=lambda p: len(space.min_open_of(p))):
        lower = frozenset()
        for y in space.min_open_of(x):
            if y != x:
                lower |= image[y]
        image[x] = rng.choice([o.members for o in opens if lower <= o.members])
    return Endo(space, image)


def random_tautomaton(rng, max_points=4, alphabet=("a", "b")):
    space = random_space(rng, max_points)
    opens = space.opens()
    letters = {a: random_endo(rng, space, opens) for a in alphabet}
    initial = rng.choice(opens).members
    accepting = frozenset(space.points) - rng.choice(opens).members
    return TAutomaton.make(space, alphabet, initial, accepting, letters)


def _producers(letters, foam, endpoints):
    out = [cup("+"), cup("-")]
    if endpoints:
        out += [birth("+"), birth("-")]
    if foam:
        out.append(UNIT)
    return out


def _grow_slice(rng, boundary, letters, foam, endpoints, max_width, labels):
    slc = []
    out = []
    i = 0
    while True:
        room = max_width - (len(out) + len(boundary) - i)
        if room >= 2 and rng.random() < 0.2:
            g = rng.choice(_producers(letters, foam, endpoints))
            if g.kind == "birth" and g.sign == "+" and labels and rng.random() < 0.4:
                g = birth("+", label=rng.choice(labels))
            slc.append(g)
            out.extend(g.outputs())
            continue
        if i >= len(boundary):
            break
        s0 = boundary[i]
        s1 = boundary[i + 1] if i + 1 < len(boundary) else None
        options = [ident(s0)]
        if letters:
            options += [dot(a, s0) for a in letters]
        if endpoints:
            g = death(s0)
            if s0 == "+" and labels and rng.random() < 0.4:
                g = death("+", label=rng.choice(labels))
            options.append(g)
        if foam and s0 == "+":
            options.append(COUNIT)
            if room >= 1:
                options.append(SPLIT)
        if s1 is not None:
            options.append(swap(s0, s1))
            if s1 == flip(s0):
                options.append(cap(s0))
            if foam and s0 == "+" and s1 == "+":
                options.append(MERGE)
        g = rng.choice(options)
        slc.append(g)
        out.extend(g.outputs())
        i += len(g.inputs())
    return slc, tuple(out)


def random_diagram(
    rng,
    letters=("a", "b"),
    max_width=4,
    max_slices=5,
    domain=None,
    foam=False,
    endpoints=True,
    labels=(),
):
    """A random well-typed diagram; the domain is drawn when not given."""
    if domain is None:
        domain = tuple(rng.choice("+-") for _ in range(rng.randint(0, max_width)))
    boundary = tuple(domain)
    slices = []
    for _ in range(rng.randint(1, max_slices)):
        slc, boundary = _grow_slice(
            rng, boundary, letters, foam, endpoints, max_width, labels
        )
        if slc:
            slices.append(slc)
    return Diagram.make(slices, domain)


def _closing_slice(rng, boundary, foam, endpoints):
    # cap one adjacent opposite pair when possible, else retire a '+',
    # else stage a unit so the next pass can cap a bare '-'
    for i in range(len(boundary) - 1):
        if boundary[i + 1] == flip(boundary[i]):
            gens = [ident(s) for s in boundary[:i]]
            gens.append(cap(boundary[i]))
            gens += [ident(s) for s in boundary[i + 2 :]]
            return gens
    if "+" in boundary:
        i = boundary.index("+")
        closers = ([COUNIT] if foam else []) + ([death("+")] if endpoints else [])
        gens = [ident(s) for s in boundary[:i]]
        gens.append(rng.choice(closers))
        gens += [ident(s) for s in boundary[i + 1 :]]
        return gens
    if endpoints and not foam:
        return [death("-")] + [ident(s) for s in boundary[1:]]
    return [ident(boundary[0]), UNIT] + [ident(s) for s in boundary[1:]]


def random_closed_diagram(
    rng, letters=(), foam=True, endpoints=False, max_width=4, grow_slices=3
):
    """A random closed diagram: grow from the empty boundary, then close."""
    boundary = ()
    slices = []
    for _ in range(rng.randint(1, grow_slices)):
        slc, boundary = _grow_slice(
            rng, boundary, letters, foam, endpoints, max_width, ()
        )
        if slc:
            slices.append(slc)
    while boundary:
        slc = _closing_slice(rng, boundary, foam, endpoints)
        slices.append(slc)
        boundary = tuple(s for g in slc for s in g.outputs())
    return Diagram.make(slices, ())


# -- dense reference evaluator --------------------------------------------------
#
def dense_word_matrix(nfa, w, ring=BOOL) -> Mat:
    """nfa.word_matrix(w, ring), as the ordered product of the letter
    matrices by dense ``Mat`` multiplication; it never walks."""
    m = identity(ring, len(nfa.states))
    for a in as_word(w):
        m = m @ nfa.letter_matrix(a, ring)
    return m


# Evaluation as a product of whole-boundary layers: every slice is the
# Kronecker product of its generators' dense images, multiplied into the
# running matrix.  Slow and memory-hungry, but written straight from the
# Kronecker convention, so the wire-local evaluator is checked against it.


def _dense(ring, basis, k_out, k_in, pred) -> Mat:
    """Rows index output tuples, columns input tuples, row-major."""
    outs = list(itertools.product(basis, repeat=k_out))
    ins = list(itertools.product(basis, repeat=k_in))
    return Mat(
        ring, len(outs), len(ins),
        tuple(ring.one if pred(o, i) else ring.zero for o in outs for i in ins),
    )


def _dense_run(ring, basis, diagram, image):
    dom, _ = diagram.typecheck()
    if not diagram.slices:
        mat = identity(ring, 1)
        for s in dom:
            mat = kron(mat, image(ident(s)))
        return mat
    mat = None
    for slc in diagram.slices:
        layer = identity(ring, 1)
        for g in slc:
            if g.kind == "swap":
                perm = _dense(ring, basis, 2, 2, lambda o, i: o == (i[1], i[0]))
                g_mat = perm @ kron(image(ident(g.sign)), image(ident(g.sign2)))
            else:
                g_mat = image(g)
            layer = kron(layer, g_mat)
        mat = layer if mat is None else layer @ mat
    return mat


def dense_eval_nfa(nfa, diagram, ring=BOOL) -> Mat:
    """eval_nfa(nfa, diagram, ring).matrix, by dense layers."""
    states = nfa.states

    def d(k_out, k_in, pred):
        return _dense(ring, states, k_out, k_in, pred)

    def image(g):
        k = g.kind
        if k == "id":
            return identity(ring, len(states))
        if k == "dot":
            m = nfa.letter_matrix(g.letter, ring)
            return m.transpose() if g.sign == "+" else m
        if k == "cup":
            return d(2, 0, lambda o, i: o[0] == o[1])
        if k == "cap":
            return d(0, 2, lambda o, i: i[0] == i[1])
        if k in ("birth", "death"):
            if g.label is not None:
                members = {g.label}
            elif (k == "birth") == (g.sign == "+"):
                members = nfa.initial
            else:
                members = nfa.accepting
            if k == "birth":
                return d(1, 0, lambda o, i: o[0] in members)
            return d(0, 1, lambda o, i: i[0] in members)
        raise ValueError(f"{k} is not an automaton generator")

    return _dense_run(ring, states, diagram, image)


def dense_eval_tautomaton(taut, diagram) -> Mat:
    """eval_tautomaton(taut, diagram).matrix, by dense layers: every identity
    wire is the idempotent E."""
    space = taut.space
    U = space.min_open

    def d(k_out, k_in, pred):
        return _dense(BOOL, space.points, k_out, k_in, pred)

    def image(g):
        k, s = g.kind, g.sign
        if k == "id":
            if s == "+":
                return d(1, 1, lambda o, i: o[0] in U[i[0]])
            return d(1, 1, lambda o, i: i[0] in U[o[0]])
        if k == "dot":
            t = taut.letters[g.letter].image
            if s == "+":
                return d(1, 1, lambda o, i: o[0] in t[i[0]])
            return d(1, 1, lambda o, i: i[0] in t[o[0]])
        if k == "cup":
            if s == "+":
                return d(2, 0, lambda o, i: o[0] in U[o[1]])
            return d(2, 0, lambda o, i: o[1] in U[o[0]])
        if k == "cap":
            if s == "+":
                return d(0, 2, lambda o, i: i[1] in U[i[0]])
            return d(0, 2, lambda o, i: i[0] in U[i[1]])
        if k == "birth":
            if g.label is not None:
                members = U[g.label]
            else:
                members = taut.initial_open if s == "+" else taut.accepting_closed
            return d(1, 0, lambda o, i: o[0] in members)
        if k == "death":
            if g.label is not None:
                return d(0, 1, lambda o, i: g.label in U[i[0]])
            if s == "+":
                return d(0, 1, lambda o, i: taut.accepting_closed & U[i[0]])
            return d(0, 1, lambda o, i: taut.initial_open & space.closure_of(i[0]))
        if k == "merge":
            return d(1, 2, lambda o, i: o[0] in U[i[0]] & U[i[1]])
        if k == "split":
            return d(2, 1, lambda o, i: any(set(o) <= U[z] for z in U[i[0]]))
        if k == "unit":
            return d(1, 0, lambda o, i: True)
        return d(0, 1, lambda o, i: True)  # counit

    return _dense_run(BOOL, space.points, diagram, image)


# -- graph references -------------------------------------------------------------
#
# Straight rescans of ``delta``, kept as the references the indexed graph
# walks in ``Nfa.trim`` and ``autcob.covers`` are compared with.


def _reference_reach(nfa, seeds, forward=True):
    seen = set(seeds)
    todo = list(seen)
    while todo:
        q = todo.pop()
        for p, _, r in nfa.delta:
            src, dst = (p, r) if forward else (r, p)
            if src == q and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def reference_trim(nfa):
    """Nfa.trim by rescanning delta: the core is every state on an
    initial-to-accepting path or on an oriented loop, or else one bare state
    of a nonempty automaton."""
    on_path = _reference_reach(nfa, nfa.initial) & _reference_reach(
        nfa, nfa.accepting, forward=False
    )
    on_loop = {
        q
        for q in nfa.states
        if q in _reference_reach(nfa, {r for p, _, r in nfa.delta if p == q})
    }
    core = on_path | on_loop
    if not core and nfa.states:
        core = {nfa.states[0]}
    return Nfa.make(
        [q for q in nfa.states if q in core],
        nfa.alphabet,
        [(q, a, r) for q, a, r in nfa.delta if q in core and r in core],
        nfa.initial & core,
        nfa.accepting & core,
    )


def reference_graph_map_ok(p, cover, base):
    """A surjective map of labelled graphs that takes decorations to
    decorations by exact preimage."""
    vm = p.vertex_map
    if set(vm.values()) != set(base.states):
        return False
    for q, a, r in cover.delta:
        if p.edge_map[(q, a, r)] != (vm[q], a, vm[r]):
            return False
        if (vm[q], a, vm[r]) not in base.delta:
            return False
    return all(
        (q in mine) == (vm[q] in theirs)
        for q in cover.states
        for mine, theirs in ((cover.initial, base.initial),
                             (cover.accepting, base.accepting))
    )


def _lifts(p, cover, q, edge, out):
    """The cover edges at q (leaving it when ``out``, else entering it)
    that p sends to the base edge ``edge``."""
    return [
        e for e in cover.delta if e[0 if out else 2] == q and p.edge_map[e] == edge
    ]


def reference_is_weak_covering(p, cover, base):
    """Every base edge lifts at every point of the fiber over its source."""
    vm = p.vertex_map
    return reference_graph_map_ok(p, cover, base) and all(
        _lifts(p, cover, q, edge, out=True)
        for edge in base.delta
        for q in cover.states
        if vm[q] == edge[0]
    )


def reference_is_covering(p, cover, base):
    """Every base edge at the image of a state lifts there exactly once,
    on the out side and on the in side."""
    vm = p.vertex_map
    return reference_graph_map_ok(p, cover, base) and all(
        len(_lifts(p, cover, q, edge, out)) == 1
        for q in cover.states
        for out in (True, False)
        for edge in base.delta
        if edge[0 if out else 2] == vm[q]
    )
