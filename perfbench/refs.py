"""Independent reference semantics for the benchmark's output checks.

Everything here works on the benchmark's own plain data (the JSON-shaped
dicts it generates) and shares no code with ``autcob``: subset simulation,
closed-walk search and counting, path-count dynamic programming, a
per-basis-tuple evaluation of open diagrams, an iterative SCC pass for the
trim core, and set-level reduced forms of foams.

Conventions match the evaluator's: matrices are row-major, rows index the
codomain and columns the domain, and a basis tuple of several wires is
indexed with the leftmost wire as the slowest digit.
"""

from __future__ import annotations

from itertools import product


def successor_table(aut: dict) -> dict:
    """(state, letter) -> sorted distinct successors."""
    table = {}
    for t in aut["transitions"]:
        table.setdefault((t["from"], t["letter"]), set()).add(t["to"])
    return {k: sorted(v) for k, v in table.items()}


def predecessor_table(aut: dict) -> dict:
    """(state, letter) -> sorted distinct predecessors."""
    table = {}
    for t in aut["transitions"]:
        table.setdefault((t["to"], t["letter"]), set()).add(t["from"])
    return {k: sorted(v) for k, v in table.items()}


def _step(succ, frontier, letter):
    out = set()
    for q in frontier:
        out.update(succ.get((q, letter), ()))
    return out


def accepts(aut: dict, word, succ=None) -> bool:
    """Subset simulation: some path spelling the word runs from an initial
    to an accepting state."""
    succ = succ if succ is not None else successor_table(aut)
    frontier = set(aut["initial"])
    for a in word:
        frontier = _step(succ, frontier, a)
    return bool(frontier & set(aut["accepting"]))


def closed_walk_at(succ, q, word) -> bool:
    frontier = {q}
    for a in word:
        frontier = _step(succ, frontier, a)
        if not frontier:
            return False
    return q in frontier


def closed_walk_exists(aut: dict, word, succ=None) -> bool:
    """Closed-walk search: some state carries a closed walk spelling the
    word (the Boolean circle value and the trace evaluation)."""
    succ = succ if succ is not None else successor_table(aut)
    return any(closed_walk_at(succ, q, word) for q in aut["states"])


def _count_from(succ, q, word) -> dict:
    counts = {q: 1}
    for a in word:
        nxt = {}
        for p, c in counts.items():
            for r in succ.get((p, a), ()):
                nxt[r] = nxt.get(r, 0) + c
        counts = nxt
    return counts


def closed_walk_count(aut: dict, word, succ=None) -> int:
    """Number of (state, closed walk) pairs spelling the word: the circle
    value over the naturals."""
    succ = succ if succ is not None else successor_table(aut)
    return sum(_count_from(succ, q, word).get(q, 0) for q in aut["states"])


def path_counts(aut: dict, word, succ=None) -> tuple:
    """Row-major matrix whose (q, r) entry counts the paths from q to r
    spelling the word: the word matrix over the naturals."""
    succ = succ if succ is not None else successor_table(aut)
    states = aut["states"]
    out = []
    for q in states:
        counts = _count_from(succ, q, word)
        out.extend(counts.get(r, 0) for r in states)
    return tuple(out)


def rotations(word) -> list:
    word = tuple(word)
    return [word[i:] + word[:i] for i in range(len(word))] or [word]


def through_subset(aut: dict, marked, word, succ=None) -> bool:
    """Some rotation of the word is spelled by a closed walk based at a
    marked state, i.e. some cyclic path spelling the word visits one."""
    succ = succ if succ is not None else successor_table(aut)
    if not word:
        return bool(marked)
    return any(
        closed_walk_at(succ, q, rot) for rot in set(rotations(word)) for q in marked
    )


def trim_core(aut: dict) -> set:
    """(forward reachable from initial and backward reachable from
    accepting) union (states on an oriented cycle), found by an iterative
    Tarjan SCC pass.  A nonempty automaton whose core is empty keeps its
    first state."""
    states = aut["states"]
    out_edges = {q: [] for q in states}
    in_edges = {q: [] for q in states}
    self_loop = set()
    for t in aut["transitions"]:
        out_edges[t["from"]].append(t["to"])
        in_edges[t["to"]].append(t["from"])
        if t["from"] == t["to"]:
            self_loop.add(t["from"])

    def reach(seeds, edges):
        seen = set(seeds)
        todo = list(seen)
        while todo:
            for r in edges[todo.pop()]:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return seen

    core = reach(aut["initial"], out_edges) & reach(aut["accepting"], in_edges)
    for comp in strongly_connected_components(states, out_edges):
        if len(comp) > 1 or comp[0] in self_loop:
            core.update(comp)
    if not core and states:
        core = {states[0]}
    return core


def strongly_connected_components(nodes, out_edges) -> list:
    """Iterative Tarjan: a list of components, each a list of nodes."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            edges = out_edges[v]
            if i < len(edges):
                work.append((v, i + 1))
                w = edges[i]
                if w not in index:
                    work.append((w, 0))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def open_diagram_matrix(aut: dict, slices, width: int) -> tuple:
    """Per-basis-tuple evaluation over the Boolean semiring of an open
    diagram built from ``("id", sign)``, ``("dot", letter, sign)`` and
    ``("swap",)`` on a constant number of wires.

    A dot on a '+' wire moves a state to its letter successors, on a '-'
    wire to its letter predecessors; a swap exchanges two neighbouring
    wires.  Entry (out, in) is 1 iff the input tuple reaches the output
    tuple.
    """
    succ = successor_table(aut)
    pred = predecessor_table(aut)
    states = aut["states"]
    n = len(states)
    pos = {q: i for i, q in enumerate(states)}

    def apply_slice(tuples, slc):
        out = set()
        for tup in tuples:
            choices = []
            k = 0
            for g in slc:
                if g[0] == "swap":
                    choices.append([(tup[k + 1], tup[k])])
                    k += 2
                    continue
                q = tup[k]
                if g[0] == "id":
                    choices.append([(q,)])
                else:
                    table = succ if g[2] == "+" else pred
                    choices.append([(r,) for r in table.get((q, g[1]), ())])
                k += 1
            for parts in product(*choices):
                out.add(tuple(s for part in parts for s in part))
        return out

    def flat(tup):
        i = 0
        for q in tup:
            i = i * n + pos[q]
        return i

    dim = n ** width
    ent = [0] * (dim * dim)
    for tup in product(states, repeat=width):
        reached = {tup}
        for slc in slices:
            reached = apply_slice(reached, slc)
        col = flat(tup)
        for out in reached:
            ent[flat(out) * dim + col] = 1
    return tuple(ent)


# -- finite spaces ----------------------------------------------------------


def idempotent(taut: dict) -> tuple:
    """E[y][x] = 1 iff y lies in the minimal open of x, row-major: the value
    of the identity '+' wire, and so of split ; merge."""
    pts = taut["points"]
    u = {x: set(taut["min_open"][x]) for x in pts}
    return tuple(int(y in u[x]) for y in pts for x in pts)


def _apply(taut, letter, members) -> set:
    """Image of an open set under a letter: the union of the images of the
    minimal opens of its points."""
    out = set()
    for x in members:
        out.update(taut["letters"][letter][x])
    return out


def foam_value(taut: dict, a, b, c, d) -> int:
    """Reduced form of the closed foam
    ``unit ; dot(a)+ ; split ; dot(b)+ dot(c)+ ; merge ; dot(d)+ ; counit``.

    The unit is the whole space X; split of an open S is the sum of
    U_z (x) U_z over z in S; merge is intersection; the counit asks for a
    nonempty set.  The foam therefore equals 1 iff
    T_d( union over z in T_a(X) of T_b(U_z) n T_c(U_z) ) is nonempty.
    """
    u = taut["min_open"]
    top = _apply(taut, a, taut["points"])
    meet = set()
    for z in top:
        meet |= _apply(taut, b, u[z]) & _apply(taut, c, u[z])
    return int(bool(_apply(taut, d, meet)))
