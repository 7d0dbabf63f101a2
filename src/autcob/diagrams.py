"""Typed, layered diagrams for decorated one-dimensional cobordisms and foams.

A diagram is a list of slices read bottom to top; the domain sits at the
bottom.  Each slice is a row of generators whose concatenated input signs
must equal the boundary left by the slice below.  Generators:

    token            inputs      outputs
    id+ id-          (s)         (s)
    cup+             ()          (+ -)        cup- gives (- +)
    cap+             (+ -)       ()           cap- takes (- +)
    swap(s1s2)       (s1 s2)     (s2 s1)
    dot(L)+ dot(L)-  (s)         (s)          defect labelled by letter L
    birth+ death+    () / (+)    (+) / ()     inner endpoints; birth+(x) and
    birth- death-    () / (-)    (-) / ()     death+(x) carry a state/point label
    merge            (+ +)       (+)
    split            (+)         (+ +)
    unit             ()          (+)
    counit           (+)         ()

Slice text format: generators separated by spaces, slices separated by ';'.
Trivalent and univalent foam vertices exist only on '+' wires; their '-'
counterparts are the composite diagrams returned by merge_on_minus() and
split_on_minus(), which bend the wires through the duality.
"""

from __future__ import annotations

import json
import re
from functools import cached_property

from .automaton import as_word, json_object, read_json
from .errors import DiagramTypeError, ParseError, Record

SIGNS = ("+", "-")


def flip(sign: str) -> str:
    return "-" if sign == "+" else "+"


_KINDS = {
    "id", "cup", "cap", "swap", "dot", "birth", "death",
    "merge", "split", "unit", "counit",
}
_SIGNED = {"id", "cup", "cap", "dot", "birth", "death"}
_FOAM = {"merge", "split", "unit", "counit"}
# the JSON keys each kind of generator takes beside 'gen'
_GEN_KEYS = {
    **dict.fromkeys(_SIGNED, ("sign",)),
    "swap": ("signs",),
    "dot": ("sign", "letter"),
    "birth": ("sign", "label"),
    "death": ("sign", "label"),
}


class Gen(Record):
    """One generator occurrence inside a slice."""

    _fields = ("kind", "sign", "sign2", "letter", "label")

    def __init__(self, kind: str, sign: str = None, sign2: str = None,
                 letter: str = None, label: str = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind in _SIGNED and sign not in SIGNS:
            raise ValueError(f"{kind} needs a sign")
        if kind == "swap" and (sign not in SIGNS or sign2 not in SIGNS):
            raise ValueError("swap needs two signs")
        if kind == "dot" and not letter:
            raise ValueError("dot needs a letter")
        if letter is not None and kind != "dot":
            raise ValueError("letters are only supported on dots")
        if sign2 is not None and kind != "swap" or sign is not None and kind in _FOAM:
            raise ValueError(f"{kind} takes {'one sign' if kind in _SIGNED else 'no sign'}")
        if label is not None and not (kind in ("birth", "death") and sign == "+"):
            raise ValueError("labels are only supported on birth+/death+")
        self.__dict__.update(kind=kind, sign=sign, sign2=sign2, letter=letter, label=label)

    # the evaluator caches generator images by Gen: compare and hash the
    # fields directly, without the base class's getter
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.kind, self.sign, self.sign2, self.letter, self.label)
                    == (other.kind, other.sign, other.sign2, other.letter, other.label))
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.sign, self.sign2, self.letter, self.label))

    def inputs(self) -> tuple:
        k = self.kind
        if k in ("id", "dot", "death", "counit"):
            return ("+",) if k == "counit" else (self.sign,)
        if k == "cap":
            return (self.sign, flip(self.sign))
        if k == "swap":
            return (self.sign, self.sign2)
        if k == "merge":
            return ("+", "+")
        if k == "split":
            return ("+",)
        return ()  # cup, birth, unit

    def outputs(self) -> tuple:
        k = self.kind
        if k in ("id", "dot", "birth", "unit"):
            return ("+",) if k == "unit" else (self.sign,)
        if k == "cup":
            return (self.sign, flip(self.sign))
        if k == "swap":
            return (self.sign2, self.sign)
        if k == "split":
            return ("+", "+")
        if k == "merge":
            return ("+",)
        return ()  # cap, death, counit

    def token(self) -> str:
        k = self.kind
        if k in ("id", "cup", "cap"):
            return f"{k}{self.sign}"
        if k == "swap":
            return f"swap({self.sign}{self.sign2})"
        if k == "dot":
            return f"dot({self.letter}){self.sign}"
        if k in ("birth", "death"):
            lab = f"({self.label})" if self.label is not None else ""
            return f"{k}{self.sign}{lab}"
        return k

    def to_json_dict(self) -> dict:
        d = {"gen": self.kind}
        if self.kind == "swap":
            d["signs"] = [self.sign, self.sign2]
        elif self.kind in _SIGNED:
            d["sign"] = self.sign
        if self.letter is not None:
            d["letter"] = self.letter
        if self.label is not None:
            d["label"] = self.label
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> Gen:
        json_object(data, "generator", ("gen",), ("sign", "signs", "letter", "label"))
        fields = [v for k, v in data.items() if k != "signs"]
        if not all(v is None or isinstance(v, str) for v in fields):
            raise ValueError(f"generator fields must be strings, got {data!r}")
        kind = data["gen"]
        json_object(data, f"generator {kind!r}", ("gen",), _GEN_KEYS.get(kind, ()))
        if kind != "swap":
            return cls(kind, data.get("sign"), letter=data.get("letter"),
                       label=data.get("label"))
        signs = data.get("signs")
        if not isinstance(signs, list) or len(signs) != 2:
            raise ValueError("swap needs 'signs': [s1, s2]")
        return cls(kind, *signs)


def ident(sign) -> Gen:
    return Gen("id", sign)


def cup(sign) -> Gen:
    return Gen("cup", sign)


def cap(sign) -> Gen:
    return Gen("cap", sign)


def swap(sign, sign2) -> Gen:
    return Gen("swap", sign, sign2)


def dot(letter, sign="+") -> Gen:
    return Gen("dot", sign, letter=letter)


def birth(sign="+", label=None) -> Gen:
    return Gen("birth", sign, label=label)


def death(sign="+", label=None) -> Gen:
    return Gen("death", sign, label=label)


MERGE = Gen("merge")
SPLIT = Gen("split")
UNIT = Gen("unit")
COUNIT = Gen("counit")


class Diagram(Record):
    """Slices bottom to top; closed iff domain and codomain are empty."""

    _fields = ("slices", "domain")

    def __init__(self, slices: tuple, domain: tuple):
        self.__dict__.update(slices=slices, domain=domain)

    @classmethod
    def make(cls, slices, domain=None) -> Diagram:
        slices = tuple(tuple(s) for s in slices)
        if domain is None:
            domain = ()
            if slices:
                domain = tuple(s for g in slices[0] for s in g.inputs())
        return cls(slices, tuple(domain))

    def typecheck(self) -> tuple:
        """(domain, codomain) from the one cached pass, ``_plan``; raises
        ``DiagramTypeError`` at the first slice that does not fit its boundary."""
        return self.domain, self._plan[0]

    @cached_property
    def codomain(self) -> tuple:
        return self.typecheck()[1]

    @cached_property
    def _plan(self) -> tuple:
        """The codomain and each connected component, from one pass over the
        slices that holds for every number n of basis elements per wire.

        The pass checks each slice against its boundary and threads the wire
        segments with a union-find: identity wires carry their segments
        through, swaps cross them, every other generator joins all its own.
        Each component, in the order its first segment is met (domain wires,
        then slice by slice), gets its domain and codomain positions, widest
        boundary and steps (e, inputs, outputs, generator), shrinking
        generators first so no boundary in between is wider than the slice's
        ends.  A step maps n^inputs basis tuples to n^outputs at the stride
        n^e, e counting the component's domain wires and its segments right
        of the step as it runs.  Identity wires take no step, nor does a swap
        between two components; a bare strand takes the step (1, 1, 1, id)."""
        dom = self.domain
        parent = list(range(len(dom)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        signs, boundary = dom, parent[:]
        records = []  # per slice, per generator: (generator, inputs, outputs)
        for k, slc in enumerate(self.slices):
            row, out, made, pos = [], [], (), 0
            for g in slc:
                need, gives = g.inputs(), g.outputs()
                end = pos + len(need)
                if signs[pos:end] != need:
                    pos = -1  # fails the fit below
                    break
                ins = boundary[pos:end]
                if g.kind in ("id", "swap"):
                    outs = ins[::-1]
                else:
                    first = len(parent)
                    root = find(ins[0]) if ins else first
                    for x in ins[1:]:
                        parent[find(x)] = root
                    outs = list(range(first, first + len(gives)))
                    parent += [root] * len(gives)
                row.append((g, ins, outs))
                out += outs
                made += gives
                pos = end
            if pos != len(signs):
                raise DiagramTypeError(
                    "slice does not fit its boundary", slice_index=k, expected=signs,
                    actual=tuple(s for g in slc for s in g.inputs()),
                )
            records.append(row)
            signs, boundary = made, out
        order = {}
        comp = [order.setdefault(find(x), len(order)) for x in range(len(parent))]
        parts = [([], [], []) for _ in order]  # domain and codomain positions, steps
        for side, segs in enumerate((range(len(dom)), boundary)):
            for j, x in enumerate(segs):
                parts[comp[x]][side].append(j)
        width = [len(dpos) for dpos, _, _ in parts]
        widest = width[:]
        for row in records:
            moves = [k for k, (g, ins, _) in enumerate(row)
                     if g.kind != "id" and (g.kind != "swap" or comp[ins[0]] == comp[ins[1]])]
            if len(moves) > 1:  # shrinking generators first, each kept in slice order
                moves.sort(key=lambda k: len(row[k][2]) - len(row[k][1]))
            now = [ins for _, ins, _ in row]  # the slice's boundary as its steps run
            for k in moves:
                g, ins, outs = row[k]
                c = comp[(ins or outs)[0]]
                now[k] = outs
                right = 0  # the component's segments right of the step
                if k + 1 < len(row):
                    right = sum(comp[x] == c for segs in now[k + 1:] for x in segs)
                parts[c][2].append((right + len(parts[c][0]), len(ins), len(outs), g))
                width[c] += len(outs) - len(ins)
                widest[c] = max(widest[c], width[c])
        return signs, [
            (dpos, cpos, w, steps or [(1, 1, 1, ident(dom[dpos[0]]))])
            for (dpos, cpos, steps), w in zip(parts, widest)
        ]

    @property
    def is_closed(self) -> bool:
        return not self.domain and not self.codomain

    def letters(self) -> set:
        return {g.letter for s in self.slices for g in s if g.kind == "dot"}

    def __rshift__(self, other: Diagram) -> Diagram:
        return compose(self, other)

    def __matmul__(self, other: Diagram) -> Diagram:
        return tensor(self, other)

    # -- text and JSON -------------------------------------------------------

    def to_text(self) -> str:
        if not self.slices:
            # a sliceless identity has no slice syntax; print an id layer
            return " ".join(ident(s).token() for s in self.domain)
        return " ; ".join(" ".join(g.token() for g in slc) for slc in self.slices)

    def to_json_dict(self) -> dict:
        # a sliceless identity keeps its domain as one id layer, as in to_text
        slices = self.slices or identity_diagram(self.domain).slices
        return {"slices": [[g.to_json_dict() for g in slc] for slc in slices]}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, data: dict) -> Diagram:
        slices = json_object(data, "diagram", (), ("slices",)).get("slices", [])
        if not isinstance(slices, list) or not all(isinstance(s, list) for s in slices):
            raise ValueError("'slices' must be a list of lists of generators")
        return cls.make([[Gen.from_json_dict(g) for g in slc] for slc in slices])

    @classmethod
    def from_json(cls, text: str) -> Diagram:
        return cls.from_json_dict(read_json(text))


def identity_diagram(signs) -> Diagram:
    signs = tuple(signs)
    if not signs:
        return Diagram.make([])
    return Diagram.make([[ident(s) for s in signs]])


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Stack d2 on top of d1."""
    if d1.codomain != d2.domain:
        raise DiagramTypeError(
            f"cannot compose: codomain {''.join(d1.codomain) or 'empty'} "
            f"!= domain {''.join(d2.domain) or 'empty'}"
        )
    return Diagram.make(d1.slices + d2.slices, d1.domain)


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 to the right of d1, padding the shorter one with identity
    slices on its codomain."""
    c1, c2 = d1.codomain, d2.codomain
    s1, s2 = list(d1.slices), list(d2.slices)
    while len(s1) < len(s2):
        s1.append(tuple(ident(s) for s in c1))
    while len(s2) < len(s1):
        s2.append(tuple(ident(s) for s in c2))
    return Diagram.make(
        [a + b for a, b in zip(s1, s2)], d1.domain + d2.domain
    )


# -- word-shaped diagrams ----------------------------------------------------


def interval_diagram(word) -> Diagram:
    """Floating interval reading the word bottom to top: birth, dots, death."""
    slices = [[birth("+")]]
    slices += [[dot(a, "+")] for a in as_word(word)]
    slices += [[death("+")]]
    return Diagram.make(slices)


def circle_diagram(word) -> Diagram:
    """Decorated circle: cup, dots on the upward strand, cap."""
    slices = [[cup("+")]]
    slices += [[dot(a, "+"), ident("-")] for a in as_word(word)]
    slices += [[cap("+")]]
    return Diagram.make(slices)


def merge_on_minus() -> Diagram:
    """Multiplication on '-' wires, written through the duality: bend both
    inputs up across a split on a '+' wire."""
    return Diagram.make(
        [
            [ident("-"), ident("-"), cup("+")],
            [ident("-"), ident("-"), SPLIT, ident("-")],
            [ident("-"), cap("-"), ident("+"), ident("-")],
            [cap("-"), ident("-")],
        ],
        domain=("-", "-"),
    )


def split_on_minus() -> Diagram:
    """Comultiplication on '-' wires through the duality: merge on '+', its
    output capped against the incoming wire."""
    return Diagram.make(
        [
            [cup("+"), cup("+"), ident("-")],
            [ident("+"), swap("-", "+"), ident("-"), ident("-")],
            [MERGE, ident("-"), ident("-"), ident("-")],
            [swap("+", "-"), ident("-"), ident("-")],
            [ident("-"), swap("+", "-"), ident("-")],
            [ident("-"), ident("-"), cap("+")],
        ],
        domain=("-",),
    )


# -- parsing ------------------------------------------------------------------

_TOKEN_PATTERNS = [
    (re.compile(r"id([+-])\Z"), lambda m: ident(m.group(1))),
    (re.compile(r"cup([+-])\Z"), lambda m: cup(m.group(1))),
    (re.compile(r"cap([+-])\Z"), lambda m: cap(m.group(1))),
    (re.compile(r"swap\(([+-])([+-])\)\Z"), lambda m: swap(m.group(1), m.group(2))),
    (re.compile(r"dot\(([^()\s;]+)\)([+-])\Z"), lambda m: dot(m.group(1), m.group(2))),
    (
        re.compile(r"(birth|death)([+-])(?:\(([^()\s;]+)\))?\Z"),
        lambda m: Gen(m.group(1), m.group(2), label=m.group(3)),
    ),
    (re.compile(r"merge\Z"), lambda m: MERGE),
    (re.compile(r"split\Z"), lambda m: SPLIT),
    (re.compile(r"unit\Z"), lambda m: UNIT),
    (re.compile(r"counit\Z"), lambda m: COUNIT),
]


def _position(text, offset) -> tuple:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, col


def parse_diagram(text: str) -> Diagram:
    """Parse the slice text format; round-trips with Diagram.to_text()."""
    slices = [[]]
    offsets = [0]
    for m in re.finditer(r"[^\s;]+|;", text):
        tok = m.group(0)
        if tok == ";":
            slices.append([])
            offsets.append(m.start())
            continue
        for pattern, build in _TOKEN_PATTERNS:
            pm = pattern.match(tok)
            if pm:
                try:
                    g = build(pm)
                except ValueError as e:
                    raise ParseError(str(e), *_position(text, m.start())) from None
                slices[-1].append(g)
                break
        else:
            raise ParseError(f"unknown token {tok!r}", *_position(text, m.start()))
    while slices and not slices[-1]:
        slices.pop()
        offsets.pop()
    return Diagram.make(slices)
