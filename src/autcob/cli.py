"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 sweep mismatch, 2 input error, 3 diagram type error, 4 capacity.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import product

from .automaton import Nfa, json_object, read_json
from .covers import GraphMap, check_cover_size, cyclic_cover, is_covering
from .covers import is_weak_covering, voltage_cover
from .diagrams import Diagram, parse_diagram
from .errors import CapacityError, DiagramTypeError, ParseError
from .evaluate import eval_nfa, eval_tautomaton
from .semiring import BOOL, NAT
from .topology import TAutomaton

#: The most words ``oracle sweep`` enumerates.
MAX_SWEEP_WORDS = 1 << 16


def cli_word(text: str) -> tuple:
    """One letter per character; comma-separated for multi-character
    letters.  The empty string is the empty word."""
    if not text:
        return ()
    if "," in text:
        return tuple(p for p in text.split(",") if p)
    return tuple(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_nfa(path: str) -> Nfa:
    return Nfa.from_json(_read(path))


def _load_taut(path: str) -> TAutomaton:
    return TAutomaton.from_json(_read(path))


def _load_diagram(path: str) -> Diagram:
    text = _read(path)
    if path.endswith(".json"):
        return Diagram.from_json(text)
    return parse_diagram(text)


def _write_automaton(nfa: Nfa, path: str):
    """One line of compact JSON: json.dumps without ``indent`` runs the C
    encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(nfa.to_json())
        fh.write("\n")


def _cmd_eval(args) -> int:
    diagram = _load_diagram(args.diagram)
    if args.tautomaton:
        if args.semiring != "bool":
            raise ValueError("T-automaton evaluation is Boolean only")
        ev = eval_tautomaton(_load_taut(args.tautomaton), diagram)
    else:
        ring = BOOL if args.semiring == "bool" else NAT
        ev = eval_nfa(_load_nfa(args.automaton), diagram, ring)
    if diagram.is_closed:
        print(ev.scalar())
    else:
        for i in range(ev.matrix.rows):
            print(" ".join(str(v) for v in ev.matrix.row(i)))
    return 0


def _cmd_word(args) -> int:
    """One word query, ``args.query``, on an automaton or a T-automaton."""
    if "tautomaton" in args:
        machine = _load_taut(args.tautomaton)
    else:
        machine = _load_nfa(args.automaton)
    print(int(getattr(machine, args.query)(cli_word(args.word))))
    return 0


def _cmd_cover_cyclic(args) -> int:
    nfa = _load_nfa(args.automaton)
    order = [s for s in args.order.split(",") if s]
    _write_automaton(cyclic_cover(nfa, order, args.n), args.out)
    return 0


def _cmd_cover_voltage(args) -> int:
    nfa = _load_nfa(args.automaton)
    text = _read(args.voltages) if args.voltages else "{}"
    spec = json_object(read_json(text), "voltage file", (), ("assignments",))
    assignments = spec.get("assignments", [])
    if not isinstance(assignments, list):
        raise ValueError("'assignments' must be a list")
    check_cover_size(nfa, args.n)
    # unlisted transitions get the identity permutation
    voltages = {e: tuple(range(args.n)) for e in nfa.delta}
    for item in assignments:
        json_object(item, "voltage assignment", ("from", "letter", "to", "perm"))
        edge = (item["from"], item["letter"], item["to"])
        if not all(isinstance(v, str) for v in edge) or edge not in nfa.delta:
            raise ValueError(f"assignment for unknown transition {edge}")
        perm = item["perm"]
        if not isinstance(perm, list) or not all(isinstance(k, int) for k in perm):
            raise ValueError(f"'perm' must be a list of integers, got {perm!r}")
        voltages[edge] = tuple(perm)
    _write_automaton(voltage_cover(nfa, args.n, voltages), args.out)
    return 0


def _cmd_cover_check(args) -> int:
    cover = _load_nfa(args.cover)
    base = _load_nfa(args.base)
    vm = json_object(read_json(_read(args.map)), "map file", ("vertices",))["vertices"]
    if not isinstance(vm, dict) or not all(isinstance(q, str) for q in vm.values()):
        raise ValueError("'vertices' must be an object from cover to base states")
    p = GraphMap.from_vertex_map(cover, base, vm)
    check = is_weak_covering if args.weak else is_covering
    print(int(check(p, cover, base)))
    return 0


def _cmd_trim(args) -> int:
    _write_automaton(_load_nfa(args.automaton).trim(), args.out)
    return 0


def _dot_id(name: str) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_dot(args) -> int:
    nfa = _load_nfa(args.automaton)
    ids = {q: _dot_id(q) for q in nfa.states}
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for q in nfa.states:
        shape = "doublecircle" if q in nfa.accepting else "circle"
        lines.append(f"  {ids[q]} [shape={shape}];")
    # start nodes share the states' namespace: lengthen their prefix until
    # no state name begins with it
    prefix = "__start"
    while any(q.startswith(prefix) for q in nfa.states):
        prefix = "_" + prefix
    for i, q in enumerate(sorted(nfa.initial)):
        start = _dot_id(f"{prefix}{i}")
        lines.append(f"  {start} [shape=none, label={_dot_id('')}];")
        lines.append(f"  {start} -> {ids[q]};")
    for q, a, r in sorted(nfa.delta):
        lines.append(f"  {ids[q]} -> {ids[r]} [label={_dot_id(a)}];")
    lines.append("}")
    print("\n".join(lines))
    return 0


def _cmd_oracle_sweep(args) -> int:
    # imported here: only ``oracle sweep`` reads the brute-force oracle
    from .oracle import chain_map_sum, check_caps, circle_map_sum

    if args.max_len < 0:
        raise ValueError(f"--max-len must be at least 0, got {args.max_len}")
    nfa = _load_nfa(args.automaton)
    k, top = len(nfa.alphabet), args.max_len
    # the words of length <= top; past length 64 they are over the cap anyway
    count = 1 + k * top if k < 2 else (k ** (min(top, 64) + 1) - 1) // (k - 1)
    if count > MAX_SWEEP_WORDS:
        raise CapacityError(f"more than {MAX_SWEEP_WORDS} words up to length {top}")
    longest = top if k else 0
    # the map sums refuse long words and large automata: refuse before the sweep
    check_caps(nfa, longest)
    lengths = range(longest + 1)
    words = (w for n in lengths for w in product(nfa.alphabet, repeat=n))
    bad = 0
    for w in words:
        checks = [
            ("chain/bool", bool(chain_map_sum(nfa, w)), nfa.interval_eval(w)),
            ("circle/bool", bool(circle_map_sum(nfa, w)), nfa.trace_eval(w)),
        ]
        m = nfa.word_matrix(w, NAT)
        idx = nfa._index
        paths = sum(m[idx[q], idx[r]] for q in nfa.initial for r in nfa.accepting)
        checks.append(("chain/nat", chain_map_sum(nfa, w, NAT), paths))
        checks.append(("circle/nat", circle_map_sum(nfa, w, NAT), m.trace()))
        for name, got, want in checks:
            if got != want:
                bad += 1
                print(f"mismatch {name} on {''.join(w) or 'eps'}: {got} != {want}",
                      file=sys.stderr)
    if bad:
        return 1
    print(f"ok: {count} words up to length {top}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  ``parse_args``
    leaves it unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(prog="autcob")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a diagram to a matrix or scalar")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--automaton")
    src.add_argument("--tautomaton")
    p.add_argument("--diagram", required=True)
    p.add_argument("--semiring", choices=["bool", "nat"], default="bool")
    p.set_defaults(func=_cmd_eval)

    for name, source, query, text in (
        ("member", "automaton", "interval_eval", "interval membership"),
        ("trace-member", "automaton", "trace_eval", "trace (circular) membership"),
        ("t-member", "tautomaton", "interval_eval", "T-automaton interval membership"),
        ("t-trace", "tautomaton", "trace_eval", "T-automaton trace membership"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument(f"--{source}", required=True)
        p.add_argument("--word", required=True)
        p.set_defaults(func=_cmd_word, query=query)

    cover = sub.add_parser("cover", help="covering constructions and checks")
    csub = cover.add_subparsers(dest="cover_command", required=True)

    p = csub.add_parser("cyclic")
    p.add_argument("--automaton", required=True)
    p.add_argument("--order", required=True, help="comma-separated state order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cover_cyclic)

    p = csub.add_parser("voltage")
    p.add_argument("--automaton", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--voltages", help="JSON {assignments: [{from, letter, to, perm}]}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cover_voltage)

    p = csub.add_parser("check")
    p.add_argument("--map", required=True, help='JSON {"vertices": {cover: base}}')
    p.add_argument("--cover", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--weak", action="store_true")
    p.set_defaults(func=_cmd_cover_check)

    p = sub.add_parser("trim", help="drop states off accepting paths and loops")
    p.add_argument("--automaton", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("dot", help="Graphviz DOT of the automaton graph")
    p.add_argument("--automaton", required=True)
    p.set_defaults(func=_cmd_dot)

    oracle = sub.add_parser("oracle", help="brute-force equivalence suites")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("sweep")
    p.add_argument("--automaton", required=True)
    p.add_argument("--max-len", type=int, default=5)
    p.set_defaults(func=_cmd_oracle_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # usage error (2) or --help (0)
        return e.code
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except DiagramTypeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        # str() of a KeyError quotes its message as a key
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
