"""Mutated inputs on every loader raise only its documented error types:
``ValueError`` (parse, shape and type errors included), ``KeyError`` and
``CapacityError``; through ``cli.main`` they end in the documented exit
code and one ``error:`` line on stderr."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.automaton import Nfa
from autcob.cli import build_parser, main
from autcob.diagrams import Diagram, parse_diagram
from autcob.errors import CapacityError, DiagramTypeError
from autcob.evaluate import eval_nfa, eval_tautomaton
from autcob.topology import FinTop, TAutomaton

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DOCUMENTED = (ValueError, KeyError, CapacityError)

_TAUT = TAutomaton.from_json((SAMPLES / "sierpinski.json").read_text())
LOADERS = [
    (Nfa.from_json, json.loads((SAMPLES / "marked_pair.json").read_text())),
    (FinTop.from_json, _TAUT.space.to_json_dict()),
    (TAutomaton.from_json, _TAUT.to_json_dict()),
    (
        lambda text: Diagram.from_json(text).typecheck(),
        parse_diagram((SAMPLES / "circle_aba.txt").read_text()).to_json_dict(),
    ),
]

TOKENS = (
    "id+ id- cup+ cup- cap+ cap- swap(+-) swap(-+) dot(a)+ dot(b)- birth+ death-"
    " birth+(x) death-(y) merge split unit counit ; ; dot()+ dot(a swap(+) id"
    " birth+( cup cap* ( ) x \n"
).split(" ")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("abxy+-", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abxy", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def mutate(data, value, top=True):
    """``value`` with one node replaced, dropped or given a new entry.  The
    top level is never replaced whole, a container below it one time in
    four."""
    if not value or not isinstance(value, (list, dict)) or (
        not top and not data.draw(st.integers(0, 3))
    ):
        return data.draw(json_values)
    value = dict(value) if isinstance(value, dict) else list(value)
    k = data.draw(st.sampled_from(list(value) if isinstance(value, dict)
                                  else range(len(value))))
    action = data.draw(st.sampled_from(["descend", "descend", "drop", "add"]))
    if action == "descend":
        value[k] = mutate(data, value[k], top=False)
    elif action == "drop":
        del value[k]
    elif isinstance(value, dict):
        value[data.draw(st.text("abxy", max_size=2))] = data.draw(json_values)
    else:
        value.insert(k, data.draw(json_values))
    return value


def mutated_text(data, valid) -> str:
    """``valid`` mutated one to three times, as JSON text, which is then
    spliced one time in two."""
    value = valid
    for _ in range(data.draw(st.integers(1, 3))):
        value = mutate(data, value)
    text = json.dumps(value)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + data.draw(st.text('{}[]",:0a-', max_size=3)) + text[j:]
    return text


def assert_documented(load, text):
    try:
        load(text)
    except DOCUMENTED:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_json_raises_only_documented_errors(data):
    load, valid = data.draw(st.sampled_from(LOADERS))
    assert_documented(load, mutated_text(data, valid))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12), st.sampled_from([" ", "\t"]))
def test_token_strings_raise_only_documented_errors(tokens, sep):
    assert_documented(lambda text: parse_diagram(text).typecheck(), sep.join(tokens))


# -- the same mutations through the command line -------------------------------

A2_PATH = str(SAMPLES / "two_state.json")
CIRCLE_PATH = str(SAMPLES / "circle_aba.txt")
FOAM_PATH = str(SAMPLES / "closed_foam.txt")
_A2 = Nfa.from_json((SAMPLES / "two_state.json").read_text())
_CIRCLE = parse_diagram((SAMPLES / "circle_aba.txt").read_text())
_FOAM = parse_diagram((SAMPLES / "closed_foam.txt").read_text())

# (valid JSON, the command line with None for the JSON file, the library
# calls the command makes on the file's text)
COMMANDS = [
    (LOADERS[0][1], ["eval", "--automaton", None, "--diagram", CIRCLE_PATH],
     lambda text: eval_nfa(Nfa.from_json(text), _CIRCLE)),
    (LOADERS[2][1], ["eval", "--tautomaton", None, "--diagram", FOAM_PATH],
     lambda text: eval_tautomaton(TAutomaton.from_json(text), _FOAM)),
    (LOADERS[3][1], ["eval", "--automaton", A2_PATH, "--diagram", None],
     lambda text: eval_nfa(_A2, Diagram.from_json(text))),
]


def exit_code(call, text) -> int:
    """The exit code the documented errors of ``call(text)`` map to."""
    try:
        call(text)
    except CapacityError:
        return 4
    except DiagramTypeError:
        return 3
    except (ValueError, KeyError):
        return 2
    return 0


def assert_cli_reports(text, suffix, argv, call):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a is None else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == exit_code(call, text)
    if code:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_json_through_the_cli_exits_with_its_documented_code(data):
    valid, argv, call = data.draw(st.sampled_from(COMMANDS))
    assert_cli_reports(mutated_text(data, valid), ".json", argv, call)


def outside_main(argv):
    """The call ``main(argv)`` makes on a file holding the text, with what
    it raises left unmapped: the cover commands read their map and voltage
    files themselves, through no library loader."""
    def call(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(text, encoding="utf-8")
            args = build_parser().parse_args([str(path) if a is None else a for a in argv])
            with contextlib.redirect_stdout(io.StringIO()):
                args.func(args)
    return call


# (valid JSON, the command line with None for the JSON file)
COVER_FILES = [
    ({"vertices": {"q1": "q1", "q2": "q2"}},
     ["cover", "check", "--map", None, "--cover", A2_PATH, "--base", A2_PATH]),
    ({"assignments": [{"from": "q2", "letter": "b", "to": "q2", "perm": [1, 0]}]},
     ["cover", "voltage", "--automaton", A2_PATH, "--n", "2", "--voltages", None,
      "--out", os.devnull]),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_cover_files_through_the_cli_exit_with_their_documented_code(data):
    valid, argv = data.draw(st.sampled_from(COVER_FILES))
    assert_cli_reports(mutated_text(data, valid), ".json", argv, outside_main(argv))


# 33 states: an open diagram on two wires, or one four wires wide, is over
# the evaluator's cap
WIDE = Nfa.make([f"q{i}" for i in range(33)], ["a", "b"],
                [(f"q{i}", "a", f"q{(i + 1) % 33}") for i in range(33)], ["q0"], ["q1"])


@pytest.fixture(scope="module")
def wide_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide") / "wide.json"
    path.write_text(WIDE.to_json(), encoding="utf-8")
    return str(path)


# the tokens that parse, so that a string of them is often ill-typed or too wide
WELL_FORMED = TOKENS[:TOKENS.index("dot()+")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([TOKENS, WELL_FORMED]).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), max_size=12)),
       st.sampled_from([" ", "\t"]), st.booleans())
def test_token_strings_through_the_cli_exit_with_their_documented_code(
    wide_path, tokens, sep, wide
):
    nfa, path = (WIDE, wide_path) if wide else (_A2, A2_PATH)
    assert_cli_reports(sep.join(tokens), ".txt",
                       ["eval", "--automaton", path, "--diagram", None],
                       lambda text: eval_nfa(nfa, parse_diagram(text)))
