"""Mutated inputs on every loader raise only its documented error types:
``ValueError`` (parse, shape and type errors included), ``KeyError`` and
``CapacityError``."""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.automaton import Nfa
from autcob.diagrams import Diagram, parse_diagram
from autcob.errors import CapacityError
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


def assert_documented(load, text):
    try:
        load(text)
    except DOCUMENTED:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_json_raises_only_documented_errors(data):
    load, valid = data.draw(st.sampled_from(LOADERS))
    value = valid
    for _ in range(data.draw(st.integers(1, 3))):
        value = mutate(data, value)
    text = json.dumps(value)
    if data.draw(st.booleans()):
        # splice the text itself
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + data.draw(st.text('{}[]",:0a-', max_size=3)) + text[j:]
    assert_documented(load, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12), st.sampled_from([" ", "\t"]))
def test_token_strings_raise_only_documented_errors(tokens, sep):
    assert_documented(lambda text: parse_diagram(text).typecheck(), sep.join(tokens))
