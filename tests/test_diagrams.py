import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcob.diagrams import (
    COUNIT,
    MERGE,
    SPLIT,
    UNIT,
    Diagram,
    Gen,
    birth,
    cap,
    compose,
    cup,
    death,
    dot,
    identity_diagram,
    ident,
    interval_diagram,
    parse_diagram,
    swap,
    tensor,
)
from autcob.errors import DiagramTypeError, ParseError
from autcob.evaluate import eval_nfa
from autcob.semiring import BOOL, identity
from util import A2, random_closed_diagram, random_diagram

seeds = st.integers(0, 10**6)


# -- typechecking ---------------------------------------------------------------


def test_cup_type():
    d = Diagram.make([[cup("+")]])
    assert d.typecheck() == ((), ("+", "-"))
    assert not d.is_closed


def test_zigzag_type():
    d = Diagram.make([[cup("+"), ident("+")], [ident("+"), cap("-")]], domain=("+",))
    assert d.typecheck() == (("+",), ("+",))


def test_ill_typed_slice_is_located():
    d = Diagram.make([[cup("+")], [cap("+")], [cup("-")]], domain=())
    # slice 1 wants (+,-) and gets it; slice 2 closes; fine so far
    d_bad = Diagram.make([[cup("+")], [ident("-"), ident("+")]], domain=())
    with pytest.raises(DiagramTypeError) as err:
        d_bad.typecheck()
    assert err.value.slice_index == 1
    assert err.value.expected == ("+", "-")
    assert err.value.actual == ("-", "+")
    assert d.typecheck() == ((), ("-", "+"))


def test_generator_arities():
    assert MERGE.inputs() == ("+", "+") and MERGE.outputs() == ("+",)
    assert SPLIT.inputs() == ("+",) and SPLIT.outputs() == ("+", "+")
    assert UNIT.inputs() == () and COUNIT.outputs() == ()
    assert swap("+", "-").outputs() == ("-", "+")
    assert cap("-").inputs() == ("-", "+")
    assert cap("+").inputs() == ("+", "-")
    assert birth("-").outputs() == ("-",)
    assert death("-").inputs() == ("-",)


def test_gen_validation():
    with pytest.raises(ValueError):
        dot("", "+")
    with pytest.raises(ValueError):
        birth("-", label="q")  # labels only on '+'
    with pytest.raises(ValueError):
        ident("?")


@pytest.mark.parametrize(
    "args, fields, refusal",
    [
        (("id", "+"), {"letter": "a"}, "letters are only supported on dots"),
        (("birth", "+"), {"letter": "a"}, "letters are only supported on dots"),
        (("cup", "+", "-"), {}, "cup takes one sign"),
        (("dot", "+", "+"), {"letter": "a"}, "dot takes one sign"),
        (("merge", "+"), {}, "merge takes no sign"),
        (("counit", "-"), {}, "counit takes no sign"),
        (("split", None, "+"), {}, "split takes no sign"),
        (("unit", "+"), {}, "unit takes no sign"),
    ],
)
def test_gen_refuses_fields_its_kind_does_not_take(args, fields, refusal):
    # such a generator would not come back from its text or JSON as itself
    with pytest.raises(ValueError, match=refusal):
        Gen(*args, **fields)


# -- compose and tensor ------------------------------------------------------------


def test_compose_with_identity_keeps_type():
    d = interval_diagram("ab")
    composed = compose(identity_diagram(()), d)
    assert composed.typecheck() == d.typecheck()


def test_compose_mismatch():
    with pytest.raises(DiagramTypeError):
        compose(Diagram.make([[cup("+")]]), Diagram.make([[cap("-")]], domain=("-", "+")))


def test_tensor_of_closed_is_closed():
    d = interval_diagram("a")
    t = tensor(d, interval_diagram(""))
    assert t.is_closed
    assert len(t.slices) == max(len(d.slices), 2)


def test_floating_interval_from_half_intervals():
    top = Diagram.make([[death("+")]], domain=("+",))
    bottom = Diagram.make([[birth("+")]])
    floating = compose(bottom, top)
    assert floating.is_closed


def test_operators():
    d1 = Diagram.make([[cup("+")]])
    d2 = Diagram.make([[cap("+")]], domain=("+", "-"))
    assert (d1 >> d2).is_closed
    assert (d1 @ d1).codomain == ("+", "-", "+", "-")


# -- parsing -----------------------------------------------------------------------


def test_parse_single_slice():
    d = parse_diagram("cup+ ;")
    assert d.slices == ((cup("+"),),)


def test_parse_floating_interval():
    d = parse_diagram("birth+ ; dot(a)+ ; death+")
    assert d.is_closed
    assert d.to_text() == "birth+ ; dot(a)+ ; death+"


def test_parse_label_and_swap_tokens():
    d = parse_diagram("birth+(q1) swap(+-) death- ; id- death+(q2) id+ id-")
    assert d.slices[0][0].label == "q1"
    assert d.slices[1][1].label == "q2"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_diagram("dot()")
    with pytest.raises(ParseError):
        parse_diagram("cup+ ; wobble")
    with pytest.raises(ParseError):
        parse_diagram("birth-(q)")
    err = None
    try:
        parse_diagram("cup+ ;\n qqq")
    except ParseError as e:
        err = e
    assert err.line == 2 and err.col == 2


def test_parse_empty_text_is_empty_diagram():
    d = parse_diagram("")
    assert d.slices == () and d.domain == ()


@settings(max_examples=60)
@given(seeds)
def test_parse_print_round_trip(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, max_width=5, max_slices=6, foam=True, labels=("q1", "q2"))
    assert parse_diagram(d.to_text()) == d


@settings(max_examples=60)
@given(seeds)
def test_json_round_trip(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, max_width=5, max_slices=6, foam=True, labels=("q1",))
    assert Diagram.from_json(d.to_json()) == d
    # a sliceless identity comes back as one id layer on the same wires
    signs = tuple(rng.choice("+-") for _ in range(rng.randint(0, 3)))
    bare = Diagram.make([], signs)
    back = Diagram.from_json(bare.to_json())
    assert (back.domain, back.codomain) == (signs, signs)
    assert eval_nfa(A2, back).matrix == eval_nfa(A2, bare).matrix
    assert eval_nfa(A2, back).matrix == identity(BOOL, 2 ** len(signs))


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        Diagram.from_json('{"slices": [], "extra": 1}')
    with pytest.raises(ValueError):
        Diagram.from_json('{"slices": [[{"gen": "dot", "sign": "+"}]]}')


@settings(max_examples=40)
@given(seeds, seeds)
def test_compose_tensor_typecheck_when_preconditions_hold(seed1, seed2):
    rng = random.Random(seed1)
    d1 = random_diagram(rng, foam=True)
    d2 = random_diagram(random.Random(seed2), domain=d1.codomain, foam=True)
    compose(d1, d2).typecheck()
    tensor(d1, d2).typecheck()


@settings(max_examples=40)
@given(seeds)
def test_random_closed_diagrams_are_closed(seed):
    d = random_closed_diagram(random.Random(seed))
    assert d.is_closed
    d.typecheck()
