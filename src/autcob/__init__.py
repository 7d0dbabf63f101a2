"""Automata as evaluators for decorated one-dimensional cobordism and foam
diagrams over the Boolean and counting semirings."""

from .automaton import (
    CircularWord,
    Nfa,
    as_word,
    canonical_rotation,
    disjoint_union,
    flower_automaton,
    rotations,
)
from .covers import (
    GraphMap,
    cyclic_cover,
    fiber_projection,
    is_covering,
    is_weak_covering,
    voltage_cover,
)
from .diagrams import (
    Diagram,
    Gen,
    circle_diagram,
    compose,
    identity_diagram,
    interval_diagram,
    merge_on_minus,
    parse_diagram,
    split_on_minus,
    tensor,
)
from .errors import CapacityError, DiagramTypeError, ParseError, ShapeError
from .evaluate import Evaluation, eval_circle, eval_interval, eval_nfa, eval_tautomaton
from .semiring import BOOL, NAT, Mat, Semiring, identity, kron, zeros
from .topology import (
    Endo,
    FinTop,
    OpenSet,
    TAutomaton,
    comult,
    counit,
    discrete,
    endo_validate,
    minimal_spaces,
    reduce_space,
    space_from_preorder,
)

__version__ = "0.1.0"
