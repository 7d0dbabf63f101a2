import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_import_writes_nothing_to_stderr():
    # the package loads the functor's modules only: no logging, and no
    # oracle, which only `oracle sweep` reads; records are plain classes,
    # so neither dataclasses nor the inspect module it pulls in is loaded;
    # annotations come from collections.abc, so typing is not loaded
    # either; -S keeps site's imports out
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import autcob, autcob.cli;"
        " print(sorted({'logging', 'autcob.oracle', 'dataclasses', 'inspect',"
        " 'typing'} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stderr == ""
    assert done.stdout == "[]\n"


def test_every_traced_target_resolves():
    # the benchmark's tracer finds a method in its class's own __dict__, so
    # an inherited or renamed method breaks every traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, module, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, path, None)), name


def test_records_compare_hash_and_show_by_their_fields():
    from autcob import BOOL, CircularWord, Diagram, Evaluation, FinTop, Mat, Nfa
    from autcob.diagrams import dot

    g = dot("a")
    assert repr(g) == "Gen(kind='dot', sign='+', sign2=None, letter='a', label=None)"
    assert g == dot("a") and hash(g) == hash(dot("a")) and g != dot("b")
    assert repr(CircularWord("ba")) == "CircularWord(letters=('a', 'b'))"
    assert repr(Evaluation(Mat(BOOL, 1, 1, (1,)))) == "Evaluation(matrix=Mat(bool, 1x1, [[1]]))"
    assert repr(FinTop.discrete(["x"])) == "FinTop(points=('x',), min_open={'x': frozenset({'x'})})"
    nfa = Nfa.make(["p"], ["a"], [("p", "a", "p")], ["p"], [])
    assert repr(nfa) == (
        "Nfa(states=('p',), alphabet=('a',), delta=frozenset({('p', 'a', 'p')}),"
        " initial=frozenset({'p'}), accepting=frozenset())"
    )
    # a cached table is no field: it changes neither equality nor the hash
    twin = Nfa.make(["p"], ["a"], [("p", "a", "p")], ["p"], [])
    assert nfa._rows and nfa == twin and hash(nfa) == hash(twin)
    # records of different classes are never equal, even on equal fields
    assert Diagram((), ()) != Evaluation(())
    for record, field in ((g, "kind"), (nfa, "states"), (nfa, "_rows")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
