import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from autcob import cli
from autcob.cli import cli_word, main
from autcob.automaton import Nfa
from autcob.covers import cyclic_cover, voltage_cover
from autcob.diagrams import Diagram
from autcob.errors import ShapeError
from autcob.topology import FinTop, TAutomaton

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SRC = SAMPLES.parent / "src"
A2_PATH = str(SAMPLES / "two_state.json")
H1_PATH = str(SAMPLES / "marked_pair.json")
TAUT_PATH = str(SAMPLES / "sierpinski.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _written(tmp_path, capsys, *argv):
    """The automaton a command writes to --out: one line of JSON."""
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    return Nfa.from_json(text)


def test_cli_word_parsing():
    assert cli_word("aba") == ("a", "b", "a")
    assert cli_word("ab,cd") == ("ab", "cd")
    assert cli_word("") == ()


def test_member(capsys):
    code, out, _ = run(capsys, "member", "--automaton", A2_PATH, "--word", "a")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "member", "--automaton", A2_PATH, "--word", "aa")
    assert (code, out.strip()) == (0, "0")


def test_trace_member(capsys):
    code, out, _ = run(capsys, "trace-member", "--automaton", A2_PATH, "--word", "aba")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "trace-member", "--automaton", A2_PATH, "--word", "")
    assert (code, out.strip()) == (0, "1")


def test_t_member_and_t_trace(capsys):
    code, out, _ = run(capsys, "t-member", "--tautomaton", TAUT_PATH, "--word", "g")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "t-trace", "--tautomaton", TAUT_PATH, "--word", "s")
    assert (code, out.strip()) == (0, "1")


def test_eval_closed_interval(capsys):
    code, out, _ = run(
        capsys, "eval", "--automaton", A2_PATH,
        "--diagram", str(SAMPLES / "interval_a.txt"),
    )
    assert (code, out.strip()) == (0, "1")


def test_eval_open_diagram_prints_matrix(tmp_path, capsys):
    d = tmp_path / "dot.txt"
    d.write_text("dot(a)+\n")
    code, out, _ = run(capsys, "eval", "--automaton", A2_PATH, "--diagram", str(d))
    assert code == 0
    assert out.splitlines() == ["0 1", "1 0"]


def test_eval_nat_semiring(tmp_path, capsys):
    d = tmp_path / "circle.txt"
    d.write_text("cup+ ; cap+\n")
    code, out, _ = run(
        capsys, "eval", "--automaton", A2_PATH, "--diagram", str(d),
        "--semiring", "nat",
    )
    assert (code, out.strip()) == (0, "2")


def test_eval_foam_on_tautomaton(capsys):
    code, out, _ = run(
        capsys, "eval", "--tautomaton", TAUT_PATH,
        "--diagram", str(SAMPLES / "closed_foam.txt"),
    )
    assert (code, out.strip()) == (0, "1")


def test_eval_json_diagram(tmp_path, capsys):
    d = tmp_path / "d.json"
    d.write_text(json.dumps({"slices": [[{"gen": "birth", "sign": "+"}],
                                        [{"gen": "death", "sign": "+"}]]}))
    code, out, _ = run(capsys, "eval", "--automaton", A2_PATH, "--diagram", str(d))
    assert (code, out.strip()) == (0, "0")  # initial and accepting are disjoint


def test_trim_writes_automaton(tmp_path, capsys):
    src = tmp_path / "in.json"
    nfa = Nfa.make(
        ["q0", "q1", "dead"], ["a"],
        [("q0", "a", "q1"), ("q1", "a", "q0"), ("q0", "a", "dead")],
        ["q0"], ["q1"],
    )
    src.write_text(nfa.to_json())
    trimmed = _written(tmp_path, capsys, "trim", "--automaton", str(src))
    assert trimmed == nfa.trim()
    assert set(trimmed.states) == {"q0", "q1"}


def test_cover_cyclic_and_check(tmp_path, capsys):
    out_path = tmp_path / "cover.json"
    code, _, _ = run(
        capsys, "cover", "cyclic", "--automaton", A2_PATH,
        "--order", "q1,q2", "--n", "2", "--out", str(out_path),
    )
    assert code == 0
    cover = Nfa.from_json(out_path.read_text())
    assert len(cover.states) == 4
    vm = {q: q.rsplit("@", 1)[0] for q in cover.states}
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"vertices": vm}))
    code, out, _ = run(
        capsys, "cover", "check", "--map", str(map_path),
        "--cover", str(out_path), "--base", A2_PATH,
    )
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(
        capsys, "cover", "check", "--map", str(map_path),
        "--cover", str(out_path), "--base", A2_PATH, "--weak",
    )
    assert (code, out.strip()) == (0, "1")


def test_cover_check_refuses_a_map_key_that_names_no_cover_state(tmp_path, capsys):
    base = Nfa.make(["a", "b"], ["x"], [("a", "x", "a")], ["b"], ["b"])
    cover = Nfa.make(["a0"], ["x"], [("a0", "x", "a0")], [], [])
    paths = {}
    for name, data in (("base", base.to_json()), ("cover", cover.to_json()),
                       ("map", json.dumps({"vertices": {"a0": "a", "junk": "b"}}))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(data)
    for weak in ((), ("--weak",)):
        code, out, err = run(
            capsys, "cover", "check", "--map", str(paths["map"]),
            "--cover", str(paths["cover"]), "--base", str(paths["base"]), *weak,
        )
        assert (code, out) == (2, "")
        assert "junk" in err


def test_cover_check_names_the_same_bad_edge_in_every_process(tmp_path):
    # the cover's edges are a set of strings, whose order follows the hash
    # seed; a failed check names the least bad edge whatever that order is
    base = Nfa.make(["p", "q"], ["a", "b"], [], [], [])
    cover = Nfa.make(
        ["p0", "q0", "r0"], ["a", "b"],
        [("q0", "a", "p0"), ("q0", "b", "p0"), ("p0", "b", "q0"), ("r0", "a", "r0")],
        [], [],
    )
    paths = {}
    for name, data in (("base", base.to_json()), ("cover", cover.to_json()),
                       ("map", json.dumps({"vertices": {"p0": "p", "q0": "q"}}))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(data)
    argv = [sys.executable, "-m", "autcob.cli", "cover", "check", "--map",
            str(paths["map"]), "--cover", str(paths["cover"]), "--base", str(paths["base"])]
    errors = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert (done.returncode, done.stdout) == (2, "")
        errors.add(done.stderr)
    assert errors == {"error: edge (p0, b, q0) has no image in the base\n"}


def test_cover_voltage_defaults_to_identity(tmp_path, capsys):
    out_path = tmp_path / "cover.json"
    code, _, _ = run(
        capsys, "cover", "voltage", "--automaton", A2_PATH, "--n", "2",
        "--out", str(out_path),
    )
    assert code == 0
    cover = Nfa.from_json(out_path.read_text())
    assert len(cover.states) == 4
    volt_path = tmp_path / "volt.json"
    volt_path.write_text(json.dumps({"assignments": [
        {"from": "q2", "letter": "b", "to": "q2", "perm": [1, 0]},
    ]}))
    code, _, _ = run(
        capsys, "cover", "voltage", "--automaton", A2_PATH, "--n", "2",
        "--voltages", str(volt_path), "--out", str(out_path),
    )
    assert code == 0
    twisted = Nfa.from_json(out_path.read_text())
    assert twisted.trace_eval("b") is False
    assert twisted.trace_eval("bb") is True


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "--automaton", A2_PATH)
    assert code == 0
    assert "digraph" in out
    assert '"q2" [shape=doublecircle];' in out
    assert '"q1" -> "q2" [label="a"];' in out
    assert "__start0" in out


# a quoted DOT string (backslash escapes a character), or a run of anything else
_DOT_TOKEN = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|[^\s"]+)')


def dot_strings(line):
    """The quoted strings of one DOT line, unescaped; fails on a quote that
    no string accounts for."""
    strings, pos, end = [], 0, len(line.rstrip())
    while pos < end:
        m = _DOT_TOKEN.match(line, pos)
        assert m, f"unterminated string in {line!r}"
        if m.group(1) is not None:
            strings.append(re.sub(r"\\(.)", r"\1", m.group(1)))
        pos = m.end()
    return strings


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    odd = Nfa.make(['p"q', "r\\", "s"], ['"', "\\"],
                   [('p"q', '"', "r\\"), ("r\\", "\\", "s")], ['p"q'], ["r\\"])
    path = tmp_path / "odd.json"
    path.write_text(odd.to_json())
    code, out, err = run(capsys, "dot", "--automaton", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()[3:-1]
    assert [dot_strings(line) for line in lines] == [
        *([q] for q in odd.states),
        ["__start0", ""],
        ["__start0", 'p"q'],
        ['p"q', "r\\", '"'],
        ["r\\", "s", "\\"],
    ]


def test_dot_start_nodes_never_take_a_state_name(tmp_path, capsys):
    states = ["__start0", "__start1", "s"]
    nfa = Nfa.make(states, ["a"], [("__start0", "a", "s")], ["__start0", "s"], ["s"])
    path = tmp_path / "starts.json"
    path.write_text(nfa.to_json())
    code, out, err = run(capsys, "dot", "--automaton", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()[3:-1]
    assert lines[:3] == [
        '  "__start0" [shape=circle];',
        '  "__start1" [shape=circle];',
        '  "s" [shape=doublecircle];',
    ]
    starts = [dot_strings(line) for line in lines[3:7]]
    assert starts == [
        ["___start0", ""], ["___start0", "__start0"],
        ["___start1", ""], ["___start1", "s"],
    ]
    assert [dot_strings(line) for line in lines[7:]] == [["__start0", "s", "a"]]


def test_oracle_sweep(capsys):
    code, out, _ = run(capsys, "oracle", "sweep", "--automaton", A2_PATH,
                       "--max-len", "4")
    assert code == 0
    assert out.startswith("ok:")


def test_exit_code_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "member", "--automaton", str(tmp_path / "no.json"),
                       "--word", "a")
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": []}')
    code, _, _ = run(capsys, "member", "--automaton", str(bad), "--word", "a")
    assert code == 2


@pytest.mark.parametrize("diagram, message", [
    ("dot(z)+", "unknown letters ['z']"),
    ("death+(zz)", "unknown endpoint label 'zz'"),
], ids=["letter", "label"])
def test_eval_key_errors_print_their_message_unquoted(tmp_path, capsys, diagram, message):
    d = tmp_path / "d.txt"
    d.write_text(diagram + "\n")
    code, out, err = run(capsys, "eval", "--automaton", A2_PATH, "--diagram", str(d))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_word_letter_prints_its_message_unquoted(capsys):
    code, out, err = run(capsys, "member", "--automaton", A2_PATH, "--word", "z")
    assert (code, out, err) == (2, "", "error: unknown letter 'z'\n")


def test_shape_error_is_input_error(capsys, monkeypatch):
    def mismatched(*args):
        raise ShapeError("cannot multiply 2x3 by 2x3")

    monkeypatch.setattr(cli, "eval_nfa", mismatched)
    code, out, err = run(capsys, "eval", "--automaton", A2_PATH,
                         "--diagram", str(SAMPLES / "interval_a.txt"))
    assert (code, out, err) == (2, "", "error: cannot multiply 2x3 by 2x3\n")


def _member_exit_code(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return run(capsys, "member", "--automaton", str(path), "--word", "a")[0]


def test_string_valued_automaton_field_is_input_error(tmp_path, capsys):
    data = json.loads(Path(A2_PATH).read_text())
    for key in ("states", "alphabet", "initial", "accepting"):
        bad = {**data, key: "".join(data[key])}
        assert _member_exit_code(tmp_path, capsys, bad) == 2, key


def test_transition_that_is_not_an_object_is_input_error(tmp_path, capsys):
    data = {"states": ["q"], "alphabet": ["a"], "transitions": [1],
            "initial": ["q"], "accepting": ["q"]}
    assert _member_exit_code(tmp_path, capsys, data) == 2


def test_letter_image_that_is_not_an_object_is_input_error(tmp_path, capsys):
    data = json.loads(Path(TAUT_PATH).read_text())
    data["letters"]["g"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "t-member", "--tautomaton", str(path), "--word", "g")
    assert code == 2
    assert "letter 'g'" in err


def test_accepting_set_with_an_unknown_point_is_input_error(tmp_path, capsys):
    data = json.loads(Path(TAUT_PATH).read_text())
    data["accepting_closed"] = ["zz"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "t-member", "--tautomaton", str(path), "--word", "g")
    assert code == 2
    assert "unknown points ['zz']" in err


def test_exit_code_type_error(tmp_path, capsys):
    d = tmp_path / "bad.txt"
    d.write_text("cup+ ; id- id+\n")
    code, _, err = run(capsys, "eval", "--automaton", A2_PATH, "--diagram", str(d))
    assert code == 3
    assert "slice 1" in err


def test_exit_code_capacity(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(
        Nfa.make([f"q{i}" for i in range(33)], ["a"], [], [], []).to_json()
    )
    d = tmp_path / "wide.txt"
    d.write_text("id+ id+ id+ id+\n")
    code, _, _ = run(capsys, "eval", "--automaton", str(wide), "--diagram", str(d))
    assert code == 4


def test_side_by_side_circles_fit_where_their_tensor_would_not(tmp_path, capsys):
    # each circle is two wires wide (33^2 entries); both together were 33^4
    wide = tmp_path / "wide.json"
    wide.write_text(
        Nfa.make([f"q{i}" for i in range(33)], ["a"], [], [], []).to_json()
    )
    d = tmp_path / "circles.txt"
    d.write_text("cup+ cup+ ; cap+ cap+\n")
    code, out, _ = run(capsys, "eval", "--automaton", str(wide), "--diagram", str(d))
    assert code == 0
    assert out.strip() == "1"


def test_parse_error_is_input_error(tmp_path, capsys):
    d = tmp_path / "oops.txt"
    d.write_text("dot()\n")
    code, _, err = run(capsys, "eval", "--automaton", A2_PATH, "--diagram", str(d))
    assert code == 2
    assert "line 1" in err


def _run_cover_file(tmp_path, capsys, command, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    if command == "voltage":
        argv = ["voltage", "--automaton", A2_PATH, "--n", "2",
                "--voltages", str(path), "--out", str(tmp_path / "out.json")]
    else:
        argv = ["check", "--map", str(path), "--cover", A2_PATH, "--base", A2_PATH]
    return run(capsys, "cover", *argv)


def _cover_file_exit_code(tmp_path, capsys, command, data):
    return _run_cover_file(tmp_path, capsys, command, data)[0]


def _assignment(perm):
    return {"assignments": [{"from": "q2", "letter": "b", "to": "q2", "perm": perm}]}


def test_voltage_perm_that_is_not_a_list_is_input_error(tmp_path, capsys):
    assert _cover_file_exit_code(tmp_path, capsys, "voltage", _assignment(5)) == 2


def test_voltage_perm_with_a_string_is_input_error(tmp_path, capsys):
    data = _assignment([0, "x"])
    assert _cover_file_exit_code(tmp_path, capsys, "voltage", data) == 2


def test_voltage_perm_of_booleans_is_not_a_permutation(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_assignment([True, False])))
    code, _, err = run(
        capsys, "cover", "voltage", "--automaton", A2_PATH, "--n", "2",
        "--voltages", str(path), "--out", str(tmp_path / "out.json"),
    )
    assert code == 2
    assert "is not a permutation of 0..1" in err


def test_voltage_assignment_that_is_not_an_object_is_input_error(tmp_path, capsys):
    data = {"assignments": [1]}
    assert _cover_file_exit_code(tmp_path, capsys, "voltage", data) == 2


def test_voltage_file_that_is_not_an_object_is_input_error(tmp_path, capsys):
    assert _cover_file_exit_code(tmp_path, capsys, "voltage", []) == 2


def test_map_file_that_is_not_an_object_is_input_error(tmp_path, capsys):
    assert _cover_file_exit_code(tmp_path, capsys, "check", []) == 2


def test_map_vertices_that_are_not_an_object_is_input_error(tmp_path, capsys):
    data = {"vertices": [1]}
    assert _cover_file_exit_code(tmp_path, capsys, "check", data) == 2


def _diagram_exit_code(tmp_path, capsys, data):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data))
    return run(capsys, "eval", "--automaton", A2_PATH, "--diagram", str(path))[0]


def test_diagram_slices_that_are_not_a_list_is_input_error(tmp_path, capsys):
    assert _diagram_exit_code(tmp_path, capsys, {"slices": 5}) == 2


def test_diagram_slice_that_is_not_a_list_is_input_error(tmp_path, capsys):
    assert _diagram_exit_code(tmp_path, capsys, {"slices": [5]}) == 2


def test_dot_letter_that_is_not_a_string_is_input_error(tmp_path, capsys):
    dot = {"gen": "dot", "sign": "+", "letter": ["a"]}
    ends = [{"gen": "birth", "sign": "+"}], [{"gen": "death", "sign": "+"}]
    data = {"slices": [ends[0], [dot], ends[1]]}
    assert _diagram_exit_code(tmp_path, capsys, data) == 2


@pytest.mark.parametrize("command", [
    ["eval", "--automaton", "{deep}", "--diagram", "{diagram}"],
    ["eval", "--automaton", A2_PATH, "--diagram", "{deep}"],
    ["eval", "--tautomaton", "{deep}", "--diagram", "{diagram}"],
    ["cover", "check", "--map", "{deep}", "--cover", A2_PATH, "--base", A2_PATH],
    ["cover", "voltage", "--automaton", A2_PATH, "--n", "2", "--voltages", "{deep}",
     "--out", "{out}"],
], ids=["automaton", "diagram", "tautomaton", "cover-map", "voltages"])
def test_json_nested_too_deeply_is_input_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    diagram = tmp_path / "closed.txt"
    diagram.write_text("cup+ ; cap+\n")
    paths = {"deep": deep, "diagram": diagram, "out": tmp_path / "out.json"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in command))
    assert code == 2
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_huge_cyclic_cover_is_refused_before_it_is_built(tmp_path, capsys):
    code, _, err = run(capsys, "cover", "cyclic", "--automaton", A2_PATH, "--order",
                       "q1,q2", "--n", str(10**9), "--out", str(tmp_path / "c.json"))
    assert code == 4
    assert "cap" in err
    assert not (tmp_path / "c.json").exists()


def test_huge_voltage_cover_is_refused_before_it_is_built(tmp_path, capsys):
    code, _, _ = run(capsys, "cover", "voltage", "--automaton", A2_PATH,
                     "--n", str(10**9), "--out", str(tmp_path / "v.json"))
    assert code == 4
    assert not (tmp_path / "v.json").exists()


def test_oracle_sweep_negative_length_is_input_error(capsys):
    code, out, _ = run(capsys, "oracle", "sweep", "--automaton", A2_PATH,
                       "--max-len", "-1")
    assert (code, out) == (2, "")


def test_oracle_sweep_over_the_word_cap_is_refused(capsys):
    # 2^17 - 1 words of length <= 16 over two letters, and far more at 10^9
    for length in ("16", str(10**9)):
        code, out, err = run(capsys, "oracle", "sweep", "--automaton", A2_PATH,
                             "--max-len", length)
        assert (code, out) == (4, "")
        assert "65536" in err


def test_oracle_sweep_past_the_oracle_word_cap_is_refused_before_sweeping(capsys):
    # 2^16 - 1 words fit the sweep cap, but the oracles stop at 8 letters
    code, out, err = run(capsys, "oracle", "sweep", "--automaton", A2_PATH,
                         "--max-len", "15")
    assert (code, out) == (4, "")
    assert err == "error: word length 15 exceeds cap 8\n"


def test_oracle_sweep_of_too_many_states_is_refused(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(Nfa.make([f"q{i}" for i in range(9)], ["a"], [], [], []).to_json())
    code, out, err = run(capsys, "oracle", "sweep", "--automaton", str(path))
    assert (code, out) == (4, "")
    assert err == "error: 9 states exceed cap 8\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_returns_2_and_leaves_the_parser_usable(capsys):
    code, out, err = run(capsys, "member", "--automaton", A2_PATH)
    assert (code, out) == (2, "")
    assert "the following arguments are required: --word" in err
    code, out, _ = run(capsys, "member", "--automaton", A2_PATH, "--word", "a")
    assert (code, out.strip()) == (0, "1")


def test_help_returns_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: autcob")


def test_cyclic_cover_file_round_trips(tmp_path, capsys):
    got = _written(tmp_path, capsys, "cover", "cyclic", "--automaton", A2_PATH,
                   "--order", "q2,q1", "--n", "3")
    assert got == cyclic_cover(Nfa.from_json(Path(A2_PATH).read_text()), ["q2", "q1"], 3)


def test_voltage_cover_file_round_trips(tmp_path, capsys):
    volt_path = tmp_path / "volt.json"
    volt_path.write_text(json.dumps({"assignments": [
        {"from": "q2", "letter": "b", "to": "q2", "perm": [1, 2, 0]},
    ]}))
    got = _written(tmp_path, capsys, "cover", "voltage", "--automaton", A2_PATH,
                   "--n", "3", "--voltages", str(volt_path))
    base = Nfa.from_json(Path(A2_PATH).read_text())
    voltages = {e: (0, 1, 2) for e in base.delta}
    voltages[("q2", "b", "q2")] = (1, 2, 0)
    assert got == voltage_cover(base, 3, voltages)


_TRANSITION = {"from": "q", "letter": "a", "to": "q"}


@pytest.mark.parametrize("transition", [
    *({**_TRANSITION, key: value}
      for key in ("from", "letter", "to") for value in (1, None, ["q"])),
    {**_TRANSITION, "weight": "1"},
    {"from": "q", "letter": "a"},
])
def test_malformed_transition_is_input_error(tmp_path, capsys, transition):
    data = {"states": ["q"], "alphabet": ["a"], "transitions": [transition],
            "initial": ["q"], "accepting": ["q"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "member", "--automaton", str(path), "--word", "a")
    assert (code, out) == (2, "")
    assert err == ("error: transition must be an object of strings "
                   f"from/letter/to, got {transition!r}\n")


# -- the one JSON object check ---------------------------------------------------

_A2 = json.loads(Path(A2_PATH).read_text())
_SPACE = {"points": ["x"], "min_open": {"x": ["x"]}}
_TAUT = {**_SPACE, "initial_open": [], "accepting_closed": [], "letters": {}}
_ASSIGNMENT = {"from": "q2", "letter": "b", "to": "q2"}


def _library(cls):
    def refusal(tmp_path, capsys, data):
        with pytest.raises(ValueError) as info:
            cls.from_json(json.dumps(data))
        return str(info.value)
    return refusal


def _cover_file(command):
    def refusal(tmp_path, capsys, data):
        code, out, err = _run_cover_file(tmp_path, capsys, command, data)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("\n")
        return err[len("error: "):-1]
    return refusal


_REFUSALS = {
    "automaton": _library(Nfa),
    "space": _library(FinTop),
    "T-automaton": _library(TAutomaton),
    "diagram": _library(Diagram),
    "map file": _cover_file("check"),
    "voltage file": _cover_file("voltage"),
}


# each loader on a non-object, an unknown key and a missing required key; a
# diagram and a voltage file have no required key of their own, so theirs is
# missing from a generator and from an assignment
@pytest.mark.parametrize("loader, data, message", [
    ("automaton", [], "automaton JSON must be an object"),
    ("automaton", {**_A2, "junk": 1}, "unknown keys ['junk'] in automaton"),
    ("automaton", {k: v for k, v in _A2.items() if k != "initial"},
     "missing keys ['initial'] in automaton"),
    ("space", [], "space JSON must be an object"),
    ("space", {**_SPACE, "junk": 1}, "unknown keys ['junk'] in space"),
    ("space", {"points": ["x"]}, "missing keys ['min_open'] in space"),
    ("T-automaton", [], "T-automaton JSON must be an object"),
    ("T-automaton", {**_TAUT, "junk": 1}, "unknown keys ['junk'] in T-automaton"),
    ("T-automaton", _SPACE, "missing keys ['accepting_closed', 'initial_open',"
     " 'letters'] in T-automaton"),
    ("diagram", [], "diagram JSON must be an object"),
    ("diagram", {"slices": [], "junk": 1}, "unknown keys ['junk'] in diagram"),
    ("diagram", {"slices": [[{"sign": "+"}]]}, "missing keys ['gen'] in generator"),
    ("map file", [], "map file JSON must be an object"),
    ("map file", {"vertices": {}, "junk": 1}, "unknown keys ['junk'] in map file"),
    ("map file", {}, "missing keys ['vertices'] in map file"),
    ("voltage file", [], "voltage file JSON must be an object"),
    ("voltage file", {"assignments": [], "junk": 1},
     "unknown keys ['junk'] in voltage file"),
    ("voltage file", {"assignments": [_ASSIGNMENT]},
     "missing keys ['perm'] in voltage assignment"),
])
def test_each_json_object_is_checked_by_one_rule(tmp_path, capsys, loader, data,
                                                 message):
    assert _REFUSALS[loader](tmp_path, capsys, data) == message
