"""The three workloads: seeded input generation, loading, the timed
operation and its output check.

Generation and checking use only the standard library and ``refs``; the
``autcob`` modules are passed in by the worker after it has started the
set-up clock, so nothing here imports them.

Every workload has the same four steps:

* ``make_pool(rng)`` makes one round of operation inputs as text, plus the
  values the references expect (run by the parent process, before set-up);
* ``load(ac, item)`` turns the text into library objects (set-up);
* ``run(ac, loaded, workdir)`` is one timed operation;
* ``check(item, out)`` lists what in the output disagrees with the
  references (outside the timed region).
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import refs

# -- generators ---------------------------------------------------------------


def word(rng, length, letters="ab") -> str:
    return "".join(rng.choice(letters) for _ in range(length))


def random_nfa(rng, n, prefix, out_degree=2, letters="ab", n_initial=1, n_accepting=1):
    """Every state has exactly ``out_degree`` distinct successors on each
    letter, so operation cost depends on the size, not on the draw."""
    states = [f"{prefix}{i}" for i in range(n)]
    transitions = [
        {"from": q, "letter": a, "to": r}
        for q in states
        for a in letters
        for r in sorted(rng.sample(states, out_degree))
    ]
    return {
        "states": states,
        "alphabet": list(letters),
        "transitions": transitions,
        "initial": sorted(rng.sample(states, n_initial)),
        "accepting": sorted(rng.sample(states, n_accepting)),
    }


def graph_nfa(rng, n_live=80, n_sink=10, n_source=10, letters="ab"):
    """A deterministic graph with a large strongly connected part, dead-end
    sinks that are reachable but not co-reachable, and unreachable sources
    feeding the live part, so ``trim`` drops a nonempty, seeded set."""
    names = [f"s{i}" for i in range(n_live + n_sink + n_source)]
    rng.shuffle(names)
    live = names[:n_live]
    sinks = names[n_live:n_live + n_sink]
    sources = names[n_live + n_sink:]
    transitions = []
    for q in live:
        for a in letters:
            r = rng.choice(sinks) if rng.random() < 0.1 else rng.choice(live)
            transitions.append({"from": q, "letter": a, "to": r})
    for q in sources:
        for a in letters:
            transitions.append({"from": q, "letter": a, "to": rng.choice(live)})
    return {
        "states": sorted(names, key=lambda s: int(s[1:])),
        "alphabet": list(letters),
        "transitions": transitions,
        "initial": sorted(rng.sample(live, 2)),
        "accepting": sorted(rng.sample(live, 2)),
    }


def random_tautomaton(rng, n_points=7, letters="abcd"):
    """A T-automaton on a random partial order of ``n_points`` points (so the
    space is minimal and keeps every point), with random union-respecting
    letter endomorphisms."""
    pts = [f"p{i}" for i in range(n_points)]
    below = [{i} for i in range(n_points)]
    for j in range(n_points):
        for i in range(j):
            if rng.random() < 0.3:
                below[j] |= below[i]
    u = {pts[j]: {pts[i] for i in below[j]} for j in range(n_points)}

    def hull(members):
        out = set()
        for x in members:
            out |= u[x]
        return out

    images = {}
    for a in letters:
        image = {}
        for x in pts:  # every point below x comes earlier
            seeds = {y for y in pts if rng.random() < 0.25}
            for y in u[x] - {x}:
                seeds |= set(image[y])
            image[x] = sorted(hull(seeds))
        images[a] = image
    x0, y0 = rng.choice(pts), rng.choice(pts)
    return {
        "points": pts,
        "min_open": {x: sorted(u[x]) for x in pts},
        "initial_open": sorted(u[x0]),
        "accepting_closed": sorted(z for z in pts if y0 in u[z]),
        "letters": images,
    }


def _dots(word_, sign="+", pad=()):
    return [" ".join([f"dot({a}){sign}", *pad]) for a in word_]


def circle_text(w) -> str:
    return " ; ".join(["cup+", *_dots(w, pad=["id-"]), "cap+"])


def two_circles_text(u, v) -> str:
    middle = [f"dot({a})+ id- dot({b})+ id-" for a, b in zip(u, v)]
    return " ; ".join(["cup+ cup+", *middle, "cap+ cap+"])


def interval_text(w) -> str:
    return " ; ".join(["birth+", *_dots(w), "death+"])


def _token(g) -> str:
    if g[0] == "swap":
        return "swap(++)"
    if g[0] == "id":
        return f"id{g[1]}"
    return f"dot({g[1]}){g[2]}"


# -- diagram_eval ---------------------------------------------------------------

MAIN_STATES = 12
SMALL_STATES = 5
CIRCLE_LEN = 8
TWO_CIRCLE_LEN = 2
FOAM = "unit ; dot({})+ ; split ; dot({})+ dot({})+ ; merge ; dot({})+ ; counit"
SPLIT_MERGE = "split ; merge"


def diagram_generate(rng) -> dict:
    main = random_nfa(rng, MAIN_STATES, "q")
    small = random_nfa(rng, SMALL_STATES, "r")
    taut = random_tautomaton(rng)
    w = word(rng, CIRCLE_LEN)
    u, v = word(rng, TWO_CIRCLE_LEN), word(rng, TWO_CIRCLE_LEN)
    x1, y1, x2, y2 = (rng.choice("ab") for _ in range(4))
    open3 = [
        [("dot", x1, "+"), ("id", "+"), ("dot", y1, "-")],
        [("swap",), ("id", "-")],
        [("id", "+"), ("dot", x2, "+"), ("dot", y2, "-")],
    ]
    foam_letters = [rng.choice("abcd") for _ in range(4)]
    main_succ = refs.successor_table(main)
    small_succ = refs.successor_table(small)
    return {
        "main": json.dumps(main),
        "small": json.dumps(small),
        "taut": json.dumps(taut),
        "diagrams": {
            "circle": circle_text(w),
            "two_circles": two_circles_text(u, v),
            "open3": " ; ".join(" ".join(_token(g) for g in slc) for slc in open3),
            "foam": FOAM.format(*foam_letters),
            "split_merge": SPLIT_MERGE,
        },
        "expect": {
            "circle_bool": int(refs.closed_walk_exists(main, w, main_succ)),
            "circle_nat": refs.closed_walk_count(main, w, main_succ),
            "two_circles": int(
                refs.closed_walk_exists(small, u, small_succ)
                and refs.closed_walk_exists(small, v, small_succ)
            ),
            "open3": packed(refs.open_diagram_matrix(small, open3, 3)),
            "foam": refs.foam_value(taut, *foam_letters),
            "split_merge": list(refs.idempotent(taut)),
        },
    }


def diagram_load(ac, item) -> dict:
    out = {
        "main": ac.Nfa.from_json(item["main"]),
        "small": ac.Nfa.from_json(item["small"]),
        "taut": ac.TAutomaton.from_json(item["taut"]),
    }
    for key, text in item["diagrams"].items():
        out[key] = ac.parse_diagram(text)
    return out


def diagram_run(ac, x, workdir) -> dict:
    main, small, taut = x["main"], x["small"], x["taut"]
    return {
        "circle_bool": ac.eval_nfa(main, x["circle"]).scalar(),
        "circle_nat": ac.eval_nfa(main, x["circle"], ac.NAT).scalar(),
        "two_circles": ac.eval_nfa(small, x["two_circles"]).scalar(),
        "open3": ac.eval_nfa(small, x["open3"]).matrix.entries,
        "foam": ac.eval_tautomaton(taut, x["foam"]).scalar(),
        "split_merge": ac.eval_tautomaton(taut, x["split_merge"]).matrix.entries,
    }


def packed(entries) -> str:
    """A 0/1 matrix as its size and its entries in hex digits, so the
    expected open3 entries take little room in the measured process."""
    bits = "".join("1" if e else "0" for e in entries)
    return f"{len(bits)}:{int(bits, 2):x}"


def diagram_check(item, out) -> list:
    return check_expected(item, {**out, "open3": packed(out["open3"])})


def check_expected(item, out) -> list:
    """Compare each output with the value the references computed."""
    exp = item["expect"]
    bad = []
    for key, want in exp.items():
        got = out[key]
        if isinstance(want, list):
            got = list(got)
        if got != want:
            bad.append(f"{key}: got {_short(got)}, expected {_short(want)}")
    return bad


# -- word_queries ---------------------------------------------------------------

WORD_STATES = 64
NAT_STATES = 16
WORD_LEN = 16
BATCH = 4
TRACE_WORDS = 2
CYCLIC_LEN = 5
MARKED = 3
EVAL_WORDS = 2


def word_generate(rng) -> dict:
    nfa = random_nfa(rng, WORD_STATES, "q", n_initial=4, n_accepting=8)
    nat = random_nfa(rng, NAT_STATES, "c")
    words = [word(rng, WORD_LEN) for _ in range(BATCH)]
    cyclic = word(rng, CYCLIC_LEN)
    marked = sorted(rng.sample(nfa["states"], MARKED))
    succ = refs.successor_table(nfa)
    accepts = [refs.accepts(nfa, w, succ) for w in words]
    traces = [refs.closed_walk_exists(nfa, w, succ) for w in words[:TRACE_WORDS]]
    return {
        "nfa": json.dumps(nfa),
        "nat": json.dumps(nat),
        "words": words,
        "cyclic": cyclic,
        "marked": marked,
        "expect": {
            "interval": accepts,
            "trace": traces,
            "through": refs.through_subset(nfa, marked, cyclic, succ),
            "nat_matrix": list(refs.path_counts(nat, words[0])),
            "t_interval": accepts,
            "t_trace": traces[:1],
            "eval_interval": accepts[:EVAL_WORDS],
        },
    }


def word_load(ac, item) -> dict:
    return {
        "nfa": ac.Nfa.from_json(item["nfa"]),
        "nat": ac.Nfa.from_json(item["nat"]),
        "words": item["words"],
        "cyclic": item["cyclic"],
        "marked": item["marked"],
    }


def word_run(ac, x, workdir) -> dict:
    nfa, words = x["nfa"], x["words"]
    t = ac.discrete(nfa)
    return {
        "interval": [nfa.interval_eval(w) for w in words],
        "trace": [nfa.trace_eval(w) for w in words[:TRACE_WORDS]],
        "through": nfa.circular_through_subset(x["marked"], x["cyclic"]),
        "nat_matrix": x["nat"].word_matrix(words[0], ac.NAT).entries,
        "t_interval": [t.interval_eval(w) for w in words],
        "t_trace": [t.trace_eval(words[0])],
        "eval_interval": [ac.eval_interval(nfa, w) for w in words[:EVAL_WORDS]],
    }


# -- graph_cli --------------------------------------------------------------------

COVER_FOLD = 2
MEMBER_LEN = 12
EVAL_LEN = 8
COVER_WORDS = 3
GOOD_PER_ROUND = 9  # then one malformed operation: a fixed 1-in-10 ratio

# A transition given as a bare number.  The loader should reject it with exit
# code 2; today Nfa.from_json_dict calls set() on it and the TypeError escapes
# cli.main.  The text does not depend on the seed.
MALFORMED = json.dumps({
    "states": ["q"], "alphabet": ["a"], "transitions": [1],
    "initial": ["q"], "accepting": ["q"],
})


def graph_generate(rng) -> dict:
    base = graph_nfa(rng)
    order = list(base["states"])
    rng.shuffle(order)
    member_word = word(rng, MEMBER_LEN)
    eval_word = word(rng, EVAL_LEN)
    succ = refs.successor_table(base)
    return {
        "base": json.dumps(base),
        "order": ",".join(order),
        "map": json.dumps({"vertices": {
            f"{q}@{k}": q for q in base["states"] for k in range(COVER_FOLD)
        }}),
        "diagram": interval_text(eval_word),
        "member_word": member_word,
        "cover_words": [word(rng, 10) for _ in range(COVER_WORDS)],
        "expect": {
            "core": sorted(refs.trim_core(base)),
            "member": int(refs.accepts(base, member_word, succ)),
            "eval": int(refs.accepts(base, eval_word, succ)),
        },
    }


def graph_pool(rng) -> list:
    """Two blocks of GOOD_PER_ROUND seeded operations and one malformed."""
    pool = []
    for _ in range(2):
        pool += [graph_generate(rng) for _ in range(GOOD_PER_ROUND)]
        pool.append({"malformed": MALFORMED})
    return pool


def graph_load(ac, item) -> dict:
    if "malformed" in item:
        return {"malformed": item["malformed"]}
    return {"nfa": ac.Nfa.from_json(item["base"]), **item}


def _cli(ac, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ac.cli.main(argv)
    return rc, out.getvalue()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def graph_run(ac, x, workdir) -> dict:
    if "malformed" in x:
        bad = os.path.join(workdir, "malformed.json")
        _write(bad, x["malformed"])
        return {"malformed": _cli(ac, ["member", "--automaton", bad, "--word", "a"])}
    aut = os.path.join(workdir, "base.json")
    trimmed = os.path.join(workdir, "trim.json")
    cover = os.path.join(workdir, "cover.json")
    vmap = os.path.join(workdir, "map.json")
    diagram = os.path.join(workdir, "interval.txt")
    _write(aut, x["nfa"].to_json(indent=2))
    _write(vmap, x["map"])
    _write(diagram, x["diagram"])
    check = ["cover", "check", "--map", vmap, "--cover", cover, "--base", aut]
    return {
        "trim": _cli(ac, ["trim", "--automaton", aut, "--out", trimmed]),
        "cyclic": _cli(ac, ["cover", "cyclic", "--automaton", aut, "--order",
                            x["order"], "--n", str(COVER_FOLD), "--out", cover]),
        "check": _cli(ac, check),
        "check_weak": _cli(ac, check + ["--weak"]),
        "member": _cli(ac, ["member", "--automaton", aut, "--word", x["member_word"]]),
        "eval": _cli(ac, ["eval", "--automaton", aut, "--diagram", diagram]),
        "files": {"trim": trimmed, "cover": cover},
    }


def graph_failed(out) -> bool:
    """Only the malformed operation can fail without raising: it must exit
    with code 2 (input error)."""
    return "malformed" in out and out["malformed"][0] != 2


def graph_check(item, out) -> list:
    if "malformed" in out:
        return []
    exp = item["expect"]
    base = json.loads(item["base"])
    bad = [f"{k}: exit code {v[0]}" for k, v in out.items() if k != "files" and v[0] != 0]
    for key, want in (("check", "1"), ("check_weak", "1"),
                      ("member", str(exp["member"])), ("eval", str(exp["eval"]))):
        if out[key][1].strip() != want:
            bad.append(f"{key}: printed {out[key][1].strip()!r}, expected {want}")
    with open(out["files"]["trim"], encoding="utf-8") as fh:
        trimmed = json.load(fh)
    core = set(exp["core"])
    kept = {(t["from"], t["letter"], t["to"]) for t in base["transitions"]
            if t["from"] in core and t["to"] in core}
    if (
        set(trimmed["states"]) != core
        or {(t["from"], t["letter"], t["to"]) for t in trimmed["transitions"]} != kept
        or set(trimmed["initial"]) != core & set(base["initial"])
        or set(trimmed["accepting"]) != core & set(base["accepting"])
    ):
        bad.append("trim: result differs from the SCC-based core")
    with open(out["files"]["cover"], encoding="utf-8") as fh:
        cov = json.load(fh)
    fibers = {f"{q}@{k}" for q in base["states"] for k in range(COVER_FOLD)}
    if set(cov["states"]) != fibers or len(cov["transitions"]) != COVER_FOLD * len(
        base["transitions"]
    ):
        bad.append("cover: states or transition count do not match the fibers")
    for w in item["cover_words"]:
        if refs.accepts(cov, w) != refs.accepts(base, w):
            bad.append(f"cover: interval answer on {w} differs from the base")
    return bad


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


POOL_SIZE = 32


class Workload:
    def __init__(self, name, make_pool, load, run, check,
                 modules=("autcob",), failed=None):
        self.name = name
        self.make_pool = make_pool  # rng -> one round of operation inputs
        self.load = load
        self.run = run
        self.check = check
        self.modules = modules  # imported inside the set-up window
        self.failed = failed or (lambda out: False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("diagram_eval",
                 lambda rng: [diagram_generate(rng) for _ in range(POOL_SIZE)],
                 diagram_load, diagram_run, diagram_check),
        Workload("word_queries",
                 lambda rng: [word_generate(rng) for _ in range(POOL_SIZE)],
                 word_load, word_run, check_expected),
        Workload("graph_cli", graph_pool, graph_load, graph_run, graph_check,
                 modules=("autcob", "autcob.cli"), failed=graph_failed),
    )
}
