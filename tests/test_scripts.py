import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_foam_check_reports_every_law_and_closed_foam():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "foam_check.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    laws = ["associativity", "commutativity", "unit", "coassociativity",
            "counit", "split-merge", "duality"]
    for law in laws:
        assert any(line.split() == [law, "ok"] for line in lines), law
    assert ["closed", "foams", "240/240", "evaluate", "to", "1"] in [
        line.split() for line in lines
    ]


def test_trace_shrink_marks_exponents_divisible_by_the_cover_cycle():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "trace_shrink.py")],
        capture_output=True, text=True, timeout=120,
    )
    # a failed interval assertion inside the script exits nonzero
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["n", "|"])
    exponents = [int(k) for k in lines[start].split()[2:]]
    rows = {}
    for line in lines[start + 2:]:
        n, bar, *marks = line.split()
        if bar != "|":
            break
        rows[int(n)] = marks
    assert sorted(rows) == [1, 2, 3, 4, 5, 6]
    for n, marks in rows.items():
        # the n-fold cover of the 2-cycle is one cycle of length 2n
        assert marks == ["*" if k % (2 * n) == 0 else "." for k in exponents], n


def test_eval_digest_does_not_follow_the_hash_seed():
    outputs = set()
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "eval_digest.py"), "12"],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        outputs.add(done.stdout)
    (out,) = outputs
    lines = out.splitlines()
    assert lines[0] == "seeds 12"
    assert lines[1].split()[0] == "matrices" and int(lines[1].split()[1]) > 0
    assert lines[-1].split()[0] == "sha256" and len(lines[-1].split()[1]) == 64
