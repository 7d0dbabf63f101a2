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
