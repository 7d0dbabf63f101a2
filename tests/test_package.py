import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_import_writes_nothing_to_stderr():
    # the package loads the functor's modules only: no logging, and no
    # oracle, which only `oracle sweep` reads; -S keeps site's imports out
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import autcob, autcob.cli;"
        " print(sorted({'logging', 'autcob.oracle'} & sys.modules.keys()))"
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
