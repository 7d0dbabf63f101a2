import importlib
import importlib.util
import logging
import os
import subprocess
import sys
from pathlib import Path

import autcob  # noqa: F401  (the import installs the handler)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_package_logger_has_a_null_handler():
    logger = logging.getLogger("autcob")
    assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)


def test_import_writes_nothing_to_stderr():
    # without the NullHandler, the warning would reach logging's last-resort
    # handler on stderr
    code = "import logging, autcob; logging.getLogger('autcob.evaluate').warning('x')"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    assert done.stderr == ""
    assert done.stdout == ""


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
