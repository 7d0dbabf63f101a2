import logging
import os
import subprocess
import sys
from pathlib import Path

import autcob  # noqa: F401  (the import installs the handler)

SRC = Path(__file__).resolve().parent.parent / "src"


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
