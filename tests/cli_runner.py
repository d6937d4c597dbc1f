"""Run the command line: ``run_cli`` calls ``cli.main`` in this interpreter,
``run_python`` starts a fresh one with the package from this checkout's
``src``.  Both set the fault hook only when asked and return a
``CompletedProcess`` with the exit code, stdout and stderr.

``run_cli`` is the default, since most of a process's cost is the
interpreter's start-up.  A test needs ``run_python`` only for what a
process alone shows: ``python -m hilbertdepth`` and its exit codes, the hook
read once at import from the environment, the fresh interpreter's int-digit
cap, a whole process's stderr free of tracebacks on a bad input, and a
wall-clock ``timeout``.
"""

import io
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hilbertdepth import cli, depth

REPO = Path(__file__).resolve().parents[1]
FLIP_ENV = "HILBERTDEPTH_FLIP_BETA"


def run_python(*argv, flip=False, timeout=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FLIP_ENV, None)
    if flip:
        env[FLIP_ENV] = "1"
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=timeout,
    )


def run_cli(*argv, flip=False):
    """``cli.main(argv)`` with the hook set to ``flip`` for this call only.
    As ``sys.exit(main())`` would, a SystemExit becomes its exit code and an
    uncaught exception prints its traceback to stderr and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    saved = depth.FLIP
    depth.FLIP = flip
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's -h: exit 0 after the help
                code = exc.code or 0
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        depth.FLIP = saved
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())
