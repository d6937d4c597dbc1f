"""Run the command line in a fresh interpreter, with the package from this
checkout's ``src`` and the fault hook set only when asked."""

import os
import subprocess
import sys
from pathlib import Path

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


def run_cli(*argv, flip=False, timeout=None):
    return run_python("-m", "hilbertdepth", *argv, flip=flip, timeout=timeout)
