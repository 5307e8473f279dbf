"""Peak resident memory of a Python command run in a child process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# A child starts with the peak RSS of the process it was spawned from, so a
# small wrapper process runs the command and reads its peak through
# RUSAGE_CHILDREN.
_WRAPPER = (
    "import resource, subprocess, sys\n"
    "subprocess.run(sys.argv[1:], check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def peak_rss_mb(argv, cwd=None) -> float:
    """Run ``python *argv`` with this checkout's gracecode importable and
    return its peak RSS in MB; a failing command raises ``CalledProcessError``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-c", _WRAPPER, sys.executable, *argv]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, env=env, cwd=cwd)
    return int(proc.stdout.split()[-1]) / 1024  # ru_maxrss is in kB on Linux
