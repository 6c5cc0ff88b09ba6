"""Run a snippet in a child Python that must die by SIGKILL.

Crash-safety tests kill a real process mid-write instead of simulating
the crash in-process: the child runs the snippet with ``src`` and the
repository root on its path (so it can import ``repro`` and
``tests.support``), and the snippet ends its own life with
``os.kill(os.getpid(), signal.SIGKILL)`` at the point under test — no
``finally`` block, ``atexit`` hook or connection close runs after it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

__all__ = ["KILL", "run_killed"]

_ROOT = Path(__file__).resolve().parents[2]

#: the statement a snippet runs to die on the spot
KILL = "os.kill(os.getpid(), signal.SIGKILL)"


def run_killed(snippet: str, *args: str, timeout: float = 60.0) -> None:
    """Run ``snippet`` (``sys.argv[1:]`` = ``args``) in a child Python
    and assert that it died by SIGKILL.  ``os`` and ``signal`` are
    imported for it."""
    code = "import os, signal, sys\n" + textwrap.dedent(snippet)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT)]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited with {proc.returncode}, not SIGKILL\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
