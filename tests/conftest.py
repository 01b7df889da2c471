"""Shared fixtures: a subprocess CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env_extra=None, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout_bytes, stderr).

    The repository's ``src`` leads the subprocess ``PYTHONPATH``, so the
    suite runs from a clean checkout without installing the package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "bellmi", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()
