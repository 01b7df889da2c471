"""Shared helpers: a subprocess CLI runner, spread sphere points and a
small valid model file."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly evenly spread points on the sphere (golden-angle spiral)."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


# model-file payload of a one-setting local model: lam = +-1 fixes a = b = lam
LOCAL_MODEL = {
    "variables": [
        {"name": "a", "labels": [1, -1]},
        {"name": "b", "labels": [1, -1]},
        {"name": "x", "labels": [0]},
        {"name": "y", "labels": [0]},
        {"name": "lam", "labels": [1, -1]},
    ],
    "weights": [
        {"assignment": [lam, lam, 0, 0, lam], "p": 0.5} for lam in (1, -1)
    ],
    "hidden_variables": ["lam"],
}
