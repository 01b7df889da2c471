"""Shared helpers: a subprocess CLI runner, spread sphere points, a small
valid model file and the oracles for reproduced conditional tables."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bellmi.errors import ValidationError
from bellmi.models import OUTCOME_LABELS, ConditionalTable

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env_extra=None, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout_bytes, stderr).

    The repository's ``src`` leads the subprocess ``PYTHONPATH``, so the
    suite runs from a clean checkout without installing the package.
    Warnings are errors in the subprocess too, as pytest makes them in
    process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
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


def comm_conditional(model, spec) -> ConditionalTable:
    """P(a,b|x,y) of a finite communication model by direct enumeration.

    ``model`` needs only the protocol fields of a ``FiniteCommModel``
    (``mu_labels``, ``mu_weights``, ``conversation``, ``alice``, ``bob``).
    """
    spec._require_finite()
    n_a, n_b = spec.n_alice, spec.n_bob
    out = np.zeros((n_a, n_b, 2, 2))
    index = {lab: i for i, lab in enumerate(OUTCOME_LABELS)}
    for x in range(n_a):
        for y in range(n_b):
            for mu, w in zip(model.mu_labels, model.mu_weights):
                m = model.conversation(x, y, mu)
                a = model.alice(x, mu, m)
                b = model.bob(y, mu, m)
                if a not in index or b not in index:
                    raise ValidationError(
                        f"communication model produced outcome ({a!r}, {b!r}); "
                        "outcomes must be +1 or -1"
                    )
                out[x, y, index[a], index[b]] += w
    return ConditionalTable(out)


def exact_conditional(model) -> ConditionalTable:
    """Reproduced P(a,b|x,y) of an exact model; every input cell needs mass."""
    joint = model.table.marginal(("x", "y", "a", "b"))
    p_xy = joint.sum(axis=(2, 3))
    assert np.all(p_xy > 0.0), "an input cell has zero mass"
    return ConditionalTable(joint / p_xy[:, :, None, None])


def max_deviation(p: ConditionalTable, q: ConditionalTable) -> float:
    """Max |p - q| over every entry of two same-shaped conditional tables."""
    assert p.probs.shape == q.probs.shape
    return float(np.max(np.abs(p.probs - q.probs)))


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
