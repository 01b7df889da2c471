"""Hot Monte Carlo kernels in numpy.

Four element-wise outcome maps and integer tallies: the one-bit protocol's
and the detection model's per-round outcomes, the finite-settings message
agreement probabilities, and the per-cell outcome counts.  Every
floating-point reduction over rounds lives in the callers, which reduce in
a fixed chunk order, so results do not depend on the parallelism degree.

Vector batches arrive column-major (see :mod:`bellmi.sphere`), so every
component slice ``v[:, k]`` is one contiguous run.
"""

from __future__ import annotations

import numpy as np


def tb_outcomes(xs, ys, l1, l2):
    """One-bit communication round outcomes.

    a = -sgn(x.l1); message m = sgn(x.l1) * sgn(x.l2);
    b = sgn(y.(l1 + m*l2)).  ``bad`` marks rounds where l1 + m*l2 is the
    exact zero vector (caller resamples those).
    """
    d1 = xs[:, 0] * l1[:, 0] + xs[:, 1] * l1[:, 1] + xs[:, 2] * l1[:, 2]
    d2 = xs[:, 0] * l2[:, 0] + xs[:, 1] * l2[:, 1] + xs[:, 2] * l2[:, 2]
    alice_plus = d1 >= 0.0
    agree = alice_plus == (d2 >= 0.0)
    m = np.where(agree, 1.0, -1.0)
    v0 = l1[:, 0] + m * l2[:, 0]
    v1 = l1[:, 1] + m * l2[:, 1]
    v2 = l1[:, 2] + m * l2[:, 2]
    db = ys[:, 0] * v0 + ys[:, 1] * v1 + ys[:, 2] * v2
    a = np.where(alice_plus, np.int8(-1), np.int8(1))
    b = np.where(db >= 0.0, np.int8(1), np.int8(-1))
    bad = (v0 == 0.0) & (v1 == 0.0) & (v2 == 0.0)
    return a, b, np.where(agree, np.int8(1), np.int8(-1)), bad


def gg_outcomes(xs, ys, lam, u):
    """Detection-model round outcomes.

    a = sgn(x.lam), detected with probability |x.lam| (u is the per-round
    uniform draw); b = -sgn(y.lam), always detected.
    """
    da = xs[:, 0] * lam[:, 0] + xs[:, 1] * lam[:, 1] + xs[:, 2] * lam[:, 2]
    db = ys[:, 0] * lam[:, 0] + ys[:, 1] * lam[:, 1] + ys[:, 2] * lam[:, 2]
    a = np.where(da >= 0.0, np.int8(1), np.int8(-1))
    b = np.where(db >= 0.0, np.int8(-1), np.int8(1))
    click_a = u < np.abs(da)
    return a, b, click_a


def agreement_probs(settings, p_x, l1, l2):
    """P(message = +1 | mu) for finite Alice settings.

    For each hidden pair (l1, l2): sum of p_x[j] over settings j whose dots
    with l1 and l2 share a sign.  Accumulation runs in j order; a different
    summation order would change the low bits of the result and so the
    bytes ``mutual-info --target tb-finite`` prints for a given seed.
    """
    n = l1.shape[0]
    p = np.zeros(n, dtype=np.float64)
    for j in range(settings.shape[0]):
        d1 = settings[j, 0] * l1[:, 0] + settings[j, 1] * l1[:, 1] + settings[j, 2] * l1[:, 2]
        d2 = settings[j, 0] * l2[:, 0] + settings[j, 1] * l2[:, 1] + settings[j, 2] * l2[:, 2]
        agree = (d1 >= 0.0) == (d2 >= 0.0)
        p = p + np.where(agree, p_x[j], 0.0)
    return p


def tally(x_idx, y_idx, a, b, n_a, n_b):
    """Counts[x, y, a_bin, b_bin] with bin 0 = +1 and bin 1 = -1."""
    code = ((x_idx * n_b + y_idx) * 2 + (a < 0)) * 2 + (b < 0)
    counts = np.bincount(code, minlength=n_a * n_b * 4)
    return counts.reshape(n_a, n_b, 2, 2)


def active_backend() -> str:
    """Name of the kernel implementation; always "numpy"."""
    return "numpy"
