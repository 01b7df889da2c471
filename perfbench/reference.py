"""Reference kernels: fixed work timed next to each command.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over tens of seconds as other tenants load it.  Before
and after each command of an untraced pass the harness times one of these
kernels, and ``wall_ref`` is the pass's command time divided by the
kernels' time, so host drift cancels while a change to ``bellmi`` does not.

Each workload names the kernel whose work resembles its own:

- ``interp``: a Python-level walk over a dense float64 array with
  ``np.ndindex`` and ``float()``, like ``FiniteDistribution.entries``
  behind the exact path.
- ``vec``: numpy dot products, signs and a bincount over 65 536 rounds,
  like one Monte Carlo chunk of the ``tb`` model.

The kernels import nothing from ``bellmi``, so no change to the program
changes them.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20100817)
_TABLE = _rng.random((8, 8, 8, 8, 8))  # 32 768 cells
_X, _L1, _L2 = (_rng.standard_normal((65_536, 3)) for _ in range(3))


def interp() -> float:
    total = 0.0
    for idx in np.ndindex(_TABLE.shape):
        total += float(_TABLE[idx])
    return total


def vec() -> int:
    d1 = (_X * _L1).sum(axis=1)
    d2 = (_X * _L2).sum(axis=1)
    m = np.where(d1 >= 0.0, 1.0, -1.0) * np.where(d2 >= 0.0, 1.0, -1.0)
    db = (_X * (_L1 + m[:, None] * _L2)).sum(axis=1)
    code = (db >= 0.0).astype(np.int64) * 2 + (d1 >= 0.0)
    return int(np.bincount(code, minlength=4)[0])


KERNELS = {"interp": interp, "vec": vec}


def timed(name: str) -> float:
    """Seconds one run of the named kernel takes."""
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
