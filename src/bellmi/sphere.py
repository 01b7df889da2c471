"""Bloch-sphere vectors and seeded, splittable randomness.

Vectors are plain numpy arrays: shape (3,) for a single direction, (n, 3)
for batches.  Sphere sampling uses the (z, phi) method: z uniform on
[-1, 1], azimuth uniform on [0, 2pi), which is rotation-invariant in
distribution and needs no rejection loop.

The sign convention sgn(0) := +1 lives in the outcome maps of
:mod:`bellmi._kernels`, the only place that takes signs of dot products.

:class:`RandomSource` wraps numpy's SeedSequence/PCG64.  ``split(n)``
derives n disjoint child streams purely from (entropy, spawn_key), so the
same source splits to the same children no matter how often it is asked;
that is what makes chunked Monte Carlo totals reproducible regardless of
thread count.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, ValidationError

UNIT_ATOL = 1e-12


class RandomSource:
    """Seeded random stream with pure, repeatable splitting.

    A source owns one numpy Generator (created lazily); parallel work must
    use ``split(n)`` children instead of sharing the parent stream.
    """

    def __init__(self, seed: Union[int, np.random.SeedSequence]):
        if isinstance(seed, np.random.SeedSequence):
            self._ss = seed
        else:
            seed = int(seed)
            if seed < 0:
                raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
            self._ss = np.random.SeedSequence(seed)
        self._gen: Optional[np.random.Generator] = None

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.default_rng(self._ss)
        return self._gen

    def split(self, n: int) -> list["RandomSource"]:
        """n disjoint child sources; deterministic in (seed, child index)."""
        key = tuple(self._ss.spawn_key)
        return [
            RandomSource(np.random.SeedSequence(entropy=self._ss.entropy, spawn_key=key + (i,)))
            for i in range(n)
        ]

    def __repr__(self):
        return f"RandomSource(entropy={self._ss.entropy}, spawn_key={self._ss.spawn_key})"


def sample_uniform_sphere(gen: np.random.Generator, n: Optional[int] = None) -> np.ndarray:
    """Uniform points on the unit sphere; (3,) if n is None, else (n, 3)."""
    size = 1 if n is None else n
    z = gen.uniform(-1.0, 1.0, size)
    phi = gen.uniform(0.0, 2.0 * np.pi, size)
    s = np.sqrt(1.0 - z * z)
    out = np.empty((size, 3), dtype=np.float64)
    out[:, 0] = s * np.cos(phi)
    out[:, 1] = s * np.sin(phi)
    out[:, 2] = z
    return out[0] if n is None else out


def require_unit(v) -> np.ndarray:
    """Validate unit norm (within UNIT_ATOL); returns the array as float64."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise ValidationError(f"expected 3-vectors, got shape {arr.shape}")
    norms2 = (arr * arr).sum(axis=-1)
    if not np.all(np.abs(norms2 - 1.0) <= 3.0 * UNIT_ATOL):  # NaN fails too
        worst = float(np.max(np.abs(np.sqrt(norms2) - 1.0)))
        raise ValidationError(f"vector not on the unit sphere (|norm - 1| = {worst:.3e})")
    return arr


def vec_polar(theta: float, phi: float = 0.0) -> np.ndarray:
    """Unit vector at polar angle theta from +z, azimuth phi."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])
