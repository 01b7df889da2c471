"""Bloch-sphere vectors and seeded, splittable randomness.

Vectors are plain numpy arrays: shape (3,) for a single direction, (n, 3)
for batches.  Batches are stored column-major, as the transpose of a C-ordered
(3, n) array, so each component is one contiguous run for the element-wise
kernels; callers index them as (n, 3) and never copy them back to row-major.
Sphere sampling uses Marsaglia's map (Ann. Math. Statist. 43, 645, 1972):
(u, v) uniform on [-1, 1)^2, kept when s = u^2 + v^2 < 1, becomes
(2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s).  It needs only +, -, * and
sqrt, all correctly rounded, so a seeded draw does not depend on the
platform's sin and cos; the price is a rejection loop, whose top-up rule
is fixed in :func:`sample_uniform_sphere`.

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

    def child(self, i: int) -> "RandomSource":
        """The i-th child source; deterministic in (seed, i), built on demand."""
        key = tuple(self._ss.spawn_key) + (i,)
        return RandomSource(np.random.SeedSequence(entropy=self._ss.entropy, spawn_key=key))

    def split(self, n: int) -> list["RandomSource"]:
        """n disjoint child sources: ``child(0)`` to ``child(n - 1)``."""
        return [self.child(i) for i in range(n)]

    def __repr__(self):
        return f"RandomSource(entropy={self._ss.entropy}, spawn_key={self._ss.spawn_key})"


def sample_uniform_sphere(gen: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the unit sphere, as an (n, 3) batch.

    The batch is the transpose of a C-ordered (3, n) buffer, filled in
    blocks.  While r = n - filled points are missing, one block draws
    ``gen.random((2, k))`` with k = r * 4 // 3 + 64 (rows u and v, mapped to
    2t - 1, which is exact), keeps the first r pairs with s = u*u + v*v < 1
    in draw order, and maps each to ``u * w``, ``v * w``, ``1 - 2s`` with
    w = 2 sqrt(1 - s).  A pair is kept with probability pi/4, so the first
    block almost always suffices; n = 0 draws nothing.  For s >= 1/2 the
    difference 1 - s is exact.  The kept s values are gathered straight
    into the z row of the output and mapped there in place, so a block
    holds no copy of them.  The gathers use mode "clip", which, unlike the
    default, writes into ``out`` without a buffered copy; every index is
    in range.
    """
    out = np.empty((3, n), dtype=np.float64)
    filled = 0
    while filled < n:
        missing = n - filled
        uv = gen.random((2, missing * 4 // 3 + 64))
        uv *= 2.0
        uv -= 1.0
        u, v = uv
        s = u * u
        s += v * v
        idx = np.flatnonzero(s < 1.0)[:missing]
        block = out[:, filled:filled + idx.size]
        np.take(s, idx, out=block[2], mode="clip")  # the kept s, until z replaces it
        del s
        w = np.subtract(1.0, block[2])
        np.sqrt(w, out=w)
        w *= 2.0
        np.take(u, idx, out=block[0], mode="clip")
        block[0] *= w
        np.take(v, idx, out=block[1], mode="clip")
        block[1] *= w
        block[2] *= -2.0
        block[2] += 1.0
        filled += idx.size
    return out.T


def require_unit(v) -> np.ndarray:
    """Validate unit norm (within UNIT_ATOL); returns the array as float64.

    Components are checked to be finite and at most 2 in magnitude before
    they are squared, so a huge one fails without an overflow warning.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise ValidationError(f"expected 3-vectors, got shape {arr.shape}")
    if not np.all(np.abs(arr) <= 2.0):  # NaN fails too
        raise ValidationError(
            "vector not on the unit sphere (a component is not finite or exceeds 2)"
        )
    norms2 = (arr * arr).sum(axis=-1)
    if not np.all(np.abs(norms2 - 1.0) <= 3.0 * UNIT_ATOL):  # NaN fails too
        worst = float(np.max(np.abs(np.sqrt(norms2) - 1.0)))
        raise ValidationError(f"vector not on the unit sphere (|norm - 1| = {worst:.3e})")
    return arr


def vec_polar(theta: float, phi: float = 0.0) -> np.ndarray:
    """Unit vector at polar angle theta from +z, azimuth phi."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])
