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
is fixed in :func:`sample_uniform_sphere`.  A draw consumes whole blocks
of its generator's stream but reads each block in tiles through two
cursors, one per row, the second made by PCG's jump-ahead (O'Neill,
HMC-CS-2014-0905), so its scratch does not grow with the block.

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
import threading
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


# The sphere draw reads a block's u and v rows in tiles of this many
# uniforms each, so its scratch is a few tiles, not the block.  A
# 65 536-point draw reads four tiles and peaks at about 2.4 MB under
# tracemalloc, 1.5 MB of it the points; each further tile is a round of
# numpy calls, which costs most when two threads share the interpreter.
DRAW_TILE = 3 * 2**13


def sample_uniform_sphere(gen: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the unit sphere, as an (n, 3) batch.

    The batch is the transpose of a C-ordered (3, n) buffer, filled in
    blocks.  While r = n - filled points are missing, one block takes the
    next 2k uniforms of ``gen``'s stream, k = r * 4 // 3 + 64: the
    first k are its u row and the next k its v row, the rows of
    ``gen.random((2, k))``, each mapped to 2t - 1, which is exact.  It
    keeps the first r pairs with s = u*u + v*v < 1 in draw order and maps
    each to ``u * w``, ``v * w``, ``1 - 2s`` with w = 2 sqrt(1 - s).  A
    pair is kept with probability pi/4, so the first block almost always
    suffices; n = 0 draws nothing.  For s >= 1/2 the difference 1 - s is
    exact.

    The rows are read in tiles of :data:`DRAW_TILE` pairs through two
    cursors: ``gen`` itself reads u, and a copy of its PCG bit generator's
    state, advanced by k (O'Neill's jump-ahead, ``advance``), reads v.  Reading
    stops once n points are kept; then ``gen`` jumps to the end of the
    block, 2k uniforms past its start, with its buffered 32-bit half as it
    was, so the stream is the one a whole-block draw leaves.  Each tile
    gathers its kept u, v and s straight into the output's rows, and the
    block's points are mapped there in place once its tiles are read, so
    a block holds one tile of pairs and of s, not the block.  The gathers
    use mode "clip", which, unlike the default, writes into ``out``
    without a buffered copy; every index is in range.
    """
    out = np.empty((3, n), dtype=np.float64)
    bg = gen.bit_generator
    filled = 0
    while filled < n:
        k = (n - filled) * 4 // 3 + 64
        start = bg.state
        first = filled
        filled, read = _keep_pairs(gen, _v_cursor(bg, start, k), k, out, filled)
        bg.advance(2 * k - read)  # resets the buffered 32-bit half ...
        end = bg.state
        end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
        bg.state = end  # ... which comes back here
        block = out[:, first:filled]
        w = np.subtract(1.0, block[2])
        np.sqrt(w, out=w)
        w *= 2.0
        block[:2] *= w
        block[2] *= -2.0
        block[2] += 1.0
    return out.T


# One spare generator per thread, which _v_cursor points into a draw's
# stream.  Its state is set before every use, so it carries nothing from one
# draw to the next; it is kept because building a bit generator holds the
# interpreter lock for about 8 us, which two worker threads feel.
_spare = threading.local()


def _v_cursor(bg, state, k) -> np.random.Generator:
    """This thread's spare generator, on a copy of ``state`` of the bit
    generator ``bg`` advanced by k draws.  It is made once per thread from a
    fixed seed, so no OS entropy is drawn."""
    gen = getattr(_spare, "gen", None)
    if gen is None or type(gen.bit_generator) is not type(bg):
        gen = _spare.gen = np.random.Generator(type(bg)(0))
    gen.bit_generator.state = state
    gen.bit_generator.advance(k)
    return gen


def _keep_pairs(u_gen, v_gen, k, out, filled):
    """Read a block of k pairs in tiles, u from ``u_gen`` and v from ``v_gen``,
    into the columns of ``out`` from ``filled`` on, until ``out`` is full.

    Each kept pair's u, v and s go to rows 0, 1 and 2 of its column.
    Returns the new ``filled`` and the pairs read.
    """
    n = out.shape[1]
    uv, s_buf = np.empty((2, min(DRAW_TILE, k))), np.empty(min(DRAW_TILE, k))
    read = 0
    while read < k and filled < n:
        t = min(DRAW_TILE, k - read)
        pair, s = uv[:, :t], s_buf[:t]
        u_gen.random(out=pair[0])
        v_gen.random(out=pair[1])
        pair *= 2.0
        pair -= 1.0
        np.multiply(pair[0], pair[0], out=s)
        s += pair[1] * pair[1]
        idx = np.flatnonzero(s < 1.0)[:n - filled]
        for values, row in zip((pair[0], pair[1], s), out[:, filled:filled + idx.size]):
            np.take(values, idx, out=row, mode="clip")
        filled += idx.size
        read += t
    return filled, read


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
