"""Seeded randomness, sphere sampling, and the small geometry helpers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bellmi.errors import ValidationError
from bellmi.sphere import (
    DRAW_TILE,
    RandomSource,
    require_unit,
    sample_uniform_sphere,
    vec_polar,
)
from conftest import fibonacci_sphere, row_major_sphere


def test_random_source_is_reproducible():
    a = RandomSource(42).generator().random(16)
    b = RandomSource(42).generator().random(16)
    np.testing.assert_array_equal(a, b)


def test_split_is_pure_and_stable():
    src = RandomSource(7)
    first = [c.generator().random(8) for c in src.split(3)]
    second = [c.generator().random(8) for c in src.split(3)]
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x, y)
    # children do not collide with each other or the parent
    streams = [src.generator().random(8)] + first
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.array_equal(streams[i], streams[j])


def test_split_prefix_consistency():
    # the first k children of split(n) match split(k)
    src = RandomSource(99)
    wide = src.split(5)
    narrow = src.split(2)
    for w, n in zip(wide, narrow):
        np.testing.assert_array_equal(
            w.generator().random(4), n.generator().random(4)
        )


def test_child_is_the_split_child():
    src = RandomSource(99)
    for i, child in enumerate(src.split(4)):
        np.testing.assert_array_equal(
            src.child(i).generator().random(4), child.generator().random(4)
        )


class _RejectingFirstBlock:
    """A generator whose first block of an n-point draw keeps only its last
    ``kept`` pairs, so the draw must top up from a second block.

    It hands out ``gen``'s uniforms through ``random`` and shares ``gen``'s
    bit generator, so it serves both the oracle, which draws whole
    ``(2, k)`` blocks, and the draw, whose u cursor it is.  The first
    k - kept uniforms of the stream, the start of the first block's u row,
    read 0.0: u = -1, so those pairs have s >= 1 whatever v is."""

    def __init__(self, gen, n, kept):
        self.gen, self.bit_generator = gen, gen.bit_generator
        self.rejected = n * 4 // 3 + 64 - kept
        self.handed, self.calls = 0, 0

    def random(self, size=None, out=None):
        block = self.gen.random(size, out=out)
        block.reshape(-1)[:max(0, self.rejected - self.handed)] = 0.0  # row-major: u first
        self.handed += block.size
        self.calls += 1
        return block


def test_sample_uniform_sphere_is_column_major_with_unchanged_values():
    pts = sample_uniform_sphere(RandomSource(8).generator(), 1000)
    # each component is one contiguous run; a row-major copy would show here
    assert pts.shape == (1000, 3) and pts.T.flags.c_contiguous
    # the same bits as the pair-by-pair oracle, on one block and with top-ups
    np.testing.assert_array_equal(pts, row_major_sphere(RandomSource(8).generator(), 1000))
    for n, kept in ((1000, 20), (5, 3), (1, 0)):
        fakes = [_RejectingFirstBlock(RandomSource(9).generator(), n, kept) for _ in range(2)]
        got = sample_uniform_sphere(fakes[0], n)
        np.testing.assert_array_equal(got, row_major_sphere(fakes[1], n))
        assert fakes[1].calls >= 2  # the oracle drew a second block
        assert fakes[0].bit_generator.state == fakes[1].bit_generator.state
        assert got.T.flags.c_contiguous


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from([0, 1, DRAW_TILE - 1, DRAW_TILE, DRAW_TILE + 1, 65_536])
    | st.integers(0, 4 * DRAW_TILE),
    halves=st.integers(0, 2),
)
def test_sample_uniform_sphere_reads_the_stream_of_whole_blocks(seed, n, halves):
    # the two cursors read the bits the oracle's whole (2, k) blocks hold and
    # leave the stream where those blocks leave it; ``halves`` 32-bit draws
    # first leave a buffered half (1) or a spent one with its value (2)
    gens = [RandomSource(seed).generator() for _ in range(2)]
    for gen in gens:
        gen.integers(2**32, size=halves, dtype=np.uint32)
    assert gens[0].bit_generator.state["has_uint32"] == halves % 2
    got = sample_uniform_sphere(gens[0], n)
    assert got.tobytes() == row_major_sphere(gens[1], n).tobytes()
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


def test_sphere_draw_memory_stays_under_its_cap():
    # the whole (2, k) uniform block, s and the index of the kept pairs,
    # live together, peaked at 4.2 MB beside the 1.5 MB of points
    gen = RandomSource(42).generator()
    sample_uniform_sphere(gen, 65_536)
    tracemalloc.start()
    try:
        sample_uniform_sphere(gen, 65_536)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("n", [0, 1, 2, 65_536])
def test_sample_uniform_sphere_shapes_and_replay(n):
    gens = [RandomSource(5).generator() for _ in range(2)]
    pts = [sample_uniform_sphere(g, n) for g in gens]
    assert pts[0].shape == (n, 3) and pts[0].dtype == np.float64
    assert pts[0].tobytes() == pts[1].tobytes()
    assert gens[0].bit_generator.state == gens[1].bit_generator.state
    if n == 0:  # an empty draw takes no uniforms
        assert gens[0].bit_generator.state == RandomSource(5).generator().bit_generator.state


def test_sample_uniform_sphere_is_uniform():
    # the sphere's uniform law makes z, the azimuth and the projection onto
    # any fixed axis uniform (Archimedes); scipy's KS test is the oracle
    pts = sample_uniform_sphere(RandomSource(23).generator(), 200_000)
    assert np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", pts, pts)) - 1.0)) <= 1e-15
    axis = np.random.default_rng(24).standard_normal(3)
    axis /= np.linalg.norm(axis)
    samples = {
        "z": (pts[:, 2], (-1.0, 2.0)),
        "azimuth": (np.arctan2(pts[:, 1], pts[:, 0]), (-np.pi, 2.0 * np.pi)),
        "axis": (pts @ axis, (-1.0, 2.0)),
    }
    for name, (values, (loc, scale)) in samples.items():
        assert stats.kstest(values, "uniform", args=(loc, scale)).pvalue > 1e-3, name


def test_sample_uniform_sphere_statistics():
    gen = RandomSource(3).generator()
    pts = sample_uniform_sphere(gen, 200_000)
    assert pts.shape == (200_000, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # each coordinate has mean 0 (se ~ 0.0013) and variance 1/3
    assert np.all(np.abs(pts.mean(axis=0)) < 0.006)
    np.testing.assert_allclose(pts.var(axis=0), 1 / 3, atol=0.005)
    # z is uniform on [-1, 1]: check second and fourth moments
    z = pts[:, 2]
    assert np.mean(z**2) == pytest.approx(1 / 3, abs=0.005)
    assert np.mean(z**4) == pytest.approx(1 / 5, abs=0.005)


def test_require_unit_rejects_non_unit():
    require_unit(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        require_unit(np.array([0.0, 0.0, 1.1]))


def test_vec_polar_axes():
    assert np.allclose(vec_polar(0.0), [0.0, 0.0, 1.0])
    assert np.allclose(vec_polar(math.pi / 2), [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(vec_polar(math.pi / 2, math.pi / 2), [0.0, 1.0, 0.0], atol=1e-15)


def test_fibonacci_sphere_spread():
    pts = fibonacci_sphere(100)
    assert pts.shape == (100, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # spread points average close to the centroid of the sphere
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)
