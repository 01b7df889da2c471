"""Edge cases of the Monte Carlo outcome kernels (degenerate rounds and sign
ties), the outcome maps against an ``np.where`` oracle, the tally against a
per-round loop, and the tiled agreement kernel against its
one-setting-at-a-time loop."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bellmi import _kernels as K
from bellmi.analysis import CHUNK_ROUNDS, estimate_correlations
from bellmi.models import SettingsSpec
from bellmi.sphere import RandomSource, sample_uniform_sphere


def test_tb_flags_vanishing_bob_direction():
    # l1 + m*l2 = 0 needs antipodal shared vectors orthogonal to x (both
    # sgn ties break to +1, giving m = +1); Bob's direction is undefined
    xs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ys = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    l1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    l2 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    _, _, m, bad = K.tb_outcomes(xs, ys, l1, l2)
    assert m[0] == 1
    assert bad[0]
    assert not bad[1]


def test_kernels_break_zero_dot_ties_to_plus():
    # sgn(0) = +1 on every exactly orthogonal pair
    ex = np.array([[1.0, 0.0, 0.0]])
    ey = np.array([[0.0, 1.0, 0.0]])
    ez = np.array([[0.0, 0.0, 1.0]])
    # TB: x.l1 = x.l2 = 0 gives a = -sgn(0) = -1 and m = +1; then
    # y = e_x is orthogonal to l1 + m*l2 = (0, 1, 1), so b = sgn(0) = +1
    a, b, m, bad = K.tb_outcomes(ex, ex, ez, ey)
    assert (a[0], b[0], m[0], bad[0]) == (-1, 1, 1, False)
    # GG: a = sgn(x.lam) = +1 and b = -sgn(y.lam) = -1 at x.lam = y.lam = 0
    a, b, _ = K.gg_outcomes(ex, ey, ez, np.zeros(1))
    assert (a[0], b[0]) == (1, -1)


# ----------------------------------------------------------------------
# outcome maps: against np.where on the same comparisons
# ----------------------------------------------------------------------

def _dot(u, v):
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def tb_outcomes_where(xs, ys, l1, l2):
    """Reference: the one-bit round with every sign picked by ``np.where``."""
    alice_plus = _dot(xs, l1) >= 0.0
    agree = alice_plus == (_dot(xs, l2) >= 0.0)
    m = np.where(agree, 1.0, -1.0)
    v = np.stack([l1[:, k] + m * l2[:, k] for k in range(3)], axis=1)
    a = np.where(alice_plus, np.int8(-1), np.int8(1))
    b = np.where(_dot(ys, v) >= 0.0, np.int8(1), np.int8(-1))
    bad = (v[:, 0] == 0.0) & (v[:, 1] == 0.0) & (v[:, 2] == 0.0)
    return a, b, np.where(agree, np.int8(1), np.int8(-1)), bad


def gg_outcomes_where(xs, ys, lam, u):
    """Reference: the detection round with every sign picked by ``np.where``."""
    da = _dot(xs, lam)
    a = np.where(da >= 0.0, np.int8(1), np.int8(-1))
    b = np.where(_dot(ys, lam) >= 0.0, np.int8(-1), np.int8(1))
    return a, b, u < np.abs(da)


def _assert_same_outputs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


# Signed axis vectors: the 3-term dot of two of them is exactly 1.0, -1.0,
# 0.0 or -0.0 (the last when every product is -0.0, as for e_x against
# (-0.0, -0.0, -1.0)).
_AXES = np.array([
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
    [-0.0, -0.0, -1.0], [-1.0, -0.0, -0.0], [0.0, -1.0, 0.0],
])


def _tie_rows(k):
    """k columns of (n, 3) rows running over every k-tuple of signed axes."""
    idx = np.array(list(itertools.product(range(len(_AXES)), repeat=k)))
    return [_AXES[idx[:, j]] for j in range(k)]


def _seeded_rows(seed, n, k):
    gen = np.random.default_rng(seed)
    return [sample_uniform_sphere(gen, n) for _ in range(k)]


def test_tb_outcomes_match_the_where_oracle():
    xs, ys, l1, l2 = _tie_rows(4)
    d1 = _dot(xs, l1)
    assert ((d1 == 0.0) & ~np.signbit(d1)).any() and ((d1 == 0.0) & np.signbit(d1)).any()
    _assert_same_outputs(K.tb_outcomes(xs, ys, l1, l2), tb_outcomes_where(xs, ys, l1, l2))
    assert K.tb_outcomes(xs, ys, l1, l2)[3].any()  # l1 + m*l2 = 0 occurs
    for seed, n in ((2401, 1), (2402, 1000), (2403, CHUNK_ROUNDS)):
        rows = _seeded_rows(seed, n, 4)
        _assert_same_outputs(K.tb_outcomes(*rows), tb_outcomes_where(*rows))
        rows = [np.ascontiguousarray(r) for r in rows]
        _assert_same_outputs(K.tb_outcomes(*rows), tb_outcomes_where(*rows))


def test_gg_outcomes_match_the_where_oracle():
    xs, ys, lam = _tie_rows(3)
    da, db = _dot(xs, lam), _dot(ys, lam)
    for d in (da, db):
        assert ((d == 0.0) & ~np.signbit(d)).any() and ((d == 0.0) & np.signbit(d)).any()
    u = np.random.default_rng(2404).random(xs.shape[0])
    _assert_same_outputs(K.gg_outcomes(xs, ys, lam, u), gg_outcomes_where(xs, ys, lam, u))
    for seed, n in ((2405, 1), (2406, 1000), (2407, CHUNK_ROUNDS)):
        rows = _seeded_rows(seed, n, 3)
        u = np.random.default_rng(seed).random(n)
        _assert_same_outputs(K.gg_outcomes(*rows, u), gg_outcomes_where(*rows, u))


# ----------------------------------------------------------------------
# tally: against a per-round loop
# ----------------------------------------------------------------------

def tally_loop(x_idx, y_idx, a, b, kept, n_a, n_b):
    """Reference: one Python step per round."""
    counts = np.zeros((n_a, n_b, 2, 2), dtype=np.int64)
    attempts = np.zeros((n_a, n_b), dtype=np.int64)
    for x, y, ai, bi, k in zip(x_idx.tolist(), y_idx.tolist(), a.tolist(), b.tolist(),
                               kept.tolist()):
        attempts[x, y] += 1
        if k:
            counts[x, y, int(ai < 0), int(bi < 0)] += 1
    return counts, attempts


def _assert_tally(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


# A 2x3 alphabet: cell (1, 0) is drawn but never kept; cell (0, 2) is never
# drawn.
N_A, N_B = 2, 3
DROPPED, UNDRAWN = (1, 0), (0, 2)


def test_tally_matches_the_loop():
    gen = np.random.default_rng(2408)
    n = 5000
    x_idx = gen.integers(0, N_A, n)
    y_idx = gen.integers(0, N_B, n)
    undrawn = (x_idx == UNDRAWN[0]) & (y_idx == UNDRAWN[1])
    y_idx[undrawn] = 0
    a = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
    b = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
    kept = gen.random(n) < 0.6
    kept[(x_idx == DROPPED[0]) & (y_idx == DROPPED[1])] = False
    got = K.tally(x_idx, y_idx, a, b, N_A, N_B, kept)
    want = tally_loop(x_idx, y_idx, a, b, kept, N_A, N_B)
    assert want[1][DROPPED] > 0 and not want[0][DROPPED].any()
    assert want[1][UNDRAWN] == 0
    _assert_tally(got, want)
    every = np.ones(n, dtype=bool)
    _assert_tally(K.tally(x_idx, y_idx, a, b, N_A, N_B),
                  tally_loop(x_idx, y_idx, a, b, every, N_A, N_B))


class _CoinModel:
    """Post-selecting model with seeded coin outcomes that drops every round
    of cell DROPPED and records each batch for the loop."""

    post_selects = True

    def __init__(self, spec):
        self.spec = spec
        self.batches = []

    def sample_rounds(self, xs, ys, source):
        gen = source.generator()
        n = xs.shape[0]
        a = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
        b = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
        x_idx = (xs[:, None, :] == self.spec.alice_settings).all(axis=2).argmax(axis=1)
        y_idx = (ys[:, None, :] == self.spec.bob_settings).all(axis=2).argmax(axis=1)
        kept = (gen.random(n) < 0.6) & ~((x_idx == DROPPED[0]) & (y_idx == DROPPED[1]))
        self.batches.append((x_idx, y_idx, a, b, kept))
        return SimpleNamespace(a=a, b=b, kept=kept)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_estimate_tallies_like_the_loop(parallelism):
    p_xy = np.array([[0.2, 0.15, 0.0], [0.25, 0.1, 0.3]])
    spec = SettingsSpec(np.eye(3)[:N_A], -np.eye(3), p_xy)
    model = _CoinModel(spec)
    rounds = CHUNK_ROUNDS + 321
    est = estimate_correlations(model, spec, rounds, RandomSource(2409), parallelism)
    assert len(model.batches) == 2
    rows = [np.concatenate(col) for col in zip(*model.batches)]
    counts, attempts = tally_loop(*rows, N_A, N_B)
    assert attempts.sum() == rounds and attempts[DROPPED] > 0 and attempts[UNDRAWN] == 0
    assert not counts[DROPPED].any()
    _assert_tally((est.counts, est.attempts), (counts, attempts))


# ----------------------------------------------------------------------
# agreement probabilities: bitwise against the one-setting-at-a-time loop
# ----------------------------------------------------------------------

def agreement_probs_loop(settings, p_x, l1, l2):
    """Reference: each setting's dots by the element formula, summed in j order."""
    p = np.zeros(l1.shape[0], dtype=np.float64)
    for j in range(settings.shape[0]):
        d1 = settings[j, 0] * l1[:, 0] + settings[j, 1] * l1[:, 1] + settings[j, 2] * l1[:, 2]
        d2 = settings[j, 0] * l2[:, 0] + settings[j, 1] * l2[:, 1] + settings[j, 2] * l2[:, 2]
        agree = (d1 >= 0.0) == (d2 >= 0.0)
        p = p + np.where(agree, p_x[j], 0.0)
    return p


def _unit_rows(gen, n):
    v = gen.standard_normal((n, 3))
    return v / np.sqrt((v * v).sum(axis=1))[:, None]


def _assert_same_bits(settings, p_x, l1, l2):
    got = K.agreement_probs(settings, p_x, l1, l2)
    want = agreement_probs_loop(settings, p_x, l1, l2)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n_settings", [1, 2, 5, 32, 100, 129, 300])
def test_agreement_probs_matches_the_loop_bit_for_bit(n_settings):
    gen = np.random.default_rng(1900 + n_settings)
    settings = _unit_rows(gen, n_settings)
    p_x = gen.random(n_settings)
    p_x /= p_x.sum()
    width = K.tile_shape(n_settings)[1]
    for n in (1, width // 3, width, width + 1, 3 * width - 7):
        l1, l2 = sample_uniform_sphere(gen, n), sample_uniform_sphere(gen, n)
        _assert_same_bits(settings, p_x, l1, l2)  # column-major, as drawn
        _assert_same_bits(settings, p_x, np.ascontiguousarray(l1), np.ascontiguousarray(l2))


def test_agreement_probs_recomputes_ties_with_the_element_formula(monkeypatch):
    # axis settings against vectors with +-0.0, +-1e-17 and exact-zero
    # components, plus a pair whose dot cancels to exactly 0.0: the matrix
    # product cannot certify these signs, and sgn(0) = +1 must hold
    settings = np.array([
        [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-0.0, 0.0, -1.0],
        [0.6, 0.8, 0.0], [-1.0, -0.0, 0.0],
    ])
    ties = np.array([
        [0.0, 0.0, 1.0], [-0.0, 1.0, 0.0], [1e-17, -1e-17, 1.0], [-1e-17, 0.0, -1.0],
        [1.0, -0.0, -0.0], [0.8, -0.6, 0.0], [-0.8, 0.6, -0.0], [0.0, -1e-17, -1.0],
    ])
    i, k = np.divmod(np.arange(ties.shape[0] ** 2), ties.shape[0])
    gen = np.random.default_rng(1901)
    l1 = np.concatenate([ties[i], sample_uniform_sphere(gen, 40)])
    l2 = np.concatenate([ties[k], sample_uniform_sphere(gen, 40)])
    p_x = np.array([0.125, 0.25, 0.0625, 0.3125, 0.1875, 0.0625])
    settled = []
    settle = K._settle_ties

    def spy(agree, mag, *rest):
        # mag holds |d1*d2|: count the cells the product could not certify
        settled.append(int((~(mag >= K.SIGN_MARGIN)).sum()))
        return settle(agree, mag, *rest)

    monkeypatch.setattr(K, "_settle_ties", spy)
    _assert_same_bits(settings, p_x, l1, l2)
    _assert_same_bits(settings, p_x, np.asfortranarray(l1), np.asfortranarray(l2))
    assert settled and min(settled) > 0


@pytest.mark.parametrize("columns", [2, 3, 256])
def test_axis_0_reduce_adds_rows_in_order(columns):
    # agreement_probs sums each tile with np.add.reduce(axis=0) and needs it
    # to add the rows one at a time, top to bottom.  Added to 1.0, 1e-16
    # rounds away (1.0 + 1e-16 == 1.0), while a pairwise sum first adds the
    # small rows to each other and then moves 1.0: the two orders differ.
    t = np.full((300, columns), 1e-16)
    t[0] = 1.0
    t[:, 1] = t[::-1, 1]  # a column whose large term comes last
    rows = t[0].copy()
    for row in t[1:]:
        np.add(rows, row, out=rows)
    assert rows[0] == 1.0 and rows[1] > 1.0
    assert rows[0] != math.fsum(t[:, 0])  # the orders really differ
    got = np.empty(columns)
    np.add.reduce(t, axis=0, out=got)
    np.testing.assert_array_equal(got.view(np.int64), rows.view(np.int64))
