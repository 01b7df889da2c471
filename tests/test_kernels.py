"""Edge cases of the Monte Carlo outcome kernels (degenerate rounds and sign
ties), the outcome maps against the composition of each party's half and
their locality, the tally against a per-round loop, and the tiled agreement
kernel against its one-setting-at-a-time loop."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bellmi import _kernels as K
from bellmi.analysis import CHUNK_ROUNDS, estimate_correlations
from bellmi.models import GisinGisinModel, SettingsSpec, TonerBaconModel
from bellmi.sphere import RandomSource, sample_uniform_sphere
from conftest import (
    gg_alice_half,
    gg_bob_half,
    per_round_settings,
    tb_alice_half,
    tb_bob_half,
)


def test_tb_flags_vanishing_bob_direction():
    # l1 + m*l2 = 0 needs antipodal shared vectors orthogonal to x (both
    # sgn ties break to +1, giving m = +1); Bob's direction is undefined
    xs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ys = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    l1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    l2 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    _, _, m, bad = K.tb_outcomes(*per_round_settings(xs, ys), l1, l2)
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
    a, b, m, bad = K.tb_outcomes(*per_round_settings(ex, ex), ez, ey)
    assert (a[0], b[0], m[0], bad[0]) == (-1, 1, 1, False)
    # GG: a = sgn(x.lam) = +1 and b = -sgn(y.lam) = -1 at x.lam = y.lam = 0
    a, b, _ = K.gg_outcomes(*per_round_settings(ex, ey), ez, np.zeros(1))
    assert (a[0], b[0]) == (1, -1)


# ----------------------------------------------------------------------
# outcome maps: against each party's half, and local in their settings
# ----------------------------------------------------------------------

def tb_outcomes_where(xs, ys, l1, l2):
    """Reference: Alice's half of the round, then Bob's on the bit she sent."""
    a, m = tb_alice_half(xs, l1, l2)
    b, bad = tb_bob_half(ys, l1, l2, m)
    return a, b, m, bad


def gg_outcomes_where(xs, ys, lam, u):
    """Reference: the two halves of the detection round side by side."""
    a, click_a = gg_alice_half(xs, lam, u)
    return a, gg_bob_half(ys, lam), click_a


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


def _tie_indices(k):
    """k index columns running over every k-tuple of signed axes."""
    idx = np.array(list(itertools.product(range(len(_AXES)), repeat=k)))
    return [idx[:, j] for j in range(k)]


def _cell_settings(x_idx, y_idx, alice, bob):
    """Kernel settings arguments for rounds at Alice's ``alice[x_idx]`` and
    Bob's ``bob[y_idx]``: cell codes x*n_b + y and the per-cell rows."""
    return (x_idx * bob.shape[0] + y_idx, *K.cell_rows(alice, bob))


def _seeded_rounds(seed, n, k):
    """Seeded rounds at 5 Alice and 4 Bob settings, as kernel settings
    arguments, and k per-round sphere batches."""
    gen = np.random.default_rng(seed)
    alice, bob = sample_uniform_sphere(gen, 5), sample_uniform_sphere(gen, 4)
    x_idx, y_idx = gen.integers(0, 5, n), gen.integers(0, 4, n)
    rows = [sample_uniform_sphere(gen, n) for _ in range(k)]
    return _cell_settings(x_idx, y_idx, alice, bob), rows


def _vectors(settings):
    """Per-round settings (xs, ys) of kernel settings arguments."""
    cell, alice, bob = settings
    return alice.T[cell], bob.T[cell]


def test_cell_rows_hold_x_and_y_in_column_x_nb_plus_y():
    gen = np.random.default_rng(2400)
    alice, bob = sample_uniform_sphere(gen, 3), sample_uniform_sphere(gen, 5)
    rows = K.cell_rows(alice, bob)
    for r, want in zip(rows, (np.repeat(alice, 5, axis=0), np.tile(bob, (3, 1)))):
        assert r.shape == (3, 15) and r.flags.c_contiguous
        np.testing.assert_array_equal(r, want.T)


def test_tb_outcomes_match_the_where_oracle():
    x_idx, y_idx, i1, i2 = _tie_indices(4)
    settings = _cell_settings(x_idx, y_idx, _AXES, _AXES)
    l1, l2 = _AXES[i1], _AXES[i2]
    xs, ys = _vectors(settings)
    np.testing.assert_array_equal(xs, _AXES[x_idx])
    np.testing.assert_array_equal(ys, _AXES[y_idx])
    d1 = xs[:, 0] * l1[:, 0] + xs[:, 1] * l1[:, 1] + xs[:, 2] * l1[:, 2]
    assert ((d1 == 0.0) & ~np.signbit(d1)).any() and ((d1 == 0.0) & np.signbit(d1)).any()
    got = K.tb_outcomes(*settings, l1, l2)
    _assert_same_outputs(got, tb_outcomes_where(xs, ys, l1, l2))
    assert got[3].any()  # l1 + m*l2 = 0 occurs
    for seed, n in ((2401, 1), (2402, 1000), (2403, CHUNK_ROUNDS)):
        settings, rows = _seeded_rounds(seed, n, 2)
        want = tb_outcomes_where(*_vectors(settings), *rows)
        _assert_same_outputs(K.tb_outcomes(*settings, *rows), want)
        rows = [np.ascontiguousarray(r) for r in rows]
        _assert_same_outputs(K.tb_outcomes(*settings, *rows), want)


def test_gg_outcomes_match_the_where_oracle():
    x_idx, y_idx, i = _tie_indices(3)
    settings = _cell_settings(x_idx, y_idx, _AXES, _AXES)
    lam = _AXES[i]
    xs, ys = _vectors(settings)
    for v in (xs, ys):
        d = v[:, 0] * lam[:, 0] + v[:, 1] * lam[:, 1] + v[:, 2] * lam[:, 2]
        assert ((d == 0.0) & ~np.signbit(d)).any() and ((d == 0.0) & np.signbit(d)).any()
    u = np.random.default_rng(2404).random(x_idx.shape[0])
    _assert_same_outputs(K.gg_outcomes(*settings, lam, u), gg_outcomes_where(xs, ys, lam, u))
    for seed, n in ((2405, 1), (2406, 1000), (2407, CHUNK_ROUNDS)):
        settings, (lam,) = _seeded_rounds(seed, n, 1)
        u = np.random.default_rng(seed).random(n)
        want = gg_outcomes_where(*_vectors(settings), lam, u)
        _assert_same_outputs(K.gg_outcomes(*settings, lam, u), want)


def _locality_rounds(seed, n, k):
    """Seeded rounds whose settings and hidden vectors mix signed axes with
    sphere points, so sgn(0) ties occur: kernel settings arguments of the
    drawn (x, y), of (x, redrawn y) and of (redrawn x, y), and the hidden
    vectors."""
    gen = np.random.default_rng(seed)
    alice = np.concatenate([_AXES, sample_uniform_sphere(gen, 3)])
    bob = np.concatenate([_AXES, sample_uniform_sphere(gen, 2)])
    x_idx, y_idx = gen.integers(0, 9, n), gen.integers(0, 8, n)
    hidden = [np.where(gen.random(n)[:, None] < 0.5, _AXES[gen.integers(0, 6, n)],
                       sample_uniform_sphere(gen, n)) for _ in range(k)]
    x_new, y_new = gen.integers(0, 9, n), gen.integers(0, 8, n)
    settings = [_cell_settings(x, y, alice, bob)
                for x, y in ((x_idx, y_idx), (x_idx, y_new), (x_new, y_idx))]
    return settings, hidden


def test_tb_outcomes_are_local():
    # a and m do not see y; b does not see x once mu and m are fixed
    (settings, new_y, new_x), (l1, l2) = _locality_rounds(2410, 4000, 2)
    a, b, m, _ = K.tb_outcomes(*settings, l1, l2)
    xs, _ = _vectors(settings)
    d1 = xs[:, 0] * l1[:, 0] + xs[:, 1] * l1[:, 1] + xs[:, 2] * l1[:, 2]
    assert (d1 == 0.0).any()  # ties are among the rounds
    a2, _, m2, _ = K.tb_outcomes(*new_y, l1, l2)
    np.testing.assert_array_equal(a2, a)
    np.testing.assert_array_equal(m2, m)
    _, b3, m3, _ = K.tb_outcomes(*new_x, l1, l2)
    same_m = m3 == m
    assert same_m.any() and not same_m.all()
    np.testing.assert_array_equal(b3[same_m], b[same_m])


def test_gg_outcomes_are_local():
    (settings, new_y, new_x), (lam,) = _locality_rounds(2411, 4000, 1)
    u = np.random.default_rng(2412).random(settings[0].shape[0])
    a, b, click_a = K.gg_outcomes(*settings, lam, u)
    a2, _, click2 = K.gg_outcomes(*new_y, lam, u)
    np.testing.assert_array_equal(a2, a)
    np.testing.assert_array_equal(click2, click_a)
    _, b3, _ = K.gg_outcomes(*new_x, lam, u)
    np.testing.assert_array_equal(b3, b)


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
    cell = x_idx * N_B + y_idx
    got = K.tally(cell, a, b, N_A, N_B, kept)
    want = tally_loop(x_idx, y_idx, a, b, kept, N_A, N_B)
    assert want[1][DROPPED] > 0 and not want[0][DROPPED].any()
    assert want[1][UNDRAWN] == 0
    _assert_tally(got, want)
    every = np.ones(n, dtype=bool)
    _assert_tally(K.tally(cell, a, b, N_A, N_B),
                  tally_loop(x_idx, y_idx, a, b, every, N_A, N_B))


class _CoinModel:
    """Post-selecting model with seeded coin outcomes that drops every round
    of cell DROPPED, checks that it gets the spec's settings as per-cell
    component rows and records each batch for the loop, with x = cell // n_b
    and y = cell % n_b."""

    post_selects = True

    def __init__(self, spec):
        self.spec = spec
        self.batches = []

    def sample_rounds(self, cell, alice, bob, source):
        spec = self.spec
        for rows, settings in ((alice, np.repeat(spec.alice_settings, spec.n_bob, axis=0)),
                               (bob, np.tile(spec.bob_settings, (spec.n_alice, 1)))):
            assert rows.flags.c_contiguous
            np.testing.assert_array_equal(rows, settings.T)
        gen = source.generator()
        n = cell.shape[0]
        x_idx, y_idx = cell // spec.n_bob, cell % spec.n_bob
        a = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
        b = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
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


def _dot3(s, v):
    """The element formula (s0*v0 + s1*v1) + s2*v2 on Python floats."""
    return (s[0] * v[0] + s[1] * v[1]) + s[2] * v[2]


def _tb_round(xs, ys, l1, l2):
    """(a, b, kept) of one one-bit round, every dot by the element formula."""
    plus1, plus2 = _dot3(xs, l1) >= 0.0, _dot3(xs, l2) >= 0.0
    m = 1 if plus1 == plus2 else -1
    direction = [p + m * q for p, q in zip(l1, l2)]
    assert any(direction)  # a zero direction would be resampled
    return (-1 if plus1 else 1), (1 if _dot3(ys, direction) >= 0.0 else -1), True


def _gg_round(xs, ys, lam, u):
    """(a, b, kept) of one detection round, every dot by the element formula."""
    da = _dot3(xs, lam)
    return (1 if da >= 0.0 else -1), (-1 if _dot3(ys, lam) >= 0.0 else 1), u < abs(da)


def replayed_estimate(model, spec, rounds, source):
    """Reference: chunk by chunk, the cell codes of ``Generator.choice`` and
    the model's hidden draws on the chunk's sub-streams, then one Python step
    per round, at Alice's setting x = cell // n_b and Bob's y = cell % n_b."""
    n_b = spec.n_bob
    counts = np.zeros((spec.n_alice, n_b, 2, 2), dtype=np.int64)
    attempts = np.zeros((spec.n_alice, n_b), dtype=np.int64)
    alice, bob = spec.alice_settings.tolist(), spec.bob_settings.tolist()
    for i in range(-(-rounds // CHUNK_ROUNDS)):
        k = min(CHUNK_ROUNDS, rounds - i * CHUNK_ROUNDS)
        s_set, s_mod = source.child(i).split(2)
        cells = s_set.generator().choice(spec.p_xy.size, size=k, p=spec.p_xy.ravel())
        gen = s_mod.generator()
        if model.name == "tb":
            step = _tb_round
            hidden = (sample_uniform_sphere(gen, k).tolist(),
                      sample_uniform_sphere(gen, k).tolist())
        else:
            step = _gg_round
            hidden = (sample_uniform_sphere(gen, k).tolist(), gen.random(k).tolist())
        for cell, *h in zip(cells.tolist(), *hidden):
            x, y = cell // n_b, cell % n_b
            a, b, kept = step(alice[x], bob[y], *h)
            attempts[x, y] += 1
            if kept:
                counts[x, y, int(a < 0), int(b < 0)] += 1
    return counts, attempts


@pytest.mark.parametrize("model", [TonerBaconModel(), GisinGisinModel()], ids=["tb", "gg"])
def test_estimate_matches_a_loop_over_rounds_on_a_3x5_spec(model):
    # x and y swapped in the per-cell rows, or either side read at the other
    # side's index, reads other settings or none
    gen = np.random.default_rng(2413)
    p_xy = np.exp(gen.standard_normal((3, 5)))
    p_xy /= p_xy.sum()
    assert not np.allclose(p_xy, np.outer(p_xy.sum(axis=1), p_xy.sum(axis=0)))
    spec = SettingsSpec(sample_uniform_sphere(gen, 3), sample_uniform_sphere(gen, 5), p_xy)
    rounds = CHUNK_ROUNDS + 4321
    counts, attempts = replayed_estimate(model, spec, rounds, RandomSource(2414))
    assert attempts.sum() == rounds and attempts.min() > 0
    for parallelism in (1, 2):
        est = estimate_correlations(model, spec, rounds, RandomSource(2414), parallelism)
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
