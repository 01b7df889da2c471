"""Edge cases of the Monte Carlo outcome kernels (degenerate rounds and sign
ties), and the tiled agreement kernel against its one-setting-at-a-time loop."""

import numpy as np
import pytest

from bellmi import _kernels as K
from bellmi.sphere import sample_uniform_sphere


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


@pytest.mark.parametrize("n_settings", [1, 2, 5, 32, 100, 300])
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

    def spy(d, mag, *rest):
        settled.append(int((~(mag >= K.SIGN_MARGIN)).sum()))
        return settle(d, mag, *rest)

    monkeypatch.setattr(K, "_settle_ties", spy)
    _assert_same_bits(settings, p_x, l1, l2)
    _assert_same_bits(settings, p_x, np.asfortranarray(l1), np.asfortranarray(l2))
    assert settled and min(settled) > 0
