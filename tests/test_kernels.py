"""Edge cases of the Monte Carlo outcome kernels: degenerate rounds and sign ties."""

import numpy as np

from bellmi import _kernels as K


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
